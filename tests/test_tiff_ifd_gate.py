"""Static gate: TIFF IFD entries are packed and parsed in one place,
``sources/gtiff.py``'s ``_pack_ifd`` and ``_parse_ifd``.

An IFD entry starts with tag (u16) and type (u16), then a count and a value
slot in the layout's offset size: ``"HHI"`` in classic TIFF, ``"HHQ"`` in
BigTIFF.  This scan of ``gdal_ray/`` fails on a ``struct`` call whose format
is such an entry header — ``"HHI"`` or ``"HHQ"`` after an optional
byte-order character, or ``"HH"`` alone or followed by a computed part
after a byte order chosen at run time (``en + "HH" + ofmt``) — unless it
sits in ``_pack_ifd``, ``_parse_ifd`` or ``_tiff_header`` (the BigTIFF file
header's offset size, zero and first-IFD offset read as ``"HHQ"``).
Fixed-order formats that merely start with ``HH`` (a WAV ``fmt `` chunk, a
JPEG segment) are other formats' headers and stay allowed.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OWNER = os.path.join("gdal_ray", "sources", "gtiff.py")
OWNER_FUNCS = {"_pack_ifd", "_parse_ifd", "_tiff_header"}
# fixed little-endian "<HHI" records of other formats, not TIFF entries
OTHER_FORMATS = {
    (os.path.join("gdal_ray", "sources", "hdf5.py"), "_w_messages"):
        "HDF5 object-header message prefix: type, size, flags",
    (os.path.join("gdal_ray", "sources", "hdf5.py"), "write_hdf5"):
        "HDF5 superblock: leaf K, internal K, consistency flags",
}
STRUCT_CALLS = {"pack", "pack_into", "unpack", "unpack_from", "iter_unpack",
                "calcsize", "Struct"}


def _terms(node) -> list:
    """A format expression's ``+`` terms: strings, or None when computed."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _terms(node.left) + _terms(node.right)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return [None]


def _is_entry_header(fmt) -> bool:
    terms = _terms(fmt)
    runtime_order = terms[0] is None
    if runtime_order:
        terms = terms[1:]
    elif terms[0][:1] in ("<", ">", "=", "!", "@"):
        terms = [terms[0][1:]] + terms[1:]
    body = "".join("?" if t is None else t for t in terms)
    if body in ("HHI", "HHQ"):
        return True
    return runtime_order and body in ("HH", "HH?")


def _violations(source: str) -> list:
    """-> [(line, enclosing function)] of every entry-header struct call."""
    tree = ast.parse(source)
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and child.args
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in STRUCT_CALLS
                    and _is_entry_header(child.args[0])):
                out.append((child.lineno, func))
            visit(child, func)

    visit(tree, None)
    return sorted(out)


# the entry packs and parses of the three IFD writers and two parsers that
# ``_pack_ifd`` and ``_parse_ifd`` replaced, as they were written
PARENT_SITES = """
def _serialize_image(en, tag, typ, count, tail):
    return struct.pack(en + "HHI", tag, typ, count) + tail


def _tiled_header(en, cfmt, tag, typ, count, tail):
    return struct.pack(en + "HH" + cfmt, tag, typ, count) + tail


def _parse_one_ifd(buf, en, base, esz, i):
    tag, typ = struct.unpack_from(en + "HH", buf, base + esz * i)
    return tag, typ


def _parse_one_ifd_file(body, en, esz, i):
    tag, typ = struct.unpack_from(en + "HH", body, esz * i)
    return tag, typ


def _cog_ifd_bytes(en, tag, typ, count, tail):
    return struct.pack(en + "HHI", tag, typ, count) + tail


def _little_endian_writer(tag, typ, count, slot):
    return struct.pack("<HHQ", tag, typ, count) + slot
"""


def test_scanner_flags_the_old_copies():
    assert _violations(PARENT_SITES) == [
        (3, "_serialize_image"), (7, "_tiled_header"), (11, "_parse_one_ifd"),
        (16, "_parse_one_ifd_file"), (21, "_cog_ifd_bytes"),
        (25, "_little_endian_writer")]


def test_scanner_passes_other_formats():
    src = ("def f(en, buf, n):\n"
           "    a = struct.pack('<HHIIHH', 1, 1, 8000, 8000, 1, 8)\n"
           "    b = struct.unpack('<HH', buf[26:30])\n"
           "    c = struct.pack('>HH', 1, 1)\n"
           "    d = struct.pack('<2sIHHI', b'BM', 1, 0, 0, 54)\n"
           "    e = struct.unpack(en + 'H', buf[2:4])\n"
           "    return struct.pack(en + '%dI' % n, *range(n))\n")
    assert _violations(src) == []


def test_ifd_entries_pack_and_parse_in_one_place():
    found = []
    for root, _dirs, files in os.walk(os.path.join(REPO, "gdal_ray")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, REPO)
            with open(path, encoding="utf-8") as f:
                sites = _violations(f.read())
            found += [f"{rel}:{line}: in {func}" for line, func in sites
                      if not (rel == OWNER and func in OWNER_FUNCS)
                      and (rel, func) not in OTHER_FORMATS]
    assert not found, "TIFF IFD entries packed or parsed outside " \
        "gtiff._pack_ifd / gtiff._parse_ifd:\n" + "\n".join(found)

