"""Static gate: the F3 tile-row format (FIXTURES.md F3) is decoded in one
place, ``functions/tilerow.py``.

This scan of ``gdal_ray/`` fails on a module other than ``tilerow.py``
that holds a dtype-name table (a dict literal keyed by two or more numpy
dtype names), defines a private decoder named ``_dtype_of``, ``_tile_of``
or ``_arr_of``, or calls ``np.frombuffer`` with a dtype read from a row's
``dtype`` / ``dtypes`` column (``t["dtype"][i]``,
``t["dtype"].to_pylist()``, directly or through a local name bound from
one) or looked up by name (``dtype_of(...)``).  Fixed-dtype reads (halo
strips, ``g2`` distance rows, RGB tiles) and file payloads decoded by a
dtype from the file's own header stay allowed.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OWNER = os.path.join("gdal_ray", "functions", "tilerow.py")
DTYPE_NAMES = {"bool", "int8", "uint8", "int16", "uint16", "int32", "uint32",
               "int64", "uint64", "float16", "float32", "float64"}
DTYPE_COLUMNS = {"dtype", "dtypes"}
PRIVATE_DECODERS = {"_dtype_of", "_tile_of", "_arr_of"}


def _is_dtype_column(n) -> bool:
    return (isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)
            and n.slice.value in DTYPE_COLUMNS)


def _reads_dtype_column(node, tainted: set) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Subscript) and _is_dtype_column(n.value):
            return True  # t["dtype"][i]
        if (isinstance(n, ast.Attribute) and _is_dtype_column(n.value)
                and n.attr in ("to_pylist", "to_numpy")):
            return True
        if isinstance(n, ast.Name) and n.id in tainted:
            return True
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id in ("dtype_of", "_dtype_of")):
            return True
    return False


def _tainted_names(scope) -> set:
    """Local names bound, directly or through other such names, from an
    expression that reads a ``dtype`` / ``dtypes`` column."""
    tainted: set = set()
    while True:
        before = len(tainted)
        for n in ast.walk(scope):
            if isinstance(n, ast.Assign):
                targets, value = n.targets, n.value
            elif isinstance(n, (ast.For, ast.comprehension)):
                targets, value = [n.target], n.iter
            else:
                continue
            if _reads_dtype_column(value, tainted):
                tainted |= {t.id for tg in targets for t in ast.walk(tg)
                            if isinstance(t, ast.Name)}
        if len(tainted) == before:
            return tainted


def _frombuffer_dtype(call: ast.Call):
    f = call.func
    if not (isinstance(f, ast.Attribute) and f.attr == "frombuffer"):
        return None
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    return call.args[1] if len(call.args) > 1 else None


def _violations(source: str) -> list:
    tree = ast.parse(source)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            names = [k.value for k in node.keys
                     if isinstance(k, ast.Constant) and k.value in DTYPE_NAMES]
            if len(names) >= 2:
                out.add((node.lineno, "dtype-name table"))
        if isinstance(node, ast.FunctionDef) and node.name in PRIVATE_DECODERS:
            out.add((node.lineno, f"private decoder {node.name}"))
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.Lambda))]
    for scope in scopes:
        tainted = _tainted_names(scope)
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                dt = _frombuffer_dtype(node)
                if dt is not None and _reads_dtype_column(dt, tainted):
                    out.add((node.lineno, "np.frombuffer of a row's dtype"))
    return sorted(out)


# ``rastermap._arr_of`` and ``_DTYPE_SIZES`` as they were before the codec,
# and the chunk decoder of ``mdim._rows``
PARENT_SITES = """
def _arr_of(batch: pa.Table, i: int) -> np.ndarray:
    from .focal import _dtype_of  # shared strict dtype map (raises on unknown)

    dt = _dtype_of(batch["dtype"][i].as_py())
    h = batch["height"][i].as_py()
    w = batch["width"][i].as_py()
    return np.frombuffer(batch["data"][i].as_py(), dtype=dt).reshape(h, w)


_DTYPE_SIZES = {"uint8": 1, "int16": 2, "int32": 4, "float32": 4, "float64": 8}


def _rows(batch: pa.Table):
    dts = batch["dtype"].to_pylist()
    datas = batch["data"].to_pylist()
    for i in range(batch.num_rows):
        a = np.frombuffer(datas[i], dtype=np.dtype(dts[i]))
        yield a
"""


def test_scanner_flags_the_old_decoders():
    assert _violations(PARENT_SITES) == [
        (2, "private decoder _arr_of"),
        (8, "np.frombuffer of a row's dtype"),
        (11, "dtype-name table"),
        (18, "np.frombuffer of a row's dtype"),
    ]


def test_scanner_passes_fixed_dtype_reads():
    src = ("def f(t, i, h, w, dt):\n"
           "    a = np.frombuffer(t['g2'][i].as_py(), dtype=np.float64)\n"
           "    b = np.frombuffer(t['data'][i].as_py(), np.uint8).reshape(h, w, 3)\n"
           "    return np.frombuffer(t['data'][i].as_py(), dtype=dt), {'uint8': 1}\n")
    assert _violations(src) == []


def test_tile_rows_decode_through_tilerow():
    found = []
    for root, _dirs, files in os.walk(os.path.join(REPO, "gdal_ray")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, REPO)
            if rel == OWNER:
                continue
            with open(path, encoding="utf-8") as f:
                found += [f"{rel}:{line}: {what}"
                          for line, what in _violations(f.read())]
    assert not found, "tile rows decoded outside functions/tilerow.py; use " \
        "tilerow.pixels / tilerow.decode / tilerow.tile_row:\n" + "\n".join(found)
