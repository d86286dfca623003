"""Static gate: tile pixels go into a larger window through one halo
exchange, ``focal._halo_exchange``, and one paste, ``tilerow.paste``.

The exchange tags each border piece with the offset (dx, dy) of the tile
that sent it; where a piece goes in the padded window follows from that
offset.  This scan of ``gdal_ray/`` fails on a halo role string (``"TL"``,
``"TR"``, ``"BL"``, ``"BR"``: a piece named by the corner it fills, placed
by an ``if role ==`` chain) anywhere, and on a packed neighbour key
``(x + dx) << 32 | (y + dy)`` (either sign) outside ``_halo_exchange`` in
``stages/focal.py``: a second exchange.  Keys packed from a tile's own
address, ``(x << 32) | y`` or ``x // 2 << 32 | y // 2``, stay allowed.
"""

import ast
import os

import numpy as np

from gdal_ray.functions.tilerow import paste

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OWNER = (os.path.join("gdal_ray", "stages", "focal.py"), "_halo_exchange")
ROLES = {"TL", "TR", "BL", "BR"}


def _offset(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))


def _neighbour_key(node) -> bool:
    """``(x ± dx) << 32 | (y ± dy)``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.LShift) and _offset(node.left.left)
            and isinstance(node.left.right, ast.Constant)
            and node.left.right.value == 32 and _offset(node.right))


def _violations(source: str, owner: str | None = None) -> list:
    """-> sorted [(line, what)]; a neighbour key inside the top-level
    function ``owner`` is allowed."""
    out = []
    for top in ast.parse(source).body:
        keyed_ok = isinstance(top, ast.FunctionDef) and top.name == owner
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value in ROLES:
                out.append((node.lineno, f"halo role {node.value!r}"))
            if not keyed_ok and _neighbour_key(node):
                out.append((node.lineno, "neighbour key"))
    return sorted(out)


# the two role-keyed halo exchanges that ``focal._halo_exchange`` replaced,
# abridged to their emitters and role decoders as they were written
PARENT_SITES = """
def _halo_exchange(tiles_ds):
    def expand(batch: pa.Table) -> pa.Table:
        def emit(dx, dy, role, part):
            rows["dest"].append((x + dx) << 32 | (y + dy))
            rows["role"].append(role)
        emit(1, 1, "TL", arr[-1:, -1:]); emit(-1, 1, "TR", arr[-1:, :1])
        emit(1, -1, "BL", arr[:1, -1:]); emit(-1, -1, "BR", arr[:1, :1])


def _assemble_padded(group: pa.Table):
    for j, role in enumerate(roles):
        if role == "TL":
            pad[0, 0] = part[0, 0]


def fill_nodata(tiles_ds, nodata: float = 0.0, max_dist: int = 8):
    def expand(batch: pa.Table) -> pa.Table:
        def emit(dx, dy, part, role):
            rows.append({"dest": (x + dx) << 32 | (y + dy), "role": role})
        emit(-1, -1, arr[:K, :K], "BR")

    def fill_group(group: pa.Table) -> pa.Table:
        for j, role in enumerate(roles):
            if role == "BL":
                pad[K + h :, :K] = part
"""


def test_scanner_flags_the_old_exchanges():
    assert _violations(PARENT_SITES, owner="_halo_exchange") == [
        (7, "halo role 'TL'"), (7, "halo role 'TR'"),
        (8, "halo role 'BL'"), (8, "halo role 'BR'"),
        (13, "halo role 'TL'"),
        (20, "neighbour key"), (21, "halo role 'BR'"),
        (25, "halo role 'BL'"),
    ]
    # the same key outside the owner is a second exchange
    assert (5, "neighbour key") in _violations(PARENT_SITES)


def test_scanner_passes_own_address_keys():
    src = ("def f(i, j, x, y, dtx, dty):\n"
           "    return (i << 32) | j, (dtx << 32) | dty, x // 2 << 32 | y // 2\n")
    assert _violations(src) == []


def test_paste_clips_to_the_canvas():
    canvas = np.zeros((4, 5), np.float64)
    covered = np.zeros(canvas.shape, bool)
    arr = np.arange(1, 10, dtype=np.int16).reshape(3, 3)
    paste(canvas, arr, -1, 2, covered)   # off the left and bottom edges
    paste(canvas, arr, 4, -2, covered)   # off the right and top edges
    paste(canvas, arr, 9, 0, covered)    # wholly outside: nothing
    assert canvas.tolist() == [[0, 0, 0, 0, 7],
                               [0, 0, 0, 0, 0],
                               [2, 3, 0, 0, 0],
                               [5, 6, 0, 0, 0]]
    assert (covered == np.array([[0, 0, 0, 0, 1], [0] * 5,
                                 [1, 1, 0, 0, 0], [1, 1, 0, 0, 0]], bool)).all()


def test_tile_windows_assemble_through_one_exchange():
    found = []
    for root, _dirs, files in os.walk(os.path.join(REPO, "gdal_ray")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, REPO)
            with open(path, encoding="utf-8") as f:
                found += [f"{rel}:{line}: {what}" for line, what in
                          _violations(f.read(), OWNER[1] if rel == OWNER[0] else None)]
    assert not found, "tile window assembled outside focal._halo_exchange / " \
        "tilerow.paste:\n" + "\n".join(found)
