"""Static gate: the keyed hash-bucket shuffle lives in one place,
``relational.bucket_groups``, and the exact-key co-group of several inputs
in one other, ``relational.cogroup``.

Every other module that needs a keyed shuffle calls them.  This scan of
``gdal_ray/`` fails on a module other than ``relational.py`` that names a
``_part`` / ``_dpart`` bucket column (which also covers
``groupby("_part")``) or takes a value ``% num_partitions`` /
``% num_buckets``.  Hashes that feed no shuffle stay allowed: textops
feature hashing (``% 2001``) and the SQL-mirrored sampling in
``queries.py`` (``% 100``).  It also fails on a module that names a side
tag column (``side`` / ``_side`` / ``layer``) and calls both ``union`` and
``groupby``: rows tagged by side, unioned and grouped are a hand-written
co-group.  Row-kind tags (``kind`` / ``role``) are common column names, so
for them the scope is one top-level function: a function that names one and
calls both ``union`` and ``groupby`` (in it or in a function nested in it)
is a hand-written co-group too.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OWNER = os.path.join("gdal_ray", "stages", "relational.py")
BUCKET_COLUMNS = {"_part", "_dpart"}
BUCKET_COUNTS = {"num_partitions", "num_buckets"}
SIDE_TAGS = {"side", "_side", "layer"}
KIND_TAGS = {"kind", "role"}


def _tagged_cogroups(scope, tags) -> list:
    """[(line, what)] of the ``tags`` constants in ``scope`` if ``scope``
    calls both ``union`` and ``groupby``."""
    calls = {n.func.attr for n in ast.walk(scope)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    if not {"union", "groupby"} <= calls:
        return []
    return sorted((n.lineno, f"side tag {n.value!r}") for n in ast.walk(scope)
                  if isinstance(n, ast.Constant) and n.value in tags)


def _violations(source: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in BUCKET_COLUMNS:
            out.append((node.lineno, f"bucket column {node.value!r}"))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            names = {n.id for n in ast.walk(node.right) if isinstance(n, ast.Name)}
            for name in sorted(names & BUCKET_COUNTS):
                out.append((node.lineno, f"% {name}"))
    tree = ast.parse(source)
    out += _tagged_cogroups(tree, SIDE_TAGS)
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            out += _tagged_cogroups(top, KIND_TAGS)
    return out


def test_scanner_flags_a_hand_written_shuffle():
    src = ("def f(ds, k, num_partitions=64):\n"
           "    part = np.abs((k * 2654435761) % np.int64(num_partitions))\n"
           "    return ds.groupby('_part')\n")
    assert [line for line, _ in _violations(src)] == [2, 3]
    assert _violations("w = (j * 2654435761) % 2001 - 1000\n") == []


# ``rastermap.compare`` as it was before it moved onto ``cogroup``
HAND_WRITTEN_COGROUP = """
def compare(tiles_a, tiles_b, scale_x100: bool = True):
    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column("_side", pa.array(
                np.full(t.num_rows, side, dtype=np.int8)))
        return fn

    def diff(g: pa.Table) -> pa.Table:
        i0 = 0 if g["_side"][0].as_py() == 0 else 1
        return g.slice(i0, 1)

    a = rd.from_arrow(tiles_a) if isinstance(tiles_a, pa.Table) else tiles_a
    b = rd.from_arrow(tiles_b) if isinstance(tiles_b, pa.Table) else tiles_b
    return a.map_batches(tag(0), batch_format="pyarrow").union(
        b.map_batches(tag(1), batch_format="pyarrow")
    ).groupby(["z", "x", "y"]).map_groups(diff, batch_format="pyarrow")
"""


def test_scanner_flags_a_hand_written_cogroup():
    assert _violations(HAND_WRITTEN_COGROUP) == [
        (5, "side tag '_side'"), (10, "side tag '_side'")]
    # a tagged union that no groupby follows, and a groupby of one input, pass
    assert _violations("def f(a, b):\n    return a.union(b.add_column('side'))\n") == []
    assert _violations("def f(a):\n    return a.groupby('side').count()\n") == []


# ``layeralg``'s two kind/role tag-unions as they were before they moved
# onto ``cogroup``, abridged
KIND_TAGGED_COGROUPS = """
def _overlay_parts(left_ds, right_ds, res: int = 5):
    def residual(ds, side_kind, id_col, part_name):
        def seed(t: pa.Table) -> pa.Table:
            return pa.table({"kind": pa.array([side_kind] * n)})

        seeded = ds.map_batches(seed, batch_format="pyarrow").union(
            pairs.map_batches(
                lambda t: t.filter(pa.compute.equal(t["kind"], side_kind)),
                batch_format="pyarrow"))
        return seeded.groupby("key").map_groups(fold, batch_format="pyarrow")


def clean_coverage(ds, id_col: str = "fid", res: int = 5):
    def base_rows(b: pa.Table) -> pa.Table:
        return pa.table({"id": pc.cast(b[id_col], pa.int64()),
                         "role": pa.array(np.zeros(n, np.int8))})

    both = ds.map_batches(base_rows, batch_format="pyarrow").union(erasers)
    return both.groupby("id").map_groups(fold, batch_format="pyarrow")
"""


def test_scanner_flags_kind_and_role_tag_unions():
    assert _violations(KIND_TAGGED_COGROUPS) == [
        (5, "side tag 'kind'"), (9, "side tag 'kind'"), (17, "side tag 'role'")]
    # a kind column in a function that does not also union and group passes
    assert _violations("def f(t):\n    return t.filter(t['kind'])\n\n\n"
                       "def g(a, b):\n    return a.union(b).groupby('k')\n") == []


def test_keyed_shuffles_go_through_bucket_groups():
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
    assert not found, "hand-written keyed shuffle; use " \
        "relational.bucket_groups or relational.cogroup:\n" + "\n".join(found)
