"""Static gate: the keyed hash-bucket shuffle lives in one place,
``relational.bucket_groups``.

Every other module that needs a keyed shuffle calls it.  This scan of
``gdal_ray/`` fails on a module other than ``relational.py`` that names a
``_part`` / ``_dpart`` bucket column (which also covers
``groupby("_part")``) or takes a value ``% num_partitions`` /
``% num_buckets``.  Hashes that feed no shuffle stay allowed: textops
feature hashing (``% 2001``) and the SQL-mirrored sampling in
``queries.py`` (``% 100``).
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OWNER = os.path.join("gdal_ray", "stages", "relational.py")
BUCKET_COLUMNS = {"_part", "_dpart"}
BUCKET_COUNTS = {"num_partitions", "num_buckets"}


def _violations(source: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in BUCKET_COLUMNS:
            out.append((node.lineno, f"bucket column {node.value!r}"))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            names = {n.id for n in ast.walk(node.right) if isinstance(n, ast.Name)}
            for name in sorted(names & BUCKET_COUNTS):
                out.append((node.lineno, f"% {name}"))
    return out


def test_scanner_flags_a_hand_written_shuffle():
    src = ("def f(ds, k, num_partitions=64):\n"
           "    part = np.abs((k * 2654435761) % np.int64(num_partitions))\n"
           "    return ds.groupby('_part')\n")
    assert [line for line, _ in _violations(src)] == [2, 3]
    assert _violations("w = (j * 2654435761) % 2001 - 1000\n") == []


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
        "relational.bucket_groups:\n" + "\n".join(found)
