"""Static gate: no stage runs as a hand-sized actor pool.

Every stateful stage runs as plain ``map_batches`` tasks through
``state.session.map_cached``, which builds the operator once per worker
process.  This scan of ``gdal_ray/`` fails on a class passed to
``map_batches`` (Ray Data runs a class as an actor pool), on
``fn_constructor_args`` / ``fn_constructor_kwargs``, and on any
``concurrency`` keyword, parameter or dict key.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL_NAMES = {"concurrency", "fn_constructor_args", "fn_constructor_kwargs"}


def _class_names(root: str) -> set:
    names = set()
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    tree = ast.parse(f.read())
                names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    return names


def _violations(source: str, classes: set) -> list:
    tree = ast.parse(source)
    classes = classes | {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "map_batches":
            fns = node.args[:1] + [k.value for k in node.keywords if k.arg == "fn"]
            for fn in fns:
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in classes:
                    out.append((node.lineno, f"class {name} passed to map_batches"))
        if isinstance(node, ast.keyword) and node.arg in POOL_NAMES:
            out.append((node.value.lineno, f"keyword {node.arg}="))
        if isinstance(node, ast.arg) and node.arg in POOL_NAMES:
            out.append((node.lineno, f"parameter {node.arg}"))
        if isinstance(node, ast.Dict):
            out += [(k.lineno, f"dict key {k.value!r}") for k in node.keys
                    if isinstance(k, ast.Constant) and k.value in POOL_NAMES]
    return sorted(out)


# ``relational.hash_join_broadcast`` as it was, an actor pool
ACTOR_POOL_STAGE = """
def hash_join_broadcast(ds, small, key, small_key, emit, concurrency=None):
    ref = ray.put(small)

    class Joiner:
        def __init__(self):
            self.table = ray.get(ref)

    return ds.map_batches(Joiner, batch_format="pyarrow",
                          concurrency=concurrency or default_concurrency())
"""


def test_scanner_flags_an_actor_pool_stage():
    assert _violations(ACTOR_POOL_STAGE, set()) == [
        (2, "parameter concurrency"), (9, "class Joiner passed to map_batches"),
        (10, "keyword concurrency=")]
    src = ("ds.map_batches(textops.LangId, fn_constructor_kwargs=dict(a=1))\n"
           "ds.map_batches(f, **({'concurrency': 2} if c else {}))\n")
    assert [what for _, what in _violations(src, {"LangId"})] == [
        "class LangId passed to map_batches", "keyword fn_constructor_kwargs=",
        "dict key 'concurrency'"]
    # a function and the cached-operator helper pass
    assert _violations("ds.map_batches(fn)\nmap_cached(ds, Op, ref)\n", {"Op"}) == []


def test_no_stage_builds_an_actor_pool():
    root = os.path.join(REPO, "gdal_ray")
    classes = _class_names(root)
    found = []
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                found += [f"{os.path.relpath(path, REPO)}:{line}: {what}"
                          for line, what in _violations(f.read(), classes)]
    assert not found, "actor-pool plumbing; run the stage through " \
        "state.session.map_cached:\n" + "\n".join(found)
