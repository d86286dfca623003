"""Import gates: the kernel modules load without Ray, and one helper owns
the ``ObjectRef`` check.

Ray takes most of the engine's import time, and an in-process caller (the
layer benchmark, a library user) of the join, tiling and raster kernels
never needs it.  Stage modules import ``ray`` inside the functions that
``ray.put``; actor constructors resolve their broadcast argument through
``state.session.fetch``, which looks at Ray only once it is imported.
"""

import ast
import os
import subprocess
import sys

from gdal_ray.state import session

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OWNER = os.path.join("gdal_ray", "state", "session.py")
KERNELS = (
    "gdal_ray.stages.join", "gdal_ray.stages.pyramid", "gdal_ray.stages.tiles",
    "gdal_ray.sources.gtiff", "gdal_ray.sources.synthetic", "gdal_ray.sources.tiffcodec",
    "gdal_ray.functions.geo", "gdal_ray.functions.pip", "gdal_ray.functions.wkb",
    "gdal_ray.functions.checksum", "gdal_ray.functions.tilerow",
)


def test_kernel_modules_import_without_ray():
    code = ("import sys\n" + "".join(f"import {m}\n" for m in KERNELS)
            + "print('ray' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split()[-1] == "False", out.stdout


def test_fetch_passes_values_through_and_resolves_refs(ray_session):
    import ray

    value = {"a": 1}
    assert session.fetch(value) is value
    assert session.fetch(ray.put(value)) == value


def _objectref_checks(source: str) -> list:
    """Lines of ``isinstance(..., ray.ObjectRef)`` calls (also inside a
    tuple of types)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                and len(node.args) == 2:
            for t in ast.walk(node.args[1]):
                if isinstance(t, ast.Attribute) and t.attr == "ObjectRef":
                    out.append(node.lineno)
    return out


def test_scanner_flags_an_objectref_check():
    src = ("x = ray.get(r) if isinstance(r, ray.ObjectRef) else r\n"
           "y = isinstance(r, (list, ray.ObjectRef))\n"
           "z = isinstance(r, list)\n")
    assert sorted(_objectref_checks(src)) == [1, 2]


def test_objectref_checks_go_through_fetch():
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
                found += [f"{rel}:{line}" for line in _objectref_checks(f.read())]
    assert not found, "ObjectRef check outside state/session.py; use " \
        "session.fetch:\n" + "\n".join(found)
