"""``ray job submit`` entry point: run a registered pipeline with resumable
partitioned output + a metrics JSON line.

The north-rule launch surface — on a real cluster:

    ray job submit --working-dir . -- python scripts/run_job.py \
        --query zonal_stats --sf-dir /data/sf100 --output /out/zonal \
        --partitions 64

and locally (single node) it runs as-is: Ray Data auto-initializes, or
attaches to the cluster ``ray job submit`` provides (RAY_ADDRESS).  The
driver never calls ray.init() when a session already exists.

Output layout (sources/io.py write_partitioned): one ``part=<pid>/``
parquet directory per hash partition of the result plus an atomic
``_manifest/<pid>.json`` carrying lineage (query, input dir, git rev) and
metrics (rows, seconds) — a re-run after a crash skips finished partitions
(reference analogue: tile-file-existence resume,
apps/gdalalg_raster_tile.cpp:676-682).

``--pipeline`` instead runs a '!'-chained step spec (pipelines/steps.py)
over the documents table, e.g.
    --pipeline "derive_geometry ! sql_filter where='n_chars >= 100' ! limit n=9"
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _git_rev(repo_root: str) -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=repo_root,
            capture_output=True, text=True, timeout=10).stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    g = ap.add_mutually_exclusive_group(required=True)
    g.add_argument("--query", help="queries() registry name (see __ray_entry__)")
    g.add_argument("--pipeline", help="'!'-chained step spec over documents")
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    ap.add_argument("--output", required=True, help="partitioned output root")
    ap.add_argument("--partitions", type=int, default=16,
                    help="hash partitions of the result (resume granularity)")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="only used when no Ray session exists yet")
    ap.add_argument("--progress", action="store_true",
                    help="GDAL-style terminal progress line on stderr")
    args = ap.parse_args()

    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.state.session import init_ray

    init_ray(num_cpus=args.num_cpus or None)

    t0 = time.time()
    if args.query:
        import __ray_entry__ as entrymod

        reg = entrymod.queries()
        if args.query not in reg:
            print(f"unknown query {args.query!r}; known: {sorted(reg)[:20]}...",
                  file=sys.stderr)
            return 2
        result = reg[args.query](args.sf_dir)
        job_name = args.query
    else:
        from gdal_ray.pipelines import steps
        from gdal_ray.sources.io import read_table

        docs = read_table(args.sf_dir, "documents")
        result = steps.run_pipeline(docs, args.pipeline)
        job_name = "pipeline"

    # normalize to a Dataset for the partitioned writer
    if isinstance(result, pa.Table):
        result = rd.from_arrow(result)
    elif not isinstance(result, rd.Dataset):
        result = rd.from_pandas(result)
    result = result.materialize()

    from gdal_ray.sources.io import write_partitioned

    P = args.partitions
    first_col = result.schema().names[0]

    def part_filter(ds, pid):
        import numpy as np

        want = int(pid)

        def sel(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            col = t[first_col]
            if pa.types.is_integer(col.type):
                k = col.to_numpy(zero_copy_only=False).astype(np.int64)
            else:
                # deterministic across processes (Python hash() is salted,
                # which would break cross-run resume)
                from gdal_ray.functions.arrowbuf import fnv1a_u64

                k = fnv1a_u64(pc.cast(col, pa.string())).view(np.int64)
            m = np.abs((k * np.int64(2654435761)) % np.int64(P)) == want
            return t.filter(pa.array(m))

        return ds.map_batches(sel, batch_format="pyarrow")

    lineage = {"query": job_name, "sf_dir": os.path.abspath(args.sf_dir),
               "git_rev": _git_rev(os.path.dirname(os.path.dirname(
                   os.path.abspath(__file__)))),
               "partitions": P}
    progress_cb = None
    if args.progress:
        from gdal_ray.state.progress import TermProgress

        progress_cb = TermProgress()
    written = write_partitioned(
        result, args.output, [str(i) for i in range(P)], part_filter,
        lineage=lineage, progress_callback=progress_cb)
    rows = result.count()
    print(json.dumps({
        "job": job_name, "rows": int(rows), "partitions": P,
        "partitions_written": len(written),
        "partitions_skipped": P - len(written),
        "seconds": round(time.time() - t0, 3),
        "output": os.path.abspath(args.output),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
