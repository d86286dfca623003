"""Scale gate: no NEW driver-side materialization of corpus-derived data.

Every ``take_all()`` / ``to_pandas()`` call site in the library must be on
the reviewed allowlist below — each entry is a documented BOUNDED fold
(fixed-size bucket/codebook/zone/tile tables, per-pair border keys, sampled
training rows) or an explicitly size-gated API.  Adding a new collect site
fails this test until it is reviewed and listed; removing one should prune
the list.  This is the round-2 review's requested grep gate
(VERDICT "no unbounded take_all/to_pandas of a corpus-derived dataset
outside documented metadata-sized folds").
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (path, enclosing function) -> why it is bounded
ALLOWED = {
    # per-tile-border component pairs / components: O(tiles), not O(pixels)
    ("gdal_ray/stages/collar.py", "nearblack"),
    # corner-pixel sample: tile (0,0) only -> O(1) rows
    ("gdal_ray/stages/contour.py", "contour_polygons_interp"),
    # rank-encodes the already-broadcast SMALL asof right table (pa column
    # in driver memory by contract), not a Dataset collect
    ("gdal_ray/stages/events.py", "_rank_codes"),
    # O(bins)-per-round histogram folds + distinct-count-GUARDED value
    # histograms (the round-4 continuous-quantile bounded plan)
    ("gdal_ray/stages/relational.py", "exact_quantiles"),
    # (asof_join's former to_pandas collect removed in r3 — the broadcast
    # right side now ships as numpy key/ts/emit arrays)
    # 256-entry color histogram partials
    ("gdal_ray/stages/fillpalette.py", "color_histogram"),
    # per-cell count table (grid-sized)
    ("gdal_ray/stages/join.py", "compute_hot_cells"),
    # 3-row per-kind inventory folds
    ("gdal_ray/stages/media.py", "media_inventory"),
    # O(#chunks) 4-int summary partials (metadata-scale, never pixels)
    ("gdal_ray/stages/mdim.py", "mdim_compare"),
    # fixture-file reassembly (192x192 asc); bulk consumers use
    # read_sozip_chunks streaming, not a driver collect
    ("gdal_ray/pipelines/queries.py", "sozip_roundtrip_q"),
    # cross-tile union-find edges: O(tile borders), and only up to
    # DRIVER_MERGE_MAX_PAIRS of them (above it the merge runs distributed)
    ("gdal_ray/stages/polygonize.py", "_component_labels"),
    # small-component subgraph of the sieve merge loop
    ("gdal_ray/stages/polygonize.py", "sieve_global"),
    # per-tile checksum folds
    ("gdal_ray/stages/rasterize.py", "mosaic_checksum"),
    ("gdal_ray/stages/rasterize.py", "assemble_array"),
    ("gdal_ray/stages/rastermap.py", "band_stats"),
    ("gdal_ray/stages/rastermap.py", "histogram"),
    ("gdal_ray/stages/rastermap.py", "equalize"),
    # per-block offset table: O(blocks)
    ("gdal_ray/stages/relational.py", "global_prefix_sum"),
    # per-id-bucket ts maxima: O(id_range / bucket_size), the prefix-MAX
    # twin of global_prefix_sum's offset table
    ("gdal_ray/stages/events.py", "late_event_windows"),
    # size-gated API: raises above COSINE_BRUTE_MAX_ROWS
    ("gdal_ray/stages/sim.py", "cosine_neardup_pairs"),
    # bounded training sample (limit(train_sample))
    ("gdal_ray/stages/sim.py", "ivf_topk"),
    # O(k x d) centroid partials per iteration
    ("gdal_ray/stages/sim.py", "kmeans_assign"),
    ("gdal_ray/stages/sim.py", "_pq_train"),
    # constant-size sketch / per-doc stat helpers (batch-level, not Dataset)
    ("gdal_ray/stages/textops.py", "ngram_decontaminate_batch"),
    ("gdal_ray/stages/textops.py", "repetition_stats_batch"),
    # fixed n_buckets fold (the documented metadata-sized broadcast side)
    ("gdal_ray/stages/textops.py", "fold_bucket_table"),
    # tree-reduced O(zones) final vector
    ("gdal_ray/stages/zonal.py", "zonal_stats_dense"),
    # limit(top_k) applied upstream -> collect is <= top_k rows
    ("gdal_ray/stages/textops.py", "train_char_ngram_counts"),
    # 5-row / quantile-sized / per-tile-checksum query-level folds
    ("gdal_ray/pipelines/queries.py", "left_join_orders_q"),
    ("gdal_ray/pipelines/queries.py", "tile_pyramid_q"),
    # per-tile fragment table for overview build: O(tiles)
    ("gdal_ray/sources/gtiff.py", "gtiff_build_overviews"),
    # part-path manifest rows: O(parts), not O(features)
    ("gdal_ray/pipelines/queries.py", "flatgeobuf_roundtrip_q"),
}


def _collect_sites():
    sites = set()
    for root, _, files in os.walk(os.path.join(REPO, "gdal_ray")):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(root, f)
            rel = os.path.relpath(path, REPO)
            with open(path) as fh:
                tree = ast.parse(fh.read())

            def walk(node, fn):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = node.name
                if isinstance(node, ast.Attribute) and node.attr in (
                        "take_all", "to_pandas"):
                    sites.add((rel, fn))
                for c in ast.iter_child_nodes(node):
                    walk(c, fn)

            walk(tree, "<module>")
    return sites


def test_no_new_driver_collect_sites():
    sites = _collect_sites()
    new = sites - ALLOWED
    assert not new, (
        f"new driver-side collect sites need scale review (is the collected "
        f"table bounded independent of corpus size?) then an ALLOWED entry: "
        f"{sorted(new)}"
    )
    stale = ALLOWED - sites
    assert not stale, f"prune removed sites from ALLOWED: {sorted(stale)}"


def test_run_job_resume_skips_finished_partitions(ray_session, tmp_path, monkeypatch):
    """scripts/run_job.py (the ray-job-submit entry): partitioned output +
    manifest lineage; a re-run skips every finished partition."""
    import importlib
    import json
    import sys

    sys.path.insert(0, "/root/repo/scripts")
    run_job = importlib.import_module("run_job")
    out = str(tmp_path / "job")

    def run():
        monkeypatch.setattr(sys, "argv", [
            "run_job.py", "--query", "distinct_segments",
            "--sf-dir", "/root/testdata/sf0.001", "--output", out,
            "--partitions", "4"])
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert run_job.main() == 0
        return json.loads(buf.getvalue().strip().splitlines()[-1])

    first = run()
    assert first["partitions_written"] == 4 and first["rows"] == 5
    second = run()
    assert second["partitions_written"] == 0 and second["partitions_skipped"] == 4
    man = json.load(open(f"{out}/_manifest/1.json"))
    assert man["lineage"]["query"] == "distinct_segments"
    assert "seconds" in man["metrics"]
