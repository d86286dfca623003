"""A/B comparison of two checkouts on one perfbench workload.

Usage (from anywhere):

    python scripts/perf_ab.py PARENT_DIR CHANGE_DIR --workload zonal_rect --seeds 11-15

For each seed, runs ``perfbench/run.py`` in both checkouts for the
``run_seconds`` that CHANGE_DIR's ``BENCHMARK.json`` sets, one after the
other, alternating which goes first (parent first on even pair indices), so
host drift hits both sides alike.  Prints, per metric, the parent's median
and interquartile range, the change's median, their ratio and the number of
pairs the change won (from the metric's ``better`` direction in
``BENCHMARK.json``), then the unscaled figures from the header and whether
the output digests are equal on every seed.  A digest covers the first pass
over perfbench's input pool, so a run too short to finish that pass digests
fewer batches and need not match; the fewest batches in any run is printed
beside it.  Exits non-zero when a run fails, a run reports incorrect output,
or the digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# header["unscaled"] keys with their direction; the scaled ones come from
# BENCHMARK.json
UNSCALED = {"items_per_s": "higher", "batch_p50_ms": "lower", "speed_factor_p50": None}


def parse_seeds(text: str) -> list:
    """'11-15' -> [11, ..., 15]; '7' -> [7]."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its header, result and return code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        return {"returncode": proc.returncode or 1, "header": {}, "result": {}}
    return {"returncode": 0, "header": json.loads(lines[-2])["header"],
            "result": json.loads(lines[-1])}


def directions(spec: dict) -> dict:
    """metric name -> 'higher' / 'lower', from a BENCHMARK.json."""
    return {m["name"]: m.get("better") for m in spec["end_to_end"] + spec.get("per_layer", [])}


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def summarize(pairs: list, better: dict) -> list:
    """Rows of (metric, parent median, parent IQR, change median, ratio,
    wins or None) over the (parent run, change run) pairs."""
    rows = []

    def row(name, a, b, direction):
        ma, mb = statistics.median(a), statistics.median(b)
        if direction is None:
            wins = None
        else:
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        rows.append((name, ma, iqr(a), mb, mb / ma if ma else float("nan"), wins))

    names = pairs[0][0]["result"]["metrics"]
    for name in names:
        a = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
        b = [c["result"]["metrics"][name]["value"] for _, c in pairs]
        row(name, a, b, better.get(name))
    for name, direction in UNSCALED.items():
        a = [p["header"]["unscaled"][name] for p, _ in pairs]
        b = [c["header"]["unscaled"][name] for _, c in pairs]
        row(f"unscaled.{name}", a, b, direction)
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 11-15")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    pairs = []
    for k, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_once(getattr(args, side), args.workload, seed, seconds, args.trace)
            print(f"seed {seed} {side}: rc={runs[side]['returncode']}", file=sys.stderr)
        pairs.append((runs["parent"], runs["change"]))

    failed = sum(bool(r["returncode"]) or not r["result"].get("correct")
                 for pair in pairs for r in pair)
    if failed:
        print(f"{failed} run(s) failed or reported incorrect output")
        return 1
    print(f"{args.workload}: {len(pairs)} pairs, trace={args.trace}")
    print(f"{'metric':40s} {'parent':>12s} {'IQR':>10s} {'change':>12s} {'ratio':>7s} wins")
    for name, ma, q, mb, ratio, wins in summarize(pairs, directions(spec)):
        w = "-" if wins is None else f"{wins}/{len(pairs)}"
        print(f"{name:40s} {ma:12.4g} {q:10.3g} {mb:12.4g} {ratio:7.3f} {w}")
    same = [a["header"]["output_digest"] == b["header"]["output_digest"] for a, b in pairs]
    fewest = min(r["header"]["batches"] for pair in pairs for r in pair)
    print(f"output_digest equal: {sum(same)}/{len(same)} seeds (fewest batches in a run: {fewest})")
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
