"""Local mimic of the driver's correctness gate.

Runs every queries() entry at sf0.01 and compares row count, schema, and an
order-insensitive value hash against the matching oracle_sql() via DuckDB.
Columns are sorted by name before hashing (the driver's documented behavior).

Usage: python scripts/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import sys
import time

import os

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(result, rd.Dataset):
            result = result.to_pandas()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        result = result.to_pandas()
    return result


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    # normalize dtypes the way a driver plausibly does: exact bytes of values,
    # rows sorted for order-insensitivity
    rows = df.astype(str).apply(lambda r: "\x1f".join(r.values), axis=1).tolist()
    digest = hashlib.sha256("\x1e".join(sorted(rows)).encode()).hexdigest()
    return digest


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    from gdal_ray.state.session import init_ray

    init_ray(num_cpus=8)

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = e.queries()
    oracles = e.oracle_sql()
    unknown = only - set(qs)
    if unknown:
        print(f"ERROR: unknown query name(s): {sorted(unknown)}")
        sys.exit(2)
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only {len(got)} rows ({dt:.1f}s)")
            continue
        exp = con.execute(oracles[name]).fetchdf()
        problems = []
        if len(got) != len(exp):
            problems.append(f"rows {len(got)} != {len(exp)}")
        if sorted(got.columns) != sorted(exp.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(exp.columns)}")
        elif value_hash(got) != value_hash(exp):
            problems.append("value-hash mismatch")
            # show a diff sample
            g = got[sorted(got.columns)].sort_values(sorted(got.columns)).reset_index(drop=True)
            x = exp[sorted(exp.columns)].sort_values(sorted(exp.columns)).reset_index(drop=True)
            if len(g) == len(x):
                neq = (g.astype(str) != x.astype(str)).any(axis=1)
                if neq.any():
                    i = neq.idxmax()
                    problems.append(f"first diff row {i}: got={g.iloc[i].to_dict()} exp={x.iloc[i].to_dict()}")
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)}")
            failures += 1
        else:
            print(f"PASS {name}: {len(got)} rows ({dt:.1f}s)")
    print("FAILURES:", failures)
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
