"""Local replica of the driver's correctness gate: run every queries()
entry and compare against oracle_sql() via DuckDB (row count + sorted
column names + order-insensitive value hash).

Usage: python scripts/selfcheck.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pandas as pd


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = np.round(df[c].astype(np.float64), 9)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    # order-insensitive: sort by all columns
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def to_pandas(x) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(x, pd.DataFrame):
        return x
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x.to_pandas()  # ray Dataset


# the checkout this script belongs to: the driver imports it from here and
# the workers get it on PYTHONPATH, so both run the same tree
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    sys.path.insert(0, ROOT)
    import ray

    if not ray.is_initialized():
        pypath = os.pathsep.join(
            [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": pypath}})
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import duckdb

    import __ray_entry__ as entrymod

    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            mine = normalize(to_pandas(fn(sf)))
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            failures.append(name)
            continue
        if name not in oracles:
            print(f"ok(rows-only) {name}: {len(mine)} rows")
            continue
        want = normalize(con.execute(oracles[name]).df())
        if list(mine.columns) != list(want.columns):
            print(f"FAIL {name}: columns {list(mine.columns)} != {list(want.columns)}")
            failures.append(name)
            continue
        if len(mine) != len(want):
            print(f"FAIL {name}: rows {len(mine)} != {len(want)}")
            failures.append(name)
            continue
        eq = True
        for c in mine.columns:
            a, b = mine[c].to_numpy(), want[c].to_numpy()
            if np.issubdtype(a.dtype, np.floating) or np.issubdtype(b.dtype, np.floating):
                ok = np.allclose(a.astype(np.float64), b.astype(np.float64),
                                 atol=1e-9, equal_nan=True)
            else:
                ok = (a == b).all()
            if not ok:
                bad = np.flatnonzero(~(a == b) if a.dtype == b.dtype else
                                     ~np.isclose(a.astype(float), b.astype(float)))[:3]
                print(f"FAIL {name}: col {c} mismatch at rows {bad.tolist()}"
                      f" mine={a[bad]} want={b[bad]}")
                eq = False
                break
        if eq:
            print(f"OK {name}: {len(mine)} rows")
        else:
            failures.append(name)
    print("\n%d/%d failed" % (len(failures), len([n for n in qs if not only or n in only])))
    if failures:
        print("failures:", failures)
        sys.exit(1)


if __name__ == "__main__":
    main()
