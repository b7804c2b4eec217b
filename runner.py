"""CLI entrypoint — what `ray job submit -- python runner.py ...` runs.

Owns the Ray session (library code never calls ray.init). Subcommands:

  synth   --out DIR --pages N [--seed S]         generate a pages table
  run     --pages DIR --algo pagerank|cc|lpa|triangles
          [--ckpt DIR] [--num-parts P] [--tol T] [--out DIR]

`run` builds the link graph from the pages table (extract -> resolve ->
CSR blocks), executes the algorithm with per-iteration checkpoints, and
writes the result vertex table as partitioned Parquet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_synth(args):
    _init_ray()
    from raygraph.synth import write_pages

    write_pages(args.out, args.pages, pages_per_site=args.pages_per_site, seed=args.seed)
    print(json.dumps({"out": args.out, "pages": args.pages}))


def cmd_run(args):
    _init_ray()
    import numpy as np
    import ray.data as rd

    from raygraph.graph import build_graph, edges_from_pages

    t0 = time.perf_counter()
    pages = rd.read_parquet(args.pages)
    urls = rd.read_parquet(args.pages, columns=["url"])
    extracted, links, verts = edges_from_pages(pages, urls_ds=urls)
    sym = args.algo in ("cc", "lpa", "triangles")
    g = build_graph(
        links,
        vertices_ds=verts,
        num_parts=args.num_parts,
        dup_op="plus",
        binarize=True,
        symmetrize=sym,
        drop_self=sym,
    )
    t_build = time.perf_counter() - t0

    t1 = time.perf_counter()
    slices = None
    if args.algo == "pagerank":
        from raygraph.algorithms.pagerank import pagerank

        slices, info = pagerank(g, tol=args.tol, itermax=args.itermax,
                                ckpt_dir=args.ckpt, mode=args.mode)
        col = "score"
    elif args.algo == "cc":
        from raygraph.algorithms.components import connected_components

        slices, info = connected_components(g, ckpt_dir=args.ckpt)
        col = "label"
    elif args.algo == "lpa":
        from raygraph.algorithms.lpa import label_propagation

        slices, info = label_propagation(g, itermax=args.itermax, ckpt_dir=args.ckpt)
        col = "label"
    else:
        from raygraph.algorithms.triangles import triangle_count

        import pyarrow as pa

        info = {}
        result = pa.table({"triangles": pa.array([triangle_count(g)])})
    t_algo = time.perf_counter() - t1

    if args.out:
        if slices is not None:
            # per-partition parquet written from tasks; the vertex table
            # never materializes on the driver
            g.write_vertex_parquet(slices, args.out, col)
        else:
            rd.from_arrow(result).write_parquet(args.out)
    print(json.dumps({
        "algo": args.algo,
        "n_vertices": g.n_vertices,
        "nnz": g.nnz,
        "build_s": round(t_build, 3),
        "algo_s": round(t_algo, 3),
        "info": {k: v for k, v in info.items() if not isinstance(v, list)},
    }))
    import ray

    ray.shutdown()


def main(argv=None):
    p = argparse.ArgumentParser(prog="raygraph")
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("synth")
    ps.add_argument("--out", required=True)
    ps.add_argument("--pages", type=int, default=10_000)
    ps.add_argument("--pages-per-site", type=int, default=100)
    ps.add_argument("--seed", type=int, default=42)
    ps.set_defaults(fn=cmd_synth)

    pr = sub.add_parser("run")
    pr.add_argument("--pages", required=True)
    pr.add_argument("--algo", choices=["pagerank", "cc", "lpa", "triangles"],
                    default="pagerank")
    pr.add_argument("--ckpt", default=None)
    pr.add_argument("--out", default=None)
    pr.add_argument("--num-parts", type=int, default=None)
    pr.add_argument("--tol", type=float, default=1e-6)
    pr.add_argument("--itermax", type=int, default=100)
    pr.add_argument("--mode", choices=["dataset", "fused"], default="fused")
    pr.set_defaults(fn=cmd_run)

    args = p.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main()
