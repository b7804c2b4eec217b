import os

import numpy as np
import ray.data as rd

from raygraph.algorithms.pagerank import pagerank
from raygraph.graph import build_graph
from tests import fixtures as fx


def _graph(A, n, parts=5):
    verts = rd.from_arrow(fx.vertex_table(n))
    return build_graph(rd.from_arrow(fx.dense_to_edge_table(A)),
                       vertices_ds=verts, num_parts=parts, binarize=True)


def test_fused_matches_dataset_mode_and_oracle():
    A = fx.random_graph(64, 0.06, seed=3)
    A[10, :] = 0
    g = _graph(A, 64)
    r_ds, i_ds = pagerank(g, tol=1e-9, itermax=120, mode="dataset")
    r_fu, i_fu = pagerank(g, tol=1e-9, itermax=120, mode="fused")
    assert i_ds["iters"] == i_fu["iters"]
    for a, b in zip(r_ds, r_fu):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    want = fx.pagerank_3f_oracle(A, tol=1e-9, itermax=120)
    t = g.to_vertex_table(r_fu)
    got = dict(zip(t["v"].to_pylist(), t["val"].to_pylist()))
    np.testing.assert_allclose([got[i] for i in range(64)], want, atol=1e-6)


def test_fused_resume(tmp_path):
    A = fx.random_graph(48, 0.08, seed=5)
    g = _graph(A, 48)
    full, info_full = pagerank(g, tol=1e-9, itermax=60, mode="fused")
    ckpt = str(tmp_path / "ck")
    pagerank(g, tol=1e-9, itermax=7, ckpt_dir=ckpt, ckpt_every=3, mode="fused")
    resumed, info = pagerank(g, tol=1e-9, itermax=60, ckpt_dir=ckpt, mode="fused")
    for a, b in zip(full, resumed):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_fused_single_partition():
    A = fx.random_graph(16, 0.2, seed=1)
    g = _graph(A, 16, parts=1)
    r, _ = pagerank(g, tol=1e-9, itermax=80, mode="fused")
    want = fx.pagerank_3f_oracle(A, tol=1e-9, itermax=80)
    t = g.to_vertex_table(r)
    got = dict(zip(t["v"].to_pylist(), t["val"].to_pylist()))
    np.testing.assert_allclose([got[i] for i in range(16)], want, atol=1e-6)


def test_cc_fused_matches_dataset_and_oracle():
    from raygraph.algorithms.components import connected_components

    A = fx.cc_dense()
    # P=1 exercises the single-partition wave; P=16 over 12 vertices
    # leaves partitions with no vertices and no edges
    for parts in (4, 1, 16):
        verts = rd.from_arrow(fx.vertex_table(fx.CC_N))
        g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)),
                        vertices_ds=verts, num_parts=parts, symmetrize=True,
                        binarize=True)
        f_ds, _ = connected_components(g, mode="dataset")
        f_fu, _ = connected_components(g, mode="fused")
        for a, b in zip(f_ds, f_fu):
            np.testing.assert_array_equal(a, b)
        t = g.to_vertex_table(f_fu, "label")
        got = dict(zip(t["v"].to_pylist(), t["label"].to_pylist()))
        assert {int(k): int(v) for k, v in got.items()} == fx.CC_LABELS


def test_cc_fused_random_graph():
    from raygraph.algorithms.components import connected_components

    A = fx.random_graph(120, 0.02, seed=17, symmetric=True)
    verts = rd.from_arrow(fx.vertex_table(120))
    g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)), vertices_ds=verts,
                    num_parts=8, symmetrize=True, binarize=True)
    f, _ = connected_components(g, mode="fused")
    t = g.to_vertex_table(f, "label")
    got = dict(zip(t["v"].to_pylist(), t["label"].to_pylist()))
    want = fx.cc_oracle(A)
    assert [int(got[i]) for i in range(120)] == want.tolist()


def test_cc_fused_resume(tmp_path):
    from raygraph.algorithms.components import connected_components

    A = fx.random_graph(60, 0.05, seed=23, symmetric=True)
    verts = rd.from_arrow(fx.vertex_table(60))
    g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)), vertices_ds=verts,
                    num_parts=4, symmetrize=True, binarize=True)
    full, _ = connected_components(g, mode="fused")
    ckpt = str(tmp_path / "cc")
    connected_components(g, mode="fused", itermax=1, ckpt_dir=ckpt)
    resumed, _ = connected_components(g, mode="fused", ckpt_dir=ckpt)
    for a, b in zip(full, resumed):
        np.testing.assert_array_equal(a, b)


# ------------------------------------------------------- frontier sssp ----


def test_sssp_frontier_matches_dataset_mode():
    from raygraph.algorithms.paths import sssp

    rng = np.random.default_rng(41)
    A = fx.random_graph(80, 0.04, seed=41)
    W = A * np.round(rng.uniform(0.5, 9.5, A.shape), 3)
    verts = rd.from_arrow(fx.vertex_table(80))
    g = build_graph(rd.from_arrow(fx.dense_to_edge_table(W)),
                    vertices_ds=verts, num_parts=5)
    d_fr, i_fr = sssp(g, 0, mode="frontier")
    d_ds, i_ds = sssp(g, 0, mode="dataset")
    for a, b in zip(d_fr, d_ds):
        np.testing.assert_array_equal(a, b)  # bit-identical fixpoint
    # frontier relaxation must touch far fewer edges than D * nnz
    assert i_fr["edges_traversed"] < i_ds["edges_traversed"]


def test_sssp_frontier_scipy_oracle():
    from raygraph.algorithms.paths import sssp

    rng = np.random.default_rng(7)
    A = fx.random_graph(60, 0.06, seed=9)
    W = A * np.round(rng.uniform(1.0, 5.0, A.shape), 3)
    verts = rd.from_arrow(fx.vertex_table(60))
    g = build_graph(rd.from_arrow(fx.dense_to_edge_table(W)),
                    vertices_ds=verts, num_parts=4)
    d, _ = sssp(g, 3, mode="frontier")
    t = g.to_vertex_table(d, "dist")
    got = dict(zip(t["v"].to_pylist(), t["dist"].to_pylist()))
    # pure-numpy Bellman-Ford oracle
    n = 60
    want = np.full(n, np.inf)
    want[3] = 0.0
    src, dst = np.nonzero(W)
    for _ in range(n):
        cand = want[src] + W[src, dst]
        upd = np.full(n, np.inf)
        np.minimum.at(upd, dst, cand)
        new = np.minimum(want, upd)
        if (new == want).all():
            break
        want = new
    np.testing.assert_allclose([got[i] for i in range(n)], want, atol=1e-12)


def test_bfs_frontier_single_partition():
    from raygraph.algorithms.paths import bfs_levels

    A = fx.cc_dense()
    g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)), num_parts=1,
                    symmetrize=True, binarize=True)
    dist, _ = bfs_levels(g, 0, mode="frontier")
    t = g.to_vertex_table(dist, "dist")
    got = dict(zip(t["v"].to_pylist(), t["dist"].to_pylist()))
    want = {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2}
    for v, d in want.items():
        assert got[v] == d


def test_spmv_dataset_frontier_matches_full():
    """engine.spmv(frontier=...) processes only frontier rows."""
    from raygraph.engine import spmv

    A = fx.random_graph(40, 0.1, seed=13)
    verts = rd.from_arrow(fx.vertex_table(40))
    g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)),
                    vertices_ds=verts, num_parts=4)
    x = g.state(0.0)
    rng = np.random.default_rng(3)
    for s in x:
        s[:] = np.round(rng.uniform(0, 1, len(s)), 6)
    full = spmv(g, x, "min_plus")
    # frontier = every row -> identical to full spmv
    frontier = [np.arange(len(s), dtype=np.int64) for s in x]
    fr = spmv(g, x, "min_plus", frontier=frontier)
    for a, b in zip(full, fr):
        np.testing.assert_array_equal(a, b)
    # frontier = empty -> all identity
    empty = [np.empty(0, np.int64) for _ in x]
    fr0 = spmv(g, x, "min_plus", frontier=empty)
    for s in fr0:
        assert (s == np.inf).all()


def test_lpa_fused_matches_dataset_mode():
    from raygraph.algorithms.lpa import label_propagation

    A = fx.planted_partition(seed=29)
    n = A.shape[0]
    verts = rd.from_arrow(fx.vertex_table(n))
    g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)),
                    vertices_ds=verts, num_parts=5,
                    symmetrize=True, drop_self=True, binarize=True)
    l_fu, i_fu = label_propagation(g, itermax=8, mode="fused")
    l_ds, i_ds = label_propagation(g, itermax=8, mode="dataset")
    assert i_fu["iters"] == i_ds["iters"]
    for a, b in zip(l_fu, l_ds):
        np.testing.assert_array_equal(a, b)


def test_lpa_fused_single_partition():
    from raygraph.algorithms.lpa import label_propagation

    A = fx.planted_partition(seed=3)
    g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)), num_parts=1,
                    symmetrize=True, drop_self=True, binarize=True)
    l_fu, _ = label_propagation(g, itermax=5, mode="fused")
    l_ds, _ = label_propagation(g, itermax=5, mode="dataset")
    for a, b in zip(l_fu, l_ds):
        np.testing.assert_array_equal(a, b)


def test_lpa_checkpoint_resume_matches_uninterrupted(tmp_path):
    import pytest

    from raygraph import checkpoint as ck
    from raygraph.algorithms.lpa import label_propagation

    A = fx.planted_partition(seed=29)
    g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)), num_parts=5,
                    symmetrize=True, drop_self=True, binarize=True)
    full, i_full = label_propagation(g, itermax=8)
    assert i_full["iters"] > 2
    ckpt = str(tmp_path / "lpa")
    label_propagation(g, itermax=2, ckpt_dir=ckpt)  # interrupted
    assert ck.latest_iter(ckpt) == 1
    resumed, info = label_propagation(g, itermax=8, ckpt_dir=ckpt)
    assert info["iters"] == i_full["iters"]
    for a, b in zip(full, resumed):
        np.testing.assert_array_equal(a, b)
    _, lineage = ck.read_iter(ckpt, ck.latest_iter(ckpt), g)
    assert lineage["algorithm"] == "lpa"
    assert lineage["iter"] + 1 == info["iters"]
    # only the fused path checkpoints: the Dataset loop refuses a ckpt_dir
    with pytest.raises(ValueError):
        label_propagation(g, itermax=2, ckpt_dir=ckpt, mode="dataset")


def test_lpa_fused_directed_source_and_sink_partitions():
    # regression: (a) a partition with out-edges but NO in-packets must
    # still re-scatter its (unchanged) labels every round — receivers
    # recount in-neighbor labels from scratch, so a skipped scatter
    # silently drops those edges from the argmax; (b) a vertex-holding
    # partition with ZERO out-edges has an empty block whose scatter
    # previously raised IndexError. A directed bipartite graph keyed by
    # the real partitioner exercises both.
    import pyarrow as pa

    from raygraph.algorithms.lpa import label_propagation
    from raygraph.util import part_of

    P = 4
    ids = np.arange(1, 400, dtype=np.uint64)
    parts = part_of(ids, P)
    src_ids = ids[parts == 0][:12]
    dst_ids = ids[parts == 1][:12]
    assert len(src_ids) >= 5 and len(dst_ids) >= 5
    src = np.repeat(src_ids, len(dst_ids))
    dst = np.tile(dst_ids, len(src_ids))
    edges = pa.table({"src": src, "dst": dst,
                      "w": np.ones(len(src), np.float64)})
    verts = pa.table({"v": np.concatenate([src_ids, dst_ids])})
    g = build_graph(rd.from_arrow(edges), vertices_ds=rd.from_arrow(verts),
                    num_parts=P, binarize=True)
    l_fu, _ = label_propagation(g, itermax=5, mode="fused")
    l_ds, _ = label_propagation(g, itermax=5, mode="dataset")
    for a, b in zip(l_fu, l_ds):
        np.testing.assert_array_equal(a, b)


def test_fused_p256_driver_overhead_smoke():
    """P=256 smoke (SCALE.md round-5 note): the fused engine's per-
    iteration work at P=256 (W group tasks per wave, P² packet header
    rows inside W×W flat packets) stays bounded, and the result matches
    the P=5 partitioning bit-for-bit at the vertex level
    (partition-count invariance).

    The timing check is a generous ABSOLUTE runaway-regression ceiling,
    not a perf measurement: wall here tracks the host's task-dispatch
    latency, which varied 0.3-7 s/iter across sandbox VMs when each wave
    was 256 tasks, while the P=5 leg is 0.05 s noise — a relative bound
    flakes across boxes (it did, r5)."""
    import time

    import pyarrow as pa

    from raygraph.util import mix64

    rng_i = np.arange(30_000, dtype=np.uint64)
    src = mix64(rng_i) % np.uint64(5_000)
    dst = mix64(rng_i ^ np.uint64(0xABCD)) % np.uint64(5_000)
    edges = pa.table({"src": src, "dst": dst})
    g256 = build_graph(rd.from_arrow(edges), num_parts=256, dup_op="first",
                       binarize=True)
    t0 = time.perf_counter()
    iters = 5
    r256, info = pagerank(g256, tol=0.0, itermax=iters, mode="fused",
                          check_every=99)
    per_iter = (time.perf_counter() - t0) / iters
    assert info["iters"] == iters
    g5 = build_graph(rd.from_arrow(edges), num_parts=5, dup_op="first",
                     binarize=True)
    r5, _ = pagerank(g5, tol=0.0, itermax=iters, mode="fused",
                     check_every=99)
    # runaway guard only: an O(P²)→O(P³) bookkeeping regression would put
    # this in minutes/iter; host-speed variance stays well under 20 s.
    assert per_iter < 20.0, \
        f"per-iteration wall {per_iter:.2f}s at P=256 (runaway ceiling 20s)"
    a = g256.to_vertex_table(r256)
    b = g5.to_vertex_table(r5)
    assert a["v"].to_pylist() == b["v"].to_pylist()
    np.testing.assert_allclose(a["val"].to_numpy(), b["val"].to_numpy(),
                               rtol=0, atol=1e-12)


# ------------------------------------------------------------ groups ----


def _group_graphs(P):
    """A weighted digraph with a sink row and an isolated vertex, its
    binarized form, transpose and symmetrization, at P partitions."""
    from raygraph import kernels as K

    rng = np.random.default_rng(41)
    A = fx.random_graph(50, 0.07, seed=41) * rng.uniform(0.5, 4.0, (50, 50))
    A[9, :] = 0
    A[:, 33] = A[33, :] = 0
    edges = rd.from_arrow(fx.dense_to_edge_table(A))
    verts = rd.from_arrow(fx.vertex_table(50))
    kw = dict(vertices_ds=verts, num_parts=P)
    return {"g": build_graph(edges, **kw),
            "gb": build_graph(edges, binarize=True, **kw),
            "gT": build_graph(K.transpose(edges), binarize=True, **kw),
            "s": build_graph(edges, symmetrize=True, binarize=True, **kw)}


def _run_fused_algorithms(gs):
    """Outputs (and iteration counts) of all nine fused algorithms."""
    import raygraph.fused as F
    from raygraph.algorithms.hits import hits_fused
    from raygraph.algorithms.katz import katz_fused
    from raygraph.algorithms.pagerank import pagerank_dangling_fused
    from raygraph.algorithms.salsa import salsa_fused
    from raygraph.algorithms.scc import scc_fused

    g, gb, gT, s = gs["g"], gs["gb"], gs["gT"], gs["s"]
    ppr = [(i % 3 == 0).astype(np.float64) for i in gb.ids_slices()]
    ppr = [p / sum(float(x.sum()) for x in ppr) for p in ppr]
    out = {}
    for ce in (1, 4):
        out[f"pagerank/{ce}"] = F.pagerank_fused(gb, tol=1e-10, itermax=60,
                                                 check_every=ce)
    out["ppr"] = F.pagerank_fused(gb, tol=1e-10, itermax=60, check_every=4,
                                  personalization=ppr)
    out["weighted"] = F.pagerank_fused(g, tol=1e-10, itermax=60, weighted=True)
    out["cc"] = F.cc_fused(s)
    out["lpa"] = F.lpa_fused(s, s.ids_slices(), itermax=6)
    out["sssp"] = F.sssp_frontier(g, 0)
    out["katz"] = (katz_fused(gb), {})
    out["hits"] = (hits_fused(gb, gT), {})
    out["salsa"] = (salsa_fused(gb, gT), {})
    out["scc"] = (scc_fused(gb, gT), {})
    out["dangling"] = (pagerank_dangling_fused(gb), {})
    return out


def _assert_bit_equal(a, b, what):
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), what
        for x, y in zip(a, b):
            _assert_bit_equal(x, y, what)
    else:
        assert a.dtype == b.dtype and np.array_equal(a, b), what


def test_results_do_not_depend_on_group_count(monkeypatch):
    """W (the number of group tasks per wave) only sets the fan-out:
    every fused algorithm returns the same bits and iteration count at
    any W as with one group per partition."""
    import raygraph.fused as F

    for P in (1, 5, 16):
        gs = _group_graphs(P)
        runs = {}
        for W in sorted({1, 2, 3, P}, reverse=True):  # W=P first
            monkeypatch.setattr(F, "_n_groups", lambda parts, W=W: min(W, parts))
            runs[W] = _run_fused_algorithms(gs)
            info = runs[W]["pagerank/1"][1]
            assert info["groups"] == min(W, P)
        for W, got in runs.items():
            for name, (res, info) in got.items():
                want, want_info = runs[P][name]
                _assert_bit_equal(res, want, f"P={P} W={W} {name}")
                assert info.get("iters") == want_info.get("iters"), (P, W, name)


def test_checkpoint_resumes_across_group_counts(tmp_path, monkeypatch):
    """A checkpoint written at one group count resumes at another, bit
    for bit: the layout is one file per partition, whatever W wrote it."""
    import raygraph.fused as F

    g = _group_graphs(5)["gb"]
    full, info_full = F.pagerank_fused(g, tol=1e-10, itermax=80)
    for w_write, w_resume in ((1, 3), (3, 1)):
        ckpt = str(tmp_path / f"w{w_write}")
        monkeypatch.setattr(F, "_n_groups", lambda parts, W=w_write: min(W, parts))
        F.pagerank_fused(g, tol=1e-10, itermax=6, ckpt_dir=ckpt, ckpt_every=2)
        assert sorted(os.listdir(os.path.join(ckpt, "iter=5"))) == \
            ["_SUCCESS", "_lineage.json"] + [f"state_p{p:05d}.parquet" for p in range(5)]
        monkeypatch.setattr(F, "_n_groups", lambda parts, W=w_resume: min(W, parts))
        resumed, info = F.pagerank_fused(g, tol=1e-10, itermax=80, ckpt_dir=ckpt)
        _assert_bit_equal(resumed, full, f"W {w_write} -> {w_resume}")
        assert info["iters"] == info_full["iters"]


def test_free_caches_drops_every_group_cache():
    import raygraph.fused as F

    g = _group_graphs(5)["g"]
    F.pagerank_fused(g, tol=1e-8, itermax=5, weighted=True)
    F.pagerank_fused(g, tol=1e-8, itermax=5)
    F.sssp_frontier(g, 0)
    assert all(getattr(g, a) is not None for a in F.CACHE_ATTRS)
    g.free_caches()
    assert g._fused_cache_w is None
    assert all(getattr(g, a) is None for a in F.CACHE_ATTRS)
