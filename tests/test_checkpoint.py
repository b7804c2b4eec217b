import os

import numpy as np
import ray.data as rd

from raygraph import checkpoint as ck
from raygraph.algorithms.components import connected_components
from raygraph.algorithms.pagerank import pagerank
from raygraph.graph import build_graph
from tests import fixtures as fx


def _graph(tmp_seed=3, n=48):
    A = fx.random_graph(n, 0.08, seed=tmp_seed)
    verts = rd.from_arrow(fx.vertex_table(n))
    return build_graph(rd.from_arrow(fx.dense_to_edge_table(A)),
                       vertices_ds=verts, num_parts=4, binarize=True)


def test_pagerank_resume_bit_identical(tmp_path):
    g = _graph()
    full, info_full = pagerank(g, tol=1e-9, itermax=60)

    ckpt = str(tmp_path / "ck")
    # "kill" after 5 iterations
    part, _ = pagerank(g, tol=1e-9, itermax=5, ckpt_dir=ckpt)
    assert ck.latest_iter(ckpt) == 4
    # resume to convergence from the checkpoint
    resumed, info = pagerank(g, tol=1e-9, itermax=60, ckpt_dir=ckpt, resume=True)
    for a, b in zip(full, resumed):
        np.testing.assert_array_equal(a, b)  # FP64 partials -> bit-for-bit
    assert info["iters"] == info_full["iters"]
    # lineage metadata is present and complete
    last = ck.latest_iter(ckpt)
    state, lineage = ck.read_iter(ckpt, last, g)
    assert lineage["algorithm"] == "pagerank_3f"
    assert lineage["residual"] == info["residual"]
    assert lineage["input_fingerprint"] == ck.graph_fingerprint(g)
    assert os.path.exists(os.path.join(ckpt, "graph", "meta.json"))


def test_pagerank_converged_checkpoint_short_circuits(tmp_path):
    g = _graph()
    ckpt = str(tmp_path / "ck2")
    r1, i1 = pagerank(g, tol=1e-6, itermax=60, ckpt_dir=ckpt)
    r2, i2 = pagerank(g, tol=1e-6, itermax=60, ckpt_dir=ckpt, resume=True)
    assert i2.get("resumed")
    for a, b in zip(r1, r2):
        np.testing.assert_array_equal(a, b)


def test_graph_save_load_round_trip(tmp_path):
    g = _graph()
    ck.save_graph(g, str(tmp_path))
    g2 = ck.load_graph(str(tmp_path))
    assert g2.num_parts == g.num_parts
    assert g2.nnz == g.nnz
    assert np.array_equal(g2.sizes, g.sizes)
    r1, _ = pagerank(g, tol=1e-8, itermax=30)
    r2, _ = pagerank(g2, tol=1e-8, itermax=30)
    for a, b in zip(r1, r2):
        np.testing.assert_array_equal(a, b)


def test_cc_resume(tmp_path):
    A = fx.cc_dense()
    g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)), num_parts=4,
                    symmetrize=True, binarize=True)
    ckpt = str(tmp_path / "cc")
    f1, _ = connected_components(g, itermax=1, ckpt_dir=ckpt)  # interrupted
    f2, info = connected_components(g, ckpt_dir=ckpt, resume=True)
    full, _ = connected_components(g)
    for a, b in zip(full, f2):
        np.testing.assert_array_equal(a, b)


def test_write_iter_accepts_object_refs(tmp_path):
    # fused algorithms hand write_iter per-partition ObjectRefs; the state
    # must round-trip without the driver ever holding the arrays
    import ray

    g = _graph()
    slices = [np.arange(int(s), dtype=np.float64) + p for p, s in enumerate(g.sizes)]
    refs = [ray.put(s) for s in slices]
    ck.write_iter(str(tmp_path), 2, g, {"r": refs}, {"residual": 0.5})
    state, lineage = ck.read_iter(str(tmp_path), 2, g)
    for a, b in zip(slices, state["r"]):
        np.testing.assert_array_equal(a, b)
    assert lineage["residual"] == 0.5
    # layout is one file per partition (resumable / task-written)
    files = [f for f in os.listdir(str(tmp_path / "iter=2")) if f.endswith(".parquet")]
    assert len(files) == g.num_parts


def test_write_vertex_parquet_matches_driver_decode(tmp_path):
    import pyarrow.parquet as pq

    g = _graph()
    r, _ = pagerank(g, tol=1e-8, itermax=30)
    out = str(tmp_path / "scores")
    g.write_vertex_parquet(r, out, "score")
    got = pq.read_table(out).sort_by("v")
    want = g.to_vertex_table(r, "score")
    np.testing.assert_array_equal(got["v"].to_numpy(), want["v"].to_numpy())
    np.testing.assert_array_equal(got["score"].to_numpy(), want["score"].to_numpy())


def test_latest_iter_survives_crash_in_commit_window(tmp_path):
    # a crash between writing _SUCCESS and the rename used to leave a dir
    # whose name parsed as int('K.tmp') and broke every later resume
    import os

    from raygraph import checkpoint as ck2

    d = str(tmp_path)
    ok = os.path.join(d, "iter=3")
    os.makedirs(ok)
    open(os.path.join(ok, "_SUCCESS"), "w").close()
    # legacy-style tmp dir that startswith('iter=') but is not a valid K
    stale_legacy = os.path.join(d, "iter=5.tmp")
    os.makedirs(stale_legacy)
    open(os.path.join(stale_legacy, "_SUCCESS"), "w").close()
    # current-style tmp dir mid-commit
    stale = os.path.join(d, "_tmp_iter_7")
    os.makedirs(stale)
    open(os.path.join(stale, "_SUCCESS"), "w").close()
    assert ck2.latest_iter(d) == 3
    assert not os.path.exists(stale)  # garbage-collected on resume


def test_fingerprint_detects_same_shape_different_edges(tmp_path):
    # counts-only fingerprints let a rebuilt graph with identical
    # (P, n, nnz) but different edges resume silently; the content
    # checksum must tell them apart and save_graph must rewrite
    import pyarrow as pa

    n = 24
    A = fx.random_graph(n, 0.15, seed=5)
    B = A.copy()
    # swap one edge: same nnz, same vertices, different content
    r, c = np.nonzero(B)
    B[r[0], c[0]] = 0.0
    free = np.argwhere(B == 0)
    for i, j in free:
        if i != j and (i, j) != (r[0], c[0]):
            B[i, j] = 1.0
            break
    verts = rd.from_arrow(fx.vertex_table(n))
    ga = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)),
                     vertices_ds=verts, num_parts=4, binarize=True)
    gb = build_graph(rd.from_arrow(fx.dense_to_edge_table(B)),
                     vertices_ds=verts, num_parts=4, binarize=True)
    assert (ga.num_parts, ga.n_vertices, ga.nnz) == (gb.num_parts, gb.n_vertices, gb.nnz)
    fa, fb = ck.graph_fingerprint(ga), ck.graph_fingerprint(gb)
    assert fa != fb
    # fingerprint is stable for the same graph (cached and recomputed)
    ga._fingerprint_cache = None
    assert ck.graph_fingerprint(ga) == fa
    # save A's graph, then save B's into the same dir: must rewrite, and
    # A's stale iter dirs must be refused on resume, not silently reused
    d = str(tmp_path / "ck")
    ck.save_graph(ga, d)
    ck.write_iter(d, 0, ga, {"x": [np.zeros(int(s)) for s in ga.sizes]},
                  {"residual": 1.0})
    ck.save_graph(gb, d)
    import json
    with open(os.path.join(d, "graph", "meta.json")) as f:
        assert json.load(f)["fingerprint"] == fb
    # A's stale iter dirs are REMOVED on the rewrite (not left to hard-fail
    # read_iter): a resume=True run now restarts from iteration 0 in-band
    assert not os.path.exists(os.path.join(d, "iter=0"))
    assert ck.latest_iter(d) is None


def test_build_graph_empty_input_is_valid():
    import pyarrow as pa

    edges = pa.table({"src": np.empty(0, np.uint64),
                      "dst": np.empty(0, np.uint64),
                      "w": np.empty(0, np.float64)})
    g = build_graph(rd.from_arrow(edges), num_parts=4)
    assert g.n_vertices == 0 and g.nnz == 0
    assert g.blocks is not None
    assert all(len(s) == 0 for s in g.ids_slices())
    from raygraph.engine import spmv
    out = spmv(g, g.state(0.0), "plus_times")
    assert sum(len(s) for s in out) == 0


def test_resume_refuses_checkpoint_of_other_parameters(tmp_path):
    # a converged damping-0.85 checkpoint used to be returned unchanged
    # ("resumed") to a call asking for damping 0.9 or weighted=True
    import pytest

    g = _graph()
    ckpt = str(tmp_path / "ck")
    _, i1 = pagerank(g, tol=1e-6, itermax=60, ckpt_dir=ckpt)
    assert not i1.get("resumed")
    with pytest.raises(ValueError, match="damping"):
        pagerank(g, damping=0.9, tol=1e-6, itermax=60, ckpt_dir=ckpt)
    with pytest.raises(ValueError, match="weighted"):
        pagerank(g, tol=1e-6, itermax=60, ckpt_dir=ckpt, weighted=True)
    with pytest.raises(ValueError, match="fastsv"):
        connected_components(g, ckpt_dir=ckpt)
    # the matching call still resumes, and resume=False starts afresh
    _, i2 = pagerank(g, tol=1e-6, itermax=60, ckpt_dir=ckpt)
    assert i2.get("resumed")
    _, i3 = pagerank(g, damping=0.9, tol=1e-6, itermax=60, ckpt_dir=ckpt,
                     resume=False)
    assert not i3.get("resumed")
