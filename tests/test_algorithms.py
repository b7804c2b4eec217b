import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from raygraph.algorithms.components import connected_components
from raygraph.algorithms.lpa import label_propagation
from raygraph.algorithms.pagerank import pagerank
from raygraph.algorithms.paths import bfs_levels
from raygraph.algorithms.triangles import triangle_count
from raygraph.graph import build_graph
from tests import fixtures as fx


def _edges_ds(A: np.ndarray):
    return rd.from_arrow(fx.dense_to_edge_table(A))


def _scores(g, slices):
    t = g.to_vertex_table(slices)
    return dict(zip(t["v"].to_pylist(), t["val"].to_pylist()))


# ------------------------------------------------------------- pagerank ----


def test_pagerank_demo_graph_matches_reference_formula():
    A = fx.dense_of(fx.PR_ROWS, fx.PR_COLS, fx.PR_VALS, 5)
    g = build_graph(_edges_ds(A), num_parts=3, binarize=True)
    r, info = pagerank(g, tol=1e-10, itermax=200)
    want = fx.pagerank_3f_oracle(A, tol=1e-10, itermax=200)
    got = _scores(g, r)
    np.testing.assert_allclose([got[i] for i in range(5)], want, atol=1e-6)
    assert info["iters"] > 1


def test_pagerank_random_graph_with_dangling():
    A = fx.random_graph(64, 0.06, seed=3)
    A[10, :] = 0  # force dangling vertices
    A[33, :] = 0
    verts = rd.from_arrow(fx.vertex_table(64))
    g = build_graph(_edges_ds(A), vertices_ds=verts, num_parts=8, binarize=True)
    r, _ = pagerank(g, tol=1e-9, itermax=300)
    want = fx.pagerank_3f_oracle(A, tol=1e-9, itermax=300)
    got = _scores(g, r)
    np.testing.assert_allclose([got[i] for i in range(64)], want, atol=1e-6)


# ----------------------------------------------------------- components ----


def test_fastsv_reference_fixture_exact():
    A = fx.cc_dense()
    g = build_graph(_edges_ds(A), num_parts=4, symmetrize=True, binarize=True)
    f, info = connected_components(g)
    got = _scores(g, f)
    assert {int(k): int(x) for k, x in got.items()} == fx.CC_LABELS


def test_fastsv_permutation_invariance():
    A = fx.cc_dense()
    rng = np.random.default_rng(5)
    perm = rng.permutation(fx.CC_N)
    Ap = A[np.ix_(perm, perm)]
    g = build_graph(_edges_ds(Ap), num_parts=4, symmetrize=True, binarize=True)
    f, _ = connected_components(g)
    got = _scores(g, f)
    want = fx.cc_oracle(Ap)
    assert [int(got[i]) for i in range(fx.CC_N)] == want.tolist()


def test_fastsv_random_graph():
    A = fx.random_graph(80, 0.03, seed=9, symmetric=True)
    verts = rd.from_arrow(fx.vertex_table(80))
    g = build_graph(_edges_ds(A), vertices_ds=verts, num_parts=8,
                    symmetrize=True, binarize=True)
    f, _ = connected_components(g)
    got = _scores(g, f)
    want = fx.cc_oracle(A)
    assert [int(got[i]) for i in range(80)] == want.tolist()


# ------------------------------------------------------------ triangles ----


def test_triangle_fixture_has_one():
    A = fx.cc_dense()
    g = build_graph(_edges_ds(A), num_parts=4, symmetrize=True, drop_self=True,
                    dup_op="first", binarize=True)
    assert triangle_count(g) == 1 == fx.triangle_oracle(A)


def test_triangle_random_graph():
    A = fx.random_graph(64, 0.2, seed=21, symmetric=True)
    g = build_graph(_edges_ds(A), num_parts=6, symmetrize=True, drop_self=True,
                    dup_op="first", binarize=True)
    assert triangle_count(g) == fx.triangle_oracle(A)


def test_triangle_mxm_generic_path_matches_csr():
    """The generic masked-mxm recipe (C(L) << L.mxm(L)) and the
    degree-oriented CSR path agree with the dense oracle."""
    from raygraph.algorithms.triangles import triangle_count_mxm

    for seed, n, p in [(21, 64, 0.2), (3, 40, 0.35)]:
        A = fx.random_graph(n, p, seed=seed, symmetric=True)
        got = triangle_count_mxm(rd.from_arrow(fx.dense_to_edge_table(A)))
        assert got == fx.triangle_oracle(A)


def _star_and_clique() -> np.ndarray:
    """Hub 0 joined to every other vertex, and a clique on 21..28: the
    hub's degree puts it last in the (degree, id) orientation."""
    A = np.zeros((30, 30))
    A[0, 1:] = A[1:, 0] = 1.0
    A[21:29, 21:29] = 1.0
    np.fill_diagonal(A, 0.0)
    return A


def test_triangle_count_does_not_depend_on_group_count(monkeypatch):
    """The count is the same at every partition count P and group count
    W, and equals the dense oracle and the generic masked-mxm path."""
    import raygraph.fused as F
    from raygraph.algorithms.triangles import triangle_count_mxm

    rand = fx.random_graph(48, 0.15, seed=5, symmetric=True)
    rand[[3, 17], [3, 17]] = 1.0  # self-loops are ignored
    inputs = {"random": rand, "star+clique": _star_and_clique(),
              "self-loops": np.eye(6), "empty": np.zeros((0, 0))}
    for name, A in inputs.items():
        want = fx.triangle_oracle(A)
        edges = fx.dense_to_edge_table(A)
        assert triangle_count_mxm(rd.from_arrow(edges)) == want, name
        for P in (1, 5, 16):
            g = build_graph(rd.from_arrow(edges), num_parts=P, symmetrize=True,
                            vertices_ds=rd.from_arrow(fx.vertex_table(len(A))),
                            dup_op="first", binarize=True)
            if not len(A):
                assert g.block_ref_list() == [None] * P
            for W in sorted({1, 2, 3, P}):
                monkeypatch.setattr(F, "_n_groups", lambda parts, W=W: min(W, parts))
                assert triangle_count(g) == want, (name, P, W)


# ------------------------------------------------------------------ lpa ----


@pytest.mark.parametrize("seed", [11, 23])
def test_lpa_planted_partition(seed):
    A = fx.planted_partition(seed=seed)
    n = A.shape[0]
    verts = rd.from_arrow(fx.vertex_table(n))
    g = build_graph(_edges_ds(A), vertices_ds=verts, num_parts=6,
                    symmetrize=True, binarize=True)
    labels, _ = label_propagation(g, itermax=8)
    got = _scores(g, labels)
    # oracle applies the identical rule for the same number of rounds
    want = fx.lpa_oracle(A, itermax=8)
    assert [int(got[i]) for i in range(n)] == want.tolist()


# ------------------------------------------------------------------ bfs ----


def test_bfs_levels():
    A = fx.cc_dense()
    g = build_graph(_edges_ds(A), num_parts=4, symmetrize=True, binarize=True)
    dist, _ = bfs_levels(g, 0)
    got = _scores(g, dist)
    # hand-checked hop levels from vertex 0 on the FastSV fixture
    want = {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2}
    for v, d in want.items():
        assert got[v] == d
    for v in (6, 7, 8, 9, 10, 11):
        assert got[v] == np.inf


# ---------------------------------------------------- personalized pagerank ----


def _ppr_dense_oracle(A, seeds, damping=0.85, iters=50):
    n = A.shape[0]
    B = (A != 0).astype(float)
    deg = B.sum(axis=1)
    p = np.zeros(n)
    p[list(seeds)] = 1.0 / len(seeds)
    r = p.copy()
    for _ in range(iters):
        w = np.divide(r * damping, deg, out=np.zeros(n), where=deg > 0)
        r = (1 - damping) * p + B.T @ w
    return r


def test_ppr_matches_dense_oracle():
    from raygraph.algorithms.pagerank import personalized_pagerank

    A = fx.random_graph(48, 0.08, seed=7)
    verts = rd.from_arrow(fx.vertex_table(48))
    g = build_graph(_edges_ds(A), vertices_ds=verts, num_parts=6, binarize=True)
    seeds = [0, 7, 14, 21]
    r, info = personalized_pagerank(g, seeds=seeds, tol=0.0, itermax=50)
    want = _ppr_dense_oracle(A, seeds, iters=50)
    got = _scores(g, r)
    np.testing.assert_allclose([got[i] for i in range(48)], want, atol=1e-9)
    assert info["iters"] == 50


def test_ppr_seed_pred_equals_seed_list():
    from raygraph.algorithms.pagerank import personalized_pagerank

    A = fx.random_graph(40, 0.1, seed=11)
    verts = rd.from_arrow(fx.vertex_table(40))
    g = build_graph(_edges_ds(A), vertices_ds=verts, num_parts=4, binarize=True)
    r1, _ = personalized_pagerank(g, seeds=[v for v in range(40) if v % 5 == 0],
                                  tol=0.0, itermax=12)
    r2, _ = personalized_pagerank(g, seed_pred=lambda ids: ids % np.uint64(5) == 0,
                                  tol=0.0, itermax=12)
    for a, b in zip(r1, r2):
        np.testing.assert_array_equal(a, b)


def test_ppr_empty_seed_raises():
    from raygraph.algorithms.pagerank import personalized_pagerank

    A = fx.random_graph(16, 0.2, seed=5)
    g = build_graph(_edges_ds(A), num_parts=2, binarize=True)
    with pytest.raises(ValueError):
        personalized_pagerank(g, seeds=[])


# ------------------------------------------------------------ random walks ----


def test_random_walks_match_brute_force():
    from raygraph.algorithms.walks import random_walks, _step_key

    A = fx.random_graph(30, 0.12, seed=9)
    A[5, :] = 0  # dead end: walks reaching 5 stop
    edges = fx.dense_to_edge_table(A)
    starts = [0, 5, 7, 11]
    got = sorted(
        (r["start"], r["step"], r["v"])
        for r in random_walks(rd.from_arrow(edges), starts=starts,
                              steps=3).take_all())

    adj = {u: np.flatnonzero(A[u]).astype(np.uint64) for u in range(30)}
    want = []
    for s in starts:
        cur = np.uint64(s)
        want.append((s, 0, s))
        for t in range(1, 4):
            nbrs = adj[int(cur)]
            if len(nbrs) == 0:
                break
            h = _step_key(np.full(len(nbrs), cur, np.uint64), t, nbrs)
            cur = nbrs[int(np.argmin(h))]
            want.append((s, t, int(cur)))
    assert got == sorted(want)


def test_random_walks_start_pred_matches_list():
    from raygraph.algorithms.walks import random_walks

    A = fx.random_graph(24, 0.15, seed=13)
    edges = fx.dense_to_edge_table(A)
    verts_in_graph = sorted(set(np.flatnonzero(A.any(axis=1)))
                            | set(np.flatnonzero(A.any(axis=0))))
    starts = [v for v in verts_in_graph if v % 4 == 0]
    r1 = sorted((r["start"], r["step"], r["v"]) for r in random_walks(
        rd.from_arrow(edges), starts=starts, steps=2).take_all())
    r2 = sorted((r["start"], r["step"], r["v"]) for r in random_walks(
        rd.from_arrow(edges), start_pred=lambda ids: ids % np.uint64(4) == 0,
        steps=2).take_all())
    assert r1 == r2 and len(r1) > 0


def test_multi_source_bfs_and_eccentricity():
    from raygraph.algorithms.paths import eccentricity, multi_source_bfs

    A = fx.random_graph(40, 0.08, seed=17)
    verts = rd.from_arrow(fx.vertex_table(40))
    g = build_graph(_edges_ds(A), vertices_ds=verts, num_parts=4,
                    binarize=True)
    sources = [0, 3, 9]
    t = multi_source_bfs(g, sources)
    got = {(r["source"], r["v"]): r["dist"] for r in t.to_pylist()}

    # dense BFS oracle
    B = (A != 0)
    want = {}
    for s in sources:
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.flatnonzero(B[u]):
                    if int(v) not in dist:
                        dist[int(v)] = dist[u] + 1
                        nxt.append(int(v))
            frontier = nxt
        want.update({(s, v): d for v, d in dist.items()})
    assert got == want

    e = {r["source"]: (r["ecc"], r["n_reached"])
         for r in eccentricity(g, sources).to_pylist()}
    for s in sources:
        ds_ = [d for (ss, _), d in want.items() if ss == s]
        assert e[s] == (max(ds_), len(ds_))


def test_closeness_matches_bfs_oracle():
    from raygraph.algorithms.paths import closeness, multi_source_bfs

    A = fx.random_graph(32, 0.1, seed=23)
    verts = rd.from_arrow(fx.vertex_table(32))
    g = build_graph(_edges_ds(A), vertices_ds=verts, num_parts=4,
                    binarize=True)
    t = multi_source_bfs(g, [0, 4])
    c = {r["source"]: r for r in closeness(g, [0, 4]).to_pylist()}
    for s in (0, 4):
        ds_ = [r["dist"] for r in t.to_pylist() if r["source"] == s]
        want = round((len(ds_) - 1) / sum(ds_), 6) if sum(ds_) else 0.0
        assert c[s]["closeness"] == want
        assert c[s]["n_reached"] == len(ds_)


# ------------------------------------------------------------------ MIS ----


def test_mis_matches_brute_force_and_is_valid():
    from raygraph.algorithms.mis import maximal_independent_set
    from raygraph.util import mix64

    def brute(A):
        S = (A + A.T) > 0
        np.fill_diagonal(S, False)
        alive = {int(v) for v in
                 set(np.flatnonzero(A.any(0))) | set(np.flatnonzero(A.any(1)))}
        mis = []
        while alive:
            pri = {v: int(mix64(np.array([v], np.uint64))[0]) for v in alive}
            win = [v for v in alive
                   if all(pri[v] < pri[u] for u in alive if S[v, u])]
            mis += win
            rm = set(win)
            for v in win:
                rm |= {int(u) for u in np.flatnonzero(S[v]) if u in alive}
            alive -= rm
        return sorted(mis)

    for seed, p in ((4, 0.08), (9, 0.2), (13, 0.4)):
        A = fx.random_graph(36, p, seed=seed)
        got = sorted(r["v"] for r in maximal_independent_set(
            rd.from_arrow(fx.dense_to_edge_table(A))).take_all())
        assert got == brute(A), f"seed={seed}"
        # independence + maximality invariants
        S = (A + A.T) > 0
        np.fill_diagonal(S, False)
        gs = set(got)
        assert all(not S[u, v] for u in gs for v in gs if u < v)
        present = set(np.flatnonzero(A.any(0))) | set(np.flatnonzero(A.any(1)))
        for v in present - gs:
            assert any(S[v, u] for u in gs), f"{v} not dominated"
    # a 40-vertex path needs several Luby rounds: one round raises
    path = pa.table({"src": np.arange(39, dtype=np.uint64),
                     "dst": np.arange(1, 40, dtype=np.uint64),
                     "w": np.ones(39)})
    with pytest.raises(RuntimeError, match="max_rounds=1"):
        maximal_independent_set(rd.from_arrow(path), max_rounds=1)


def test_mis_of_self_loop_only_input_is_empty():
    from raygraph.algorithms.mis import maximal_independent_set

    loops = pa.table({"src": np.array([1, 2], np.uint64),
                      "dst": np.array([1, 2], np.uint64),
                      "w": np.ones(2)})
    out = maximal_independent_set(rd.from_arrow(loops))
    assert out.count() == 0
    assert out.schema().names == ["v"]


def test_weighted_pagerank_matches_dense_formula():
    from raygraph.algorithms.pagerank import pagerank

    rng = np.random.default_rng(31)
    A = fx.random_graph(40, 0.1, seed=31) * rng.uniform(0.5, 5.0, (40, 40))
    A[7, :] = 0  # dangling
    verts = rd.from_arrow(fx.vertex_table(40))
    g = build_graph(_edges_ds(A), vertices_ds=verts, num_parts=5)
    r, _ = pagerank(g, tol=0.0, itermax=30, weighted=True)
    got = _scores(g, r)

    n = 40
    s = A.sum(axis=1)
    p = np.full(n, 1.0 / n)
    W = np.divide(A, s[:, None], out=np.zeros_like(A), where=s[:, None] > 0)
    for _ in range(30):
        p = (1 - 0.85) / n + 0.85 * (W.T @ p)
    np.testing.assert_allclose([got[i] for i in range(n)], p, atol=1e-12)


def test_weighted_equals_unweighted_on_binary_graph():
    from raygraph.algorithms.pagerank import pagerank

    A = fx.random_graph(30, 0.12, seed=37)
    verts = rd.from_arrow(fx.vertex_table(30))
    g = build_graph(_edges_ds(A), vertices_ds=verts, num_parts=4)
    rw, _ = pagerank(g, tol=0.0, itermax=10, weighted=True)
    g2 = build_graph(_edges_ds(A), vertices_ds=verts, num_parts=4,
                     binarize=True)
    ru, _ = pagerank(g2, tol=0.0, itermax=10)
    for a, b in zip(rw, ru):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_walk_skipgrams_match_walk_corpus():
    import collections

    from raygraph.algorithms.walks import random_walks, walk_skipgram_pairs

    A = fx.random_graph(30, 0.12, seed=41)
    edges = rd.from_arrow(fx.dense_to_edge_table(A))
    starts = [0, 3, 6, 9]
    walks = collections.defaultdict(dict)
    for r in random_walks(rd.from_arrow(fx.dense_to_edge_table(A)),
                          starts=starts, steps=5).take_all():
        walks[r["start"]][r["step"]] = r["v"]
    want = collections.Counter()
    for s, seq in walks.items():
        vs = [seq[t] for t in sorted(seq)]
        for d in (1, 2):
            want.update(zip(vs[:-d], vs[d:]))
    got = {(r["a"], r["b"]): r["n"]
           for r in walk_skipgram_pairs(edges, starts=starts, steps=5,
                                        window=2).take_all()}
    assert got == dict(want) and len(got) > 0


def test_khop_induced_subgraph():
    from raygraph.algorithms.paths import khop_induced_subgraph

    A = fx.random_graph(36, 0.07, seed=43)
    edges = fx.dense_to_edge_table(A)
    verts = rd.from_arrow(fx.vertex_table(36))
    g = build_graph(rd.from_arrow(edges), vertices_ds=verts, num_parts=4,
                    binarize=True)
    got = sorted((r["src"], r["dst"]) for r in khop_induced_subgraph(
        g, rd.from_arrow(edges), [0, 5], 2).take_all())

    # dense membership oracle
    B = A != 0
    dist = {0: 0, 5: 0}
    frontier = [0, 5]
    for hop in (1, 2):
        nxt = []
        for u in frontier:
            for w in np.flatnonzero(B[u]):
                if int(w) not in dist:
                    dist[int(w)] = hop
                    nxt.append(int(w))
        frontier = nxt
    mem = set(dist)
    want = sorted((int(i), int(j)) for i, j in zip(*np.nonzero(A))
                  if int(i) in mem and int(j) in mem)
    assert got == want


def test_sample_neighbors_fanout_and_determinism():
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from raygraph.algorithms.paths import sample_neighbors

    # star from 1 with 5 neighbors + second-hop fan from each
    src, dst = [], []
    for d in range(10, 15):
        src.append(1); dst.append(d)
        for e in range(5):
            src.append(d); dst.append(100 + 10 * d + e)
    e = pa.table({"src": np.array(src, np.uint64),
                  "dst": np.array(dst, np.uint64),
                  "w": np.ones(len(src))})
    t = sample_neighbors(rd.from_arrow(e), [1], fanout=3, hops=2)
    df = t.to_pandas()
    l1 = df[df.hop == 1]
    assert len(l1) == 3 and (l1.src == 1).all()
    # hop-1 picks exactly the 3 smallest md5("1:d") neighbors
    want = sorted(range(10, 15),
                  key=lambda d: hashlib.md5(b"1:%d" % d).hexdigest())[:3]
    assert sorted(l1.dst) == sorted(want)
    l2 = df[df.hop == 2]
    assert set(l2.src) == set(l1.dst)
    assert l2.groupby("src").size().max() <= 3
    # deterministic under re-run and repartitioning
    t2 = sample_neighbors(rd.from_arrow(e).repartition(7), [1],
                          fanout=3, hops=2)
    assert t.sort_by([("hop", "ascending"), ("src", "ascending"),
                      ("dst", "ascending")]).equals(
        t2.sort_by([("hop", "ascending"), ("src", "ascending"),
                    ("dst", "ascending")]))


# ---------------------------------------------------------- betweenness ----


def _brandes_oracle(A: np.ndarray, sources, depth):
    """Pure-Python Brandes (directed, truncated at ``depth`` levels):
    returns ({v: bc}, set of emitted vertices) matching the operator's
    output-set rule (reached at dist < depth, source excluded)."""
    n = A.shape[0]
    bc = np.zeros(n)
    emitted = set()
    for s in sources:
        dist = np.full(n, -1)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        frontier = [s]
        levels = [[s]]
        for k in range(depth):
            nxt = []
            for v in frontier:
                for w in np.flatnonzero(A[v]):
                    if dist[w] == -1:
                        dist[w] = k + 1
                        nxt.append(w)
                    if dist[w] == k + 1:
                        sigma[w] += sigma[v]
            if not nxt:
                break
            levels.append(nxt)
            frontier = nxt
        delta = np.zeros(n)
        for lvl in reversed(levels[:-1]):
            for v in lvl:
                for w in np.flatnonzero(A[v]):
                    if dist[w] == dist[v] + 1:
                        delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
        for v in range(n):
            if 0 <= dist[v] < depth and v != s:
                bc[v] += delta[v]
                emitted.add(v)
    return bc, emitted


@pytest.mark.parametrize("seed,depth", [(7, 3), (11, 64)])
def test_betweenness_matches_brandes_oracle(seed, depth):
    from raygraph.algorithms.betweenness import betweenness

    A = (fx.random_graph(40, 0.08, seed=seed) > 0).astype(float)
    np.fill_diagonal(A, 0)
    g = build_graph(_edges_ds(A), num_parts=4, binarize=True)
    rg = build_graph(_edges_ds(A.T), num_parts=4, binarize=True)
    sources = [0, 3, 9]
    out = betweenness(g, rg, sources, depth=depth)
    got = dict(zip(out["v"].to_pylist(), out["bc"].to_pylist()))
    want, emitted = _brandes_oracle(A, sources, depth)
    assert set(got) == emitted
    for v in emitted:
        assert abs(got[v] - want[v]) < 1e-5, (v, got[v], want[v])


# ----------------------------------------------------- modularity / ANF ----


def test_modularity_matches_brute_force():
    from raygraph.algorithms.metrics import modularity

    rng = np.random.default_rng(5)
    A = (fx.random_graph(50, 0.07, seed=5) > 0).astype(float)
    vs = np.arange(50, dtype=np.uint64)
    lab = rng.integers(0, 4, 50)
    labels = pa.table({"v": vs, "label": lab.astype(np.int64)})
    out = modularity(rd.from_arrow(fx.dense_to_edge_table(A)), labels)
    df = out.to_pandas().set_index("label")
    s, d = np.nonzero(A)
    m = len(s)
    for c in np.unique(lab[np.concatenate([s, d])]):
        ein = int(((lab[s] == c) & (lab[d] == c)).sum())
        dout = int((lab[s] == c).sum())
        din = int((lab[d] == c).sum())
        assert df.loc[c, "e_in"] == ein
        assert df.loc[c, "dout"] == dout and df.loc[c, "din"] == din
        want = ein / m - (dout / m) * (din / m)
        assert abs(df.loc[c, "q"] - want) < 5.1e-7  # operator rounds to 6
    # whole-graph modularity = sum of community terms, in [-1, 1]
    assert -1.0 <= df["q"].sum() <= 1.0


def test_hyperball_matches_brute_force_hll():
    from raygraph.algorithms.anf import hyperball
    from raygraph.util import mix64

    p, m = 4, 16
    m_bits = 64 - p
    A = (fx.random_graph(40, 0.08, seed=9) > 0).astype(float)
    np.fill_diagonal(A, 0)
    g = build_graph(_edges_ds(A), num_parts=4, binarize=True)
    rg = build_graph(_edges_ds(A.T), num_parts=4, binarize=True)
    out = hyperball(g, rg, radius=2, p=p).to_pandas()

    # brute force: exact ball membership, then the same HLL registers
    h = mix64(np.arange(40, dtype=np.uint64))
    reg = (h >> np.uint64(m_bits)).astype(np.int64)
    pow2 = np.uint64(1) << np.arange(0, m_bits, dtype=np.uint64)
    w = h & ((np.uint64(1) << np.uint64(m_bits)) - np.uint64(1))
    rank = (m_bits - np.searchsorted(pow2, w, side="right") + 1).astype(float)
    R = (A > 0)
    ball = np.eye(40, dtype=bool)
    alpha = 0.7213 / (1 + 1.079 / m)
    for t in (1, 2):
        ball = ball | (ball @ R)
        for v in range(40):
            regs = np.zeros(m)
            members = np.flatnonzero(ball[v])
            np.maximum.at(regs, reg[members], rank[members])
            s = np.exp2(-regs).sum()
            est = alpha * m * m / s
            zeros = int((regs == 0).sum())
            if est <= 2.5 * m and zeros:
                est = m * np.log(m / zeros)
            got = out[(out["v"] == v) & (out["t"] == t)]["est"].iloc[0]
            assert abs(got - est) < 1e-5, (v, t, got, est)


def test_wl_colors_brute_force_and_isomorphism_invariance():
    from raygraph.algorithms.wl import wl_colors
    from raygraph.util import mix64

    K1 = np.uint64(0x9E3779B97F4A7C15)
    A = (fx.random_graph(30, 0.1, seed=21) > 0).astype(float)
    np.fill_diagonal(A, 0)
    vs = np.arange(30, dtype=np.uint64)
    out = wl_colors(_edges_ds(A), vs, rounds=2).to_pandas()
    got = dict(zip(out["v"], out["color"]))

    # brute force with plain wrap arithmetic
    col = np.full(30, mix64(np.asarray([1], np.uint64))[0], np.uint64)
    with np.errstate(over="ignore"):
        for _ in range(2):
            m = mix64(col)
            S = np.zeros(30, np.uint64)
            s, d = np.nonzero(A)
            np.add.at(S, d, m[s])
            col = mix64((col * K1) ^ S)
    for v in range(30):
        assert got[v] == f"{int(col[v]):016x}"

    # isomorphism invariance: a relabeled twin has the same color multiset
    rng = np.random.default_rng(3)
    perm = rng.permutation(30)
    P = np.zeros_like(A)
    P[perm[:, None], perm[None, :]] = A  # P[perm[i],perm[j]] = A[i,j]
    out2 = wl_colors(_edges_ds(P), vs, rounds=2).to_pandas()
    assert sorted(out["color"]) == sorted(out2["color"])
