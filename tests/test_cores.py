"""edge_support / kcore / chunking / decontamination — round-5 ops."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from raygraph.algorithms.cores import edge_support, kcore, sym_edges
from raygraph.datapipe.dedup import decontaminate, _gram_chain
from raygraph.datapipe.text import chunk_documents


def _edges(pairs):
    s, d = zip(*pairs)
    return rd.from_arrow(pa.table({
        "src": np.array(s, np.uint64), "dst": np.array(d, np.uint64),
        "w": np.ones(len(s), np.float64)}))


def test_sym_edges_dedup_and_selfloops():
    # duplicates, reversed dups, and a self-loop
    e = _edges([(1, 2), (2, 1), (1, 2), (3, 3), (2, 3)])
    out = sym_edges(e).to_pandas().sort_values(["src", "dst"])
    got = set(zip(out["src"], out["dst"]))
    assert got == {(1, 2), (2, 1), (2, 3), (3, 2)}


def test_edge_support_triangle_plus_tail():
    # triangle 1-2-3 with a tail 3-4: supports 1 on triangle edges, 0 on tail
    e = _edges([(1, 2), (2, 3), (1, 3), (3, 4)])
    out = edge_support(e).to_pandas().sort_values(["src", "dst"])
    got = {(r.src, r.dst): r.support for r in out.itertuples()}
    assert got == {(1, 2): 1, (1, 3): 1, (2, 3): 1}


def test_edge_support_k4():
    # K4: every edge in 2 triangles
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    out = edge_support(_edges(pairs)).to_pandas()
    assert len(out) == 6 and (out["support"] == 2).all()


def test_kcore_peel_chain():
    # 1-2-3-4 clique-ish: {1,2,3,4} is the 3-core, 5 hangs off 4
    pairs = [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (1, 4), (2, 4)]
    out = kcore(_edges(pairs), 3).to_pandas()
    assert sorted(out["v"]) == [1, 2, 3, 4]
    # the 4-core of the same graph is empty (typed-empty result)
    out4 = kcore(_edges(pairs), 4)
    t = pa.concat_tables(list(out4.iter_batches(batch_size=None,
                                                batch_format="pyarrow")),
                         promote_options="permissive") \
        if out4.count() else None
    assert out4.count() == 0


def test_kcore_multiround_cascade():
    # path 1-2-3-4-5 plus triangle 4-5-6: 2-core peels the path one
    # endpoint per round (a genuinely multi-round fixpoint)
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)]
    out = kcore(_edges(pairs), 2).to_pandas()
    assert sorted(out["v"]) == [4, 5, 6]
    # a 200-vertex path peels two endpoints per round: ~100 rounds to the
    # empty 2-core, so the default cap raises instead of returning a
    # partial peel
    path = _edges([(i, i + 1) for i in range(199)])
    with pytest.raises(RuntimeError, match="max_rounds=64"):
        kcore(path, 2)
    assert kcore(path, 2, max_rounds=128).count() == 0


def test_chunk_documents_geometry():
    toks = " ".join(f"t{i}" for i in range(300))
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": ["a b c", "", toks]}))
    out = chunk_documents(docs, window=128, stride=96).to_pandas()
    out = out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    # doc 0: one short chunk; doc 1: none; doc 2: ceil(300/96)=4 chunks
    assert list(out["doc_id"]) == [0, 2, 2, 2, 2]
    assert list(out["n_tok"]) == [3, 128, 128, 108, 12]
    assert list(out["tok_start"]) == [0, 0, 96, 192, 288]
    assert out.iloc[1]["first_tok"] == "t0" and out.iloc[1]["last_tok"] == "t127"
    assert out.iloc[4]["first_tok"] == "t288" and out.iloc[4]["last_tok"] == "t299"


def test_decontaminate_counts_positions():
    bench = rd.from_arrow(pa.table({
        "doc_id": pa.array([100], pa.int64()),
        "text": ["one two three four five six"]}))
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": [
            "one two three four five six seven",  # grams 1-3 hit (2 of 3)
            "totally different text with no overlap at all",
            "short",  # < n tokens -> 0 grams
        ]}))
    out = decontaminate(docs, bench, n=5).to_pandas().sort_values("doc_id")
    assert list(out["n_grams"]) == [3, 4, 0]
    assert list(out["n_hits"]) == [2, 0, 0]
    assert list(out["contaminated"]) == [1, 0, 0]


def test_gram_chain_matches_repeated_ngrams_key():
    # the repeated_ngrams key, against an independent inline chain
    toks = "a b c d e f g h i j".split()
    from raygraph.datapipe.dedup import _token_hashes
    from raygraph.util import mix64
    n = 5
    hs = _token_hashes(toks)
    m = len(hs) - n + 1
    with np.errstate(over="ignore"):
        g = mix64(hs[:m])
        for j in range(1, n):
            g = mix64(g ^ hs[j:m + j])
    assert np.array_equal(_gram_chain(toks, n), g)


def test_hits_fused_star():
    from raygraph.algorithms.hits import hits_fused
    from raygraph.graph import build_graph

    # star 0 -> {1,2,3,4}: hub mass all on 0, authority 1/4 per leaf
    e = _edges([(0, 1), (0, 2), (0, 3), (0, 4)])

    def swap(t):
        return pa.table({"src": t["dst"], "dst": t["src"], "w": t["w"]})

    for parts in (4, 1):
        g = build_graph(e, num_parts=parts, dup_op="first", binarize=True)
        gT = build_graph(e.map_batches(swap, batch_format="pyarrow"),
                         num_parts=parts, dup_op="first", binarize=True)
        hub, auth = hits_fused(g, gT, itermax=4)
        th = g.to_vertex_table(hub, "hub").to_pandas().set_index("v")["hub"]
        ta = g.to_vertex_table(auth, "auth").to_pandas().set_index("v")["auth"]
        assert abs(th[0] - 1.0) < 1e-12 and all(abs(th[i]) < 1e-12 for i in (1, 2, 3, 4))
        assert abs(ta[0]) < 1e-12 and all(abs(ta[i] - 0.25) < 1e-12 for i in (1, 2, 3, 4))


def test_props_field_agg_matches_pandas():
    from raygraph.datapipe.windows import props_field_agg

    t = pa.table({
        "event_type": ["a", "a", "b", "b", "c"],
        "props": ['{"k": 3}', '{"k": -1}', '{"k": 10}', 'oops', None]})
    out = props_field_agg(rd.from_arrow(t)).to_pandas().sort_values(
        "event_type").reset_index(drop=True)
    assert list(out["n"]) == [2, 1, 0]
    assert list(out["sum_k"])[:2] == [2, 10]
    assert list(out["min_k"])[:2] == [-1, 10]
    assert list(out["max_k"])[:2] == [3, 10]


def test_katz_fused_matches_dense_power_iteration():
    from raygraph.algorithms.katz import katz_fused
    from raygraph.graph import build_graph
    from tests import fixtures as fx

    A = (fx.random_graph(40, 0.1, seed=11) != 0).astype(np.float64)
    x = np.zeros(40)
    for _ in range(8):
        x = 0.05 * (A.T @ x) + 1.0
    x /= np.linalg.norm(x)
    for parts in (4, 1):
        g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)),
                        num_parts=parts, dup_op="first", binarize=True)
        xs = katz_fused(g, alpha=0.05, beta=1.0, itermax=8, normalize=True)
        t = g.to_vertex_table(xs, "katz").to_pandas().set_index("v")["katz"]
        got = np.array([t.get(i, 0.0) for i in range(40)])
        np.testing.assert_allclose(got, x, atol=1e-12)


def test_katz_fused_empty_graph_keep_prev():
    from raygraph.algorithms.katz import katz_fused
    from raygraph.graph import build_graph

    # zero edges -> n=0; spectral_radius unpacks (xs, prev) from this call
    g = build_graph(rd.from_arrow(pa.table({
        "src": np.empty(0, np.uint64), "dst": np.empty(0, np.uint64),
        "w": np.empty(0, np.float64)})), num_parts=4)
    assert g.n_vertices == 0
    assert katz_fused(g, normalize=False, x0=1.0, keep_prev=True) == ([], [])
    assert katz_fused(g) == []


def test_reciprocity_counts():
    from raygraph.algorithms.metrics import reciprocity

    # 0<->1 reciprocated, 0->2 and 3->0 not; self-loop and dup ignored
    e = _edges([(0, 1), (1, 0), (0, 2), (3, 0), (2, 2), (0, 1)])
    t = reciprocity(e).to_pydict()
    assert t["n_edges"] == [4] and t["n_recip"] == [2]
    assert t["reciprocity_ppm"] == [500000]


def test_transitivity_triangle_plus_tail():
    from raygraph.algorithms.metrics import transitivity

    # triangle 0-1-2 with tail 2-3: 1 triangle, triads C(2,2)*2+C(3,2)+C(1,2)
    e = _edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    t = transitivity(e).to_pydict()
    assert t["triangles"] == [1] and t["triads"] == [5]
    assert t["transitivity_ppm"] == [600000]


def test_edge_jaccard_square_with_diagonal():
    from raygraph.algorithms.metrics import edge_jaccard
    from raygraph import kernels as K

    # square 0-1-2-3-0 plus diagonal 0-2
    e = _edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    t = K.to_table(edge_jaccard(e), sort_by=None).to_pandas()
    t = t.set_index(["src", "dst"]).sort_index()
    # edge (0,1): N(0)={1,2,3}, N(1)={0,2} -> inter {2}, union 4
    assert t.loc[(0, 1), "support"] == 1
    assert t.loc[(0, 1), "jaccard_ppm"] == 250000
    # edge (0,2): N(0)={1,2,3}, N(2)={0,1,3} -> inter {1,3}, union 4
    assert t.loc[(0, 2), "support"] == 2
    assert t.loc[(0, 2), "jaccard_ppm"] == 500000


def test_local_clustering_triangle_plus_tail():
    from raygraph.algorithms.metrics import local_clustering
    from raygraph import kernels as K

    # triangle 0-1-2 with tail 2-3
    e = _edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    t = K.to_table(local_clustering(e), sort_by=None).to_pandas()
    t = t.set_index("v").sort_index()
    assert list(t["deg"]) == [2, 2, 3, 1]
    assert list(t["tri"]) == [1, 1, 1, 0]
    # lcc: 1.0, 1.0, 2/(3*2)=1/3, 0
    assert list(t["lcc_ppm"]) == [1000000, 1000000, 333333, 0]


def test_avg_neighbor_degree_star():
    from raygraph.algorithms.metrics import avg_neighbor_degree
    from raygraph import kernels as K

    # star 0-{1,2,3}: and(0)=1, and(leaf)=3
    e = _edges([(0, 1), (0, 2), (0, 3)])
    t = K.to_table(avg_neighbor_degree(e), sort_by=None).to_pandas()
    t = t.set_index("v").sort_index()
    assert list(t["deg"]) == [3, 1, 1, 1]
    assert list(t["sum_nbr_deg"]) == [3, 3, 3, 3]
    assert list(t["avg_nbr_deg_ppm"]) == [1000000, 3000000, 3000000, 3000000]


def test_degree_assortativity_matches_dense_formula():
    from raygraph.algorithms.metrics import degree_assortativity
    from tests import fixtures as fx

    A = fx.random_graph(30, 0.15, seed=5)
    S = ((A + A.T) != 0)
    np.fill_diagonal(S, False)
    t = degree_assortativity(rd.from_arrow(
        fx.dense_to_edge_table(A.astype(np.float64)))).to_pydict()
    deg = S.sum(1)
    xs, ys = np.nonzero(S)
    x, y = deg[xs], deg[ys]
    m = len(x)
    num = m * int((x * y).sum()) - int(x.sum()) ** 2
    den = m * int((x * x).sum()) - int(x.sum()) ** 2
    assert t["m"] == [m]
    assert t["assortativity"] == [round(float(num) / float(den), 6)]


def _scc_oracle(n, pairs):
    """Kosaraju on adjacency lists — test-local oracle."""
    fwd = [[] for _ in range(n)]
    rev = [[] for _ in range(n)]
    for s, d in pairs:
        fwd[s].append(d)
        rev[d].append(s)
    seen, order = [False] * n, []
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, 0)]
        seen[s] = True
        while stack:
            v, i = stack.pop()
            if i < len(fwd[v]):
                stack.append((v, i + 1))
                u = fwd[v][i]
                if not seen[u]:
                    seen[u] = True
                    stack.append((u, 0))
            else:
                order.append(v)
    comp = [-1] * n
    for s in reversed(order):
        if comp[s] >= 0:
            continue
        members, stack = [], [s]
        comp[s] = s
        while stack:
            v = stack.pop()
            members.append(v)
            for u in rev[v]:
                if comp[u] < 0:
                    comp[u] = s
                    stack.append(u)
        root = min(members)
        for v in members:
            comp[v] = root
    return comp


def _scc_run(pairs, num_parts=4):
    from raygraph.algorithms.scc import scc_fused
    from raygraph.graph import build_graph

    e = _edges(pairs)
    g = build_graph(e, num_parts=num_parts, dup_op="first", binarize=True)

    def swap(t):
        return pa.table({"src": t["dst"], "dst": t["src"], "w": t["w"]})

    gT = build_graph(e.map_batches(swap, batch_format="pyarrow"),
                     num_parts=num_parts, dup_op="first", binarize=True)
    labels = scc_fused(g, gT)
    t = g.to_vertex_table(labels, "scc").to_pandas()
    return dict(zip(t["v"].astype(int), t["scc"].astype(int)))


def test_scc_two_cycles_chain():
    # cycle {0,1} -> cycle {2,3} -> sink 4; plus self-loop 5 and isolated edge 6->0
    pairs = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (5, 5), (6, 0)]
    # P=16 over 7 vertices leaves partitions with no vertices and no edges
    for parts in (4, 1, 16):
        got = _scc_run(pairs, num_parts=parts)
        assert got == {0: 0, 1: 0, 2: 2, 3: 2, 4: 4, 5: 5, 6: 6}


def test_scc_dag_path_one_round():
    got = _scc_run([(1, 2), (2, 3), (3, 4)])
    assert got == {1: 1, 2: 2, 3: 3, 4: 4}


def test_scc_random_matches_kosaraju():
    rng = np.random.default_rng(17)
    n = 48
    m = 160
    pairs = {(int(a), int(b)) for a, b in
             zip(rng.integers(0, n, m), rng.integers(0, n, m))}
    pairs = sorted(pairs)
    want = _scc_oracle(n, pairs)
    touched = sorted({v for p in pairs for v in p})
    for parts in (6, 1):
        got = _scc_run(pairs, num_parts=parts)
        assert {v: got[v] for v in touched} == {v: want[v] for v in touched}


def _truss_brute(A, k):
    """Peel edges with < k-2 common neighbors to fixpoint (undirected)."""
    S = ((A + A.T) > 0).astype(int)
    np.fill_diagonal(S, 0)
    while True:
        supp = (S @ S) * S
        keep = (supp >= k - 2) & (S > 0)
        if (keep.astype(int) == S).all():
            break
        S = keep.astype(int)
    return sorted((i, j) for i, j in zip(*np.nonzero(S)) if i < j)


def test_ktruss_matches_brute_force():
    from raygraph.algorithms.cores import ktruss
    from tests import fixtures as fx

    A = fx.random_graph(36, 0.25, seed=21)
    edges = rd.from_arrow(fx.dense_to_edge_table(A))
    for k in (3, 4, 5):
        got = sorted((r["src"], r["dst"])
                     for r in ktruss(edges, k).take_all())
        assert got == _truss_brute(A, k), f"k={k}"


def test_ktruss_peels_to_empty():
    from raygraph.algorithms.cores import ktruss

    # a path graph has no triangles: any k >= 3 peels everything
    t = pa.table({"src": np.arange(10, dtype=np.uint64),
                  "dst": np.arange(1, 11, dtype=np.uint64),
                  "w": np.ones(10)})
    out = ktruss(rd.from_arrow(t), 3).take_all()
    assert out == []


def test_scc_condensation_two_cycles_chain():
    from raygraph.algorithms.scc import condensation, scc_fused
    from raygraph.graph import build_graph

    # cycle {0,1} -> cycle {2,3} -> 4; 6 -> 0; 5 self-loop
    pairs = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (5, 5), (6, 0)]
    e = _edges(pairs).materialize()
    g = build_graph(e, num_parts=4, dup_op="first", binarize=True)

    def swap(t):
        return pa.table({"src": t["dst"], "dst": t["src"], "w": t["w"]})

    gT = build_graph(e.map_batches(swap, batch_format="pyarrow"),
                     num_parts=4, dup_op="first", binarize=True)
    labels = scc_fused(g, gT)
    got = sorted((r["cfrom"], r["cto"], r["n_edges"])
                 for r in condensation(g, labels, e).take_all())
    # inter-component edges: {0,1}->{2,3} (1 edge), {2,3}->4, 6->{0,1};
    # the 5 self-loop is intra-component and drops out
    assert got == [(0, 2, 1), (2, 4, 1), (6, 0, 1)]


def test_adamic_adar_square_with_diagonal():
    from raygraph.algorithms.metrics import adamic_adar
    from raygraph import kernels as K

    # square 0-1-2-3-0 plus diagonal 0-2; deg: 0->3, 1->2, 2->3, 3->2
    e = _edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    t = K.to_table(adamic_adar(e), sort_by=None).to_pandas()
    t = t.set_index(["src", "dst"]).sort_index()
    # edge (0,1): common neighbor {2} (deg 3) -> 1/ln(3)
    assert abs(t.loc[(0, 1), "aa"] - 1 / np.log(3)) < 1e-6
    # edge (0,2): common {1 (deg 2), 3 (deg 2)} -> 2/ln(2)
    assert abs(t.loc[(0, 2), "aa"] - 2 / np.log(2)) < 1e-6
    # edge (2,3): common {0} (deg 3)
    assert abs(t.loc[(2, 3), "aa"] - 1 / np.log(3)) < 1e-6


def test_adamic_adar_random_matches_brute_force():
    from raygraph.algorithms.metrics import adamic_adar
    from raygraph import kernels as K
    from tests import fixtures as fx

    A = (fx.random_graph(30, 0.12, seed=13) > 0)
    A = A | A.T
    np.fill_diagonal(A, False)
    r, c = np.nonzero(A)
    e = _edges(list(zip(r.tolist(), c.tolist())))
    t = K.to_table(adamic_adar(e), sort_by=None).to_pandas()
    deg = A.sum(1)
    got = {(int(s), int(d)): v for s, d, v in
           zip(t["src"], t["dst"], t["aa"])}
    for u in range(30):
        for v in range(u + 1, 30):
            if not A[u, v]:
                continue
            common = np.flatnonzero(A[u] & A[v])
            if len(common) == 0:
                assert (u, v) not in got
                continue
            want = float((1.0 / np.log(deg[common])).sum())
            assert abs(got[(u, v)] - want) < 1e-5, (u, v)


def test_eigen_power_iteration_matches_dense():
    from raygraph.algorithms.katz import katz_fused
    from raygraph.graph import build_graph
    from tests import fixtures as fx

    A = (fx.random_graph(40, 0.1, seed=13) != 0).astype(np.float64)
    x = np.ones(40)
    for _ in range(8):
        x = A.T @ x
    x /= np.linalg.norm(x)
    for parts in (4, 1):
        g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)),
                        num_parts=parts, dup_op="first", binarize=True)
        xs = katz_fused(g, alpha=1.0, beta=0.0, itermax=8, normalize=True,
                        x0=1.0)
        t = g.to_vertex_table(xs, "eig").to_pandas().set_index("v")["eig"]
        got = np.array([t.get(i, 0.0) for i in range(40)])
        np.testing.assert_allclose(got, x, atol=1e-12)


def test_salsa_fused_matches_dense():
    from raygraph.algorithms.salsa import salsa_fused
    from raygraph.graph import build_graph
    from tests import fixtures as fx

    A = (fx.random_graph(40, 0.12, seed=17) != 0).astype(np.float64)
    e = rd.from_arrow(fx.dense_to_edge_table(A))

    def swap(t):
        return pa.table({"src": t["dst"], "dst": t["src"], "w": t["w"]})

    od = A.sum(axis=1)
    idg = A.sum(axis=0)
    Wa = np.divide(A, od[:, None], out=np.zeros_like(A), where=od[:, None] > 0).T
    Wh = np.divide(A, idg[None, :], out=np.zeros_like(A), where=idg[None, :] > 0)
    h = np.ones(40)
    for _ in range(4):
        a = Wa @ h
        h = Wh @ a
    h /= h.sum()
    a /= a.sum()
    for parts in (4, 1):
        g = build_graph(e, num_parts=parts, dup_op="first", binarize=True)
        gT = build_graph(e.map_batches(swap, batch_format="pyarrow"),
                         num_parts=parts, dup_op="first", binarize=True)
        hub, auth = salsa_fused(g, gT, itermax=4)
        th = g.to_vertex_table(hub, "hub").to_pandas().set_index("v")["hub"]
        ta = g.to_vertex_table(auth, "auth").to_pandas().set_index("v")["auth"]
        got_h = np.array([th.get(i, 0.0) for i in range(40)])
        got_a = np.array([ta.get(i, 0.0) for i in range(40)])
        np.testing.assert_allclose(got_h, h, atol=1e-12)
        np.testing.assert_allclose(got_a, a, atol=1e-12)


def test_rich_club_small():
    from raygraph.algorithms.metrics import rich_club

    # K4 on {0,1,2,3} plus pendant 3-4: degs 3,3,3,4,1
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(3, 4)]
    t = rich_club(_edges(pairs), ks=(1, 2, 3)).to_pydict()
    # k=1: all 5? deg>1 -> {0,1,2,3} (deg 3,3,3,4); edges among them = 6
    # k=2: same set, phi = 2*6/(4*3) = 1
    # k=3: only vertex 3 -> n_k < 2, dropped
    assert t["k"] == [1, 2]
    assert t["n_nodes"] == [4, 4]
    assert t["n_edges"] == [6, 6]
    assert t["phi_ppm"] == [1000000, 1000000]


def test_bowtie_classes():
    from raygraph.algorithms.scc import bowtie

    # core {1,2}; IN: 0 -> 1; OUT: 2 -> 3; other: 5 -> 6 (disconnected
    # tendril component, neither reaches nor is reached by the core)
    e = _edges([(1, 2), (2, 1), (0, 1), (2, 3), (5, 6)])
    out = bowtie(e, num_parts=4).to_pydict()
    got = dict(zip(out["v"], out["cls"]))
    assert got == {0: "in", 1: "core", 2: "core", 3: "out",
                   5: "other", 6: "other"}


def test_pagerank_dangling_mass_conserved():
    from raygraph.algorithms.pagerank import pagerank_dangling_fused
    from raygraph.graph import build_graph
    from tests import fixtures as fx

    A = (fx.random_graph(50, 0.06, seed=23) != 0).astype(np.float64)
    A[7, :] = 0  # force dangling rows
    A[31, :] = 0
    for parts in (4, 1):
        g = build_graph(rd.from_arrow(fx.dense_to_edge_table(A)),
                        num_parts=parts, dup_op="first", binarize=True)
        xs = pagerank_dangling_fused(g, damping=0.85, itermax=8)
        t = g.to_vertex_table(xs, "score").to_pandas().set_index("v")["score"]
        n = g.n_vertices
        # dense oracle over the SAME vertex universe (edge endpoints only)
        ids = sorted(t.index)
        sub = A[np.ix_(ids, ids)]
        od = sub.sum(axis=1)
        x = np.full(len(ids), 1.0 / n)
        for _ in range(8):
            dang = x[od == 0].sum()
            beta = 0.15 / n + 0.85 * dang / n
            W = np.divide(sub, od[:, None], out=np.zeros_like(sub),
                          where=od[:, None] > 0)
            x = beta + 0.85 * (W.T @ x)
        got = np.array([t[i] for i in ids])
        np.testing.assert_allclose(got, x, atol=1e-12)
        assert abs(sum(xs_p.sum() for xs_p in xs) - 1.0) < 1e-9


def test_triad_counts_fixture():
    from raygraph.pipelines.queries import QUERIES  # noqa: F401  (registry import)
    from raygraph import kernels as K

    # cycle 1->2->3->1 plus shortcut 1->3: transitive = 1 (1->2->3 with
    # 1->3), cyclic = 1
    e = _edges([(1, 2), (2, 3), (3, 1), (1, 3)])

    def swap(t):
        return pa.table({"src": t["dst"], "dst": t["src"], "w": t["w"]})

    eT = e.map_batches(swap, batch_format="pyarrow")
    trans = K.reduce_scalar(K.mxm(e, e, "plus_times", mask=e), "plus",
                            col="w")
    cyc = K.reduce_scalar(K.mxm(e, e, "plus_times", mask=eT), "plus",
                          col="w")
    assert int(round(trans)) == 1
    assert int(round(cyc)) // 3 == 1


def test_s_metric_k4_with_pendant():
    from raygraph.algorithms.metrics import s_metric

    # K4 {0..3} + pendant 3-4: degs 3,3,3,4,1
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(3, 4)]
    t = s_metric(_edges(pairs)).to_pydict()
    # edges: 01,02,03,12,13,23 prods 9,9,12,9,12,12 and 34 prod 4
    assert t["n_edges"] == [7]
    assert t["s_metric"] == [9 + 9 + 12 + 9 + 12 + 12 + 4]


def test_bipartite_project_counts():
    from raygraph.algorithms.metrics import bipartite_project

    # keys: 1 -> {10,20,30}, 2 -> {10,20}, 3 -> {40}; dup rows collapse
    t = pa.table({
        "k": pa.array([1, 1, 1, 2, 2, 2, 3], pa.int64()),
        "v": pa.array([10, 20, 30, 10, 20, 20, 40], pa.int64()),
    })
    out = bipartite_project(rd.from_arrow(t), key_col="k",
                            val_col="v").to_pandas()
    got = {(r.a, r.b): r.n_shared for r in out.itertuples()}
    assert got == {(10, 20): 2, (10, 30): 1, (20, 30): 1}
    # key 1 has 3 distinct vals: over cap=2 it raises, never drops its pairs
    with pytest.raises(ValueError, match="key 1 is shared by 3 vals"):
        bipartite_project(rd.from_arrow(t), key_col="k", val_col="v",
                          cap=2).materialize()
