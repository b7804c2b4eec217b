import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from raygraph import kernels as K
from tests import fixtures as fx


def _vec(idx, vals) -> pa.Table:
    return pa.table({"v": np.asarray(idx, np.uint64), "val": np.asarray(vals, np.float64)})


def _as_dict(x):
    t = K.to_table(x)
    return dict(zip(t["v"].to_pylist(), t["val"].to_pylist()))


EDGES7 = fx.edge_table(fx.A7_ROWS, fx.A7_COLS, fx.A7_VALS)
V7 = _vec(fx.V7_IDX, fx.V7_VALS)


# -------------------------------------------------------------- mxv / vxm ----


def test_mxv_plus_times_reference_fixture():
    # w[i] = sum_j A[i,j]*v[j] on the reference 7x7 fixture
    A = fx.a7_dense()
    x = np.zeros(7)
    x[fx.V7_IDX.astype(int)] = fx.V7_VALS
    want = A @ x
    got = _as_dict(K.mxv(EDGES7, V7, "plus_times"))
    for i in range(7):
        if want[i] != 0 or i in got:
            assert got.get(i, 0.0) == want[i]


def test_mxv_sparsity_missing_stays_missing():
    got = _as_dict(K.mxv(EDGES7, _vec([0], [5.0]), "plus_times"))
    # only rows with an edge into column 0 produce a value (row 3: A[3,0]=3)
    assert got == {3: 15.0}


def test_vxm_and_salting_agree():
    A = fx.a7_dense()
    x = np.zeros(7)
    x[fx.V7_IDX.astype(int)] = fx.V7_VALS
    want = x @ A
    got = _as_dict(K.vxm(V7, EDGES7, "plus_times"))
    for j in range(7):
        if want[j] != 0 or j in got:
            assert got.get(j, 0.0) == pytest.approx(want[j])


def test_mxv_min_plus():
    got = _as_dict(K.mxv(EDGES7, _vec([1, 6], [10.0, 1.0]), "min_plus"))
    # row 0: A[0,1]=2 -> 12 ; row 1: A[1,6]=4 -> 5 (min over j)
    assert got[0] == 12.0
    assert got[1] == 5.0


# ------------------------------------------------------------------ ewise ----


def test_ewise_add_union_semantics():
    a = _vec([0, 1, 3], [1.0, 2.0, 3.0])
    b = _vec([1, 2], [10.0, 20.0])
    got = _as_dict(K.ewise_add(a, b, "plus"))
    assert got == {0: 1.0, 1: 12.0, 2: 20.0, 3: 3.0}


def test_ewise_mult_intersection_semantics():
    a = _vec([0, 1, 3], [1.0, 2.0, 3.0])
    b = _vec([1, 2, 3], [10.0, 20.0, 4.0])
    got = _as_dict(K.ewise_mult(a, b, "times"))
    assert got == {1: 20.0, 3: 12.0}


def test_ewise_union_defaults():
    a = _vec([0, 1], [1.0, 2.0])
    b = _vec([1, 2], [10.0, 20.0])
    got = _as_dict(K.ewise_union(a, b, "minus", left_default=0.0, right_default=100.0))
    assert got == {0: 1.0 - 100.0, 1: -8.0, 2: -20.0}


# ------------------------------------------------------- apply/select/misc ----


def test_apply_unary_and_bound_binary():
    a = _vec([0, 1], [-2.0, 9.0])
    assert _as_dict(K.apply(a, "abs")) == {0: 2.0, 1: 9.0}
    assert _as_dict(K.apply(a, "plus", right=1.0)) == {0: -1.0, 1: 10.0}
    assert _as_dict(K.apply(a, "minus", left=10.0)) == {0: 12.0, 1: 1.0}


def test_select_value_and_positional():
    sel = K.select_value(rd.from_arrow(EDGES7), ">=", 5.0, col="w")
    t = K.to_table(sel, sort_by=None)
    assert sorted(t["w"].to_pylist()) == [5.0, 7.0, 7.0, 8.0]
    triu = K.to_table(K.select_positional(EDGES7, "triu"), sort_by=None)
    s = np.asarray(triu["src"].to_pylist())
    d = np.asarray(triu["dst"].to_pylist())
    assert (d >= s).all()
    diag = K.to_table(K.select_positional(EDGES7, "diag"), sort_by=None)
    assert diag.num_rows == 0


def test_reduce_rowwise_and_scalar():
    deg = _as_dict(K.reduce_rowwise(EDGES7, "plus"))
    A = fx.a7_dense()
    want = A.sum(axis=1)
    for i, w in enumerate(want):
        if w:
            assert deg[i] == w
    assert K.reduce_scalar(rd.from_arrow(EDGES7), "plus", col="w") == A.sum()
    assert K.reduce_scalar(rd.from_arrow(EDGES7), "max", col="w") == 8.0
    assert K.reduce_scalar(rd.from_arrow(V7), "min") == 0.0


def test_transpose():
    t = K.to_table(K.transpose(EDGES7), sort_by=None)
    A = fx.a7_dense()
    At = fx.dense_of(t["src"].to_pylist(), t["dst"].to_pylist(), t["w"].to_pylist(), 7)
    assert np.array_equal(At, A.T)


# ------------------------------------------------------ mask/accum (merge) ----


def test_merge_truth_table_plain_and_accum():
    old = _vec([0, 1], [1.0, 2.0])
    new = _vec([1, 2], [10.0, 20.0])
    assert _as_dict(K.merge(old, new)) == {0: 1.0, 1: 10.0, 2: 20.0}
    assert _as_dict(K.merge(old, new, accum="plus")) == {0: 1.0, 1: 12.0, 2: 20.0}


def test_merge_structural_mask_and_complement():
    old = _vec([0, 1], [1.0, 2.0])
    new = _vec([1, 2, 3], [10.0, 20.0, 30.0])
    mask = _vec([1, 3], [1.0, 0.0])
    # structural: only targets 1,3 writable
    assert _as_dict(K.merge(old, new, mask=mask)) == {0: 1.0, 1: 10.0, 3: 30.0}
    # complemented: only targets outside mask writable; GrB masked write
    # with no accum DELETES in-mask(=outside-M here) old elements absent
    # from new — old key 0 is writable but new has nothing there
    assert _as_dict(K.merge(old, new, mask=mask, complement=True)) == {1: 2.0, 2: 20.0}
    # value mask: mask value must be truthy -> 3 is masked out
    assert _as_dict(K.merge(old, new, mask=mask, value_mask=True)) == {0: 1.0, 1: 10.0}
    # replace: old elements outside the mask dropped
    assert _as_dict(K.merge(old, new, mask=mask, replace=True)) == {1: 10.0, 3: 30.0}


# ------------------------------------------------------- extract / assign ----


def test_extract_with_duplicates_and_remap():
    vec = _vec([2, 5, 7], [20.0, 50.0, 70.0])
    got = _as_dict(K.extract(vec, np.array([5, 2, 5, 9], np.uint64)))
    # remapped to positions; index 9 absent from vec -> absent from output
    assert got == {0: 50.0, 1: 20.0, 2: 50.0}
    got2 = _as_dict(K.extract(vec, np.array([5, 2], np.uint64), remap=False))
    assert got2 == {2: 20.0, 5: 50.0}


def test_assign_reduce_duplicate_targets_min():
    vec = _vec([0, 1, 2], [5.0, 5.0, 5.0])
    updates = pa.table({"v": np.array([1, 1, 2], np.uint64),
                        "val": np.array([9.0, 3.0, 7.0])})
    got = _as_dict(K.assign_reduce(vec, updates, dup_monoid="min", accum="min"))
    assert got == {0: 5.0, 1: 3.0, 2: 5.0}


def test_isequal_isclose():
    a = _vec([0, 1], [1.0, 2.0])
    assert K.isequal(a, _vec([0, 1], [1.0, 2.0]))
    assert not K.isequal(a, _vec([0, 1], [1.0, 2.1]))       # value differs
    assert not K.isequal(a, _vec([0, 2], [1.0, 2.0]))       # structure differs
    assert not K.isequal(a, _vec([0], [1.0]))               # missing element
    assert K.isclose(a, _vec([0, 1], [1.0 + 1e-9, 2.0]), rel_tol=1e-7)
    assert not K.isclose(a, _vec([0, 1], [1.01, 2.0]), rel_tol=1e-7)


def test_selectk_rowwise():
    out = K.to_table(K.selectk_rowwise(EDGES7, 2), sort_by=None).to_pandas()
    A = fx.a7_dense()
    for src, g in out.groupby("src"):
        row = A[int(src)]
        want = sorted(row[row != 0], reverse=True)[:2]
        assert sorted(g["w"], reverse=True) == want


def test_sort_rowwise():
    out = K.to_table(K.sort_rowwise(EDGES7, ascending=True), sort_by=None).to_pandas()
    A = fx.a7_dense()
    for src, g in out.groupby("src"):
        g = g.sort_values("rank")
        row = A[int(src)]
        assert list(g["rank"]) == list(range(len(g)))          # dense 0-based ranks
        assert list(g["w"]) == sorted(row[row != 0])           # values sorted
        # permutation column: dst at rank r reproduces the row's entries
        assert sorted(g["dst"]) == sorted(np.flatnonzero(row))
        got = {(d, w) for d, w in zip(g["dst"], g["w"])}
        want = {(d, row[d]) for d in np.flatnonzero(row)}
        assert got == want


def test_mxm_matches_dense():
    got = K.to_table(K.mxm(EDGES7, EDGES7, "plus_times"), sort_by=None).to_pandas()
    A = fx.a7_dense()
    want = A @ A
    dense = np.zeros((7, 7))
    dense[got["src"].astype(int), got["dst"].astype(int)] = got["w"]
    assert np.allclose(dense, want)
    # sparsity: zero entries are absent, not stored
    assert (got["w"] != 0).all()


def test_mxm_min_plus():
    got = K.to_table(K.mxm(EDGES7, EDGES7, "min_plus"), sort_by=None).to_pandas()
    A = fx.a7_dense()
    INF = np.inf
    Ap = np.where(A != 0, A, INF)
    want = np.full((7, 7), INF)
    for i in range(7):
        for j in range(7):
            want[i, j] = np.min(Ap[i, :] + Ap[:, j])
    for _, r in got.iterrows():
        assert r["w"] == want[int(r["src"]), int(r["dst"])]


def test_input_mask_truth_table():
    """input_mask semantics (reference core/base.py:335-343): the INPUT
    is filtered by the mask's structure (or truthy values) BEFORE the
    op — a masked-out element is absent even when its index is asked."""
    vec = _vec([1, 2, 3, 4], [10.0, 20.0, 30.0, 40.0])
    mask = _vec([2, 3, 5], [1.0, 0.0, 1.0])  # 3 present but falsy
    idx = np.arange(1, 6, dtype=np.uint64)
    # structural: presence only — 2 and 3 pass
    got = _as_dict(K.extract(vec, idx, remap=False, input_mask=mask))
    assert got == {2: 20.0, 3: 30.0}
    # value mask: only truthy mask values pass
    got = _as_dict(K.extract(vec, idx, remap=False, input_mask=mask,
                             input_value_mask=True))
    assert got == {2: 20.0}
    # complement: vec elements NOT in the mask structure
    got = _as_dict(K.extract(vec, idx, remap=False, input_mask=mask,
                             input_mask_complement=True))
    assert got == {1: 10.0, 4: 40.0}
    # mxv with input_mask == mxv against the pre-filtered vector
    e = fx.edge_table(fx.A7_ROWS, fx.A7_COLS, fx.A7_VALS)
    v7 = _vec([1, 3, 4, 6], [1.0, 1.0, 2.0, 0.0])
    m7 = _vec([1, 4], [1.0, 1.0])
    got = _as_dict(K.mxv(e, v7, "plus_times", input_mask=m7))
    want = _as_dict(K.mxv(e, _vec([1, 4], [1.0, 2.0]), "plus_times"))
    assert got == want


def test_reduce_rowwise_agg_dense_oracle():
    """Per-row composite aggregators vs the dense numpy answer; args
    tie-break to the smallest dst."""
    A = fx.a7_dense()
    got = K.to_table(K.reduce_rowwise_agg(
        EDGES7, ["count", "mean", "min", "max", "argmin", "argmax"]),
        sort_by=None).to_pandas().set_index("v").sort_index()
    for i in range(7):
        row = A[i]
        nz = np.flatnonzero(row)
        if len(nz) == 0:
            assert i not in got.index
            continue
        r = got.loc[i]
        assert int(r["count"]) == len(nz)
        np.testing.assert_allclose(r["mean"], row[nz].mean(), rtol=1e-12)
        assert r["min"] == row[nz].min() and r["max"] == row[nz].max()
        assert int(r["argmin"]) == int(nz[np.argmin(row[nz])])
        assert int(r["argmax"]) == int(nz[np.argmax(row[nz])])
    with pytest.raises(KeyError):
        K.reduce_rowwise_agg(EDGES7, ["median"])


def test_mxv_output_mask_pushdown():
    """w(mask) << A.mxv(v): equals the unmasked product filtered by the
    mask's structure; complement partitions it."""
    e = EDGES7
    v7 = _vec([1, 3, 4, 6], [1.0, 1.0, 2.0, 0.0])
    m7 = _vec([0, 1, 6], [1.0, 1.0, 1.0])
    full = _as_dict(K.mxv(e, v7, "plus_times"))
    got_m = _as_dict(K.mxv(e, v7, "plus_times", mask=m7))
    got_c = _as_dict(K.mxv(e, v7, "plus_times", mask=m7, mask_complement=True))
    mk = {0, 1, 6}
    assert got_m == {k: x for k, x in full.items() if k in mk}
    assert got_c == {k: x for k, x in full.items() if k not in mk}
    # co-group (Dataset) path takes the same pushdown
    got_ds = _as_dict(K.mxv(rd.from_arrow(e), rd.from_arrow(v7),
                            "plus_times", mask=rd.from_arrow(m7),
                            distribute="cogroup"))
    assert got_ds == got_m


def test_extract_submatrix_dense_oracle():
    """A[rows, cols] with duplicate indices on both axes vs the dense
    numpy gather (reference core/matrix.py:2906 remap semantics)."""
    A = fx.a7_dense()
    rows = np.array([3, 0, 6, 0], np.uint64)   # dup 0
    cols = np.array([2, 5, 2], np.uint64)      # dup 2
    got = K.to_table(K.extract_submatrix(EDGES7, rows, cols),
                     sort_by=None).to_pandas()
    want = A[np.ix_(rows.astype(int), cols.astype(int))]
    dense = np.zeros_like(want)
    dense[got["src"].astype(int), got["dst"].astype(int)] = got["w"]
    assert np.array_equal(dense, want)
    assert (got["w"] != 0).all()  # only stored entries, no explicit zeros


def test_assign_submatrix_replace_and_accum():
    """GrB C[I,J] << A: no-accum REPLACES the region pattern (in-region
    entries absent from A are deleted); accum keeps the union."""
    A = fx.a7_dense()
    rows = np.array([0, 3, 6], np.uint64)
    cols = np.array([2, 3, 4], np.uint64)
    # A_sub in position space: one entry (p=1, q=0) -> target (3, 2)
    sub = rd.from_arrow(pa.table({"src": np.array([1], np.uint64),
                                  "dst": np.array([0], np.uint64),
                                  "w": np.array([99.0], np.float64)}))
    got = K.to_table(K.assign_submatrix(EDGES7, rows, cols, sub),
                     sort_by=None).to_pandas()
    dense = np.zeros((7, 7))
    dense[got["src"].astype(int), got["dst"].astype(int)] = got["w"]
    want = A.copy()
    want[np.ix_(rows.astype(int), cols.astype(int))] = 0.0  # region replaced
    want[3, 2] = 99.0
    assert np.array_equal(dense, want)
    # accum: union pattern, plus where both
    got2 = K.to_table(K.assign_submatrix(EDGES7, rows, cols, sub, accum="plus"),
                      sort_by=None).to_pandas()
    dense2 = np.zeros((7, 7))
    dense2[got2["src"].astype(int), got2["dst"].astype(int)] = got2["w"]
    want2 = A.copy()
    want2[3, 2] += 99.0
    assert np.array_equal(dense2, want2)
    # duplicate targets refused
    with pytest.raises(ValueError, match="duplicate"):
        K.assign_submatrix(EDGES7, np.array([1, 1], np.uint64), cols, sub)


def test_mxm_masked_and_complement():
    """C(mask) << A.mxm(B) — structural mask and its complement partition
    the unmasked product exactly (reference core/mask.py:131-200)."""
    A = fx.a7_dense()
    want = A @ A
    # mask = the sparsity pattern of A itself
    got_m = K.to_table(K.mxm(EDGES7, EDGES7, "plus_times", mask=EDGES7),
                       sort_by=None).to_pandas()
    got_c = K.to_table(
        K.mxm(EDGES7, EDGES7, "plus_times", mask=EDGES7, complement=True),
        sort_by=None).to_pandas()
    prod_keys = {(i, j) for i, j in zip(*np.nonzero(want))}
    mask_keys = {(int(r), int(c)) for r, c in zip(fx.A7_ROWS, fx.A7_COLS)}
    assert {(int(r), int(c)) for r, c in zip(got_m["src"], got_m["dst"])} == (
        prod_keys & mask_keys)
    assert {(int(r), int(c)) for r, c in zip(got_c["src"], got_c["dst"])} == (
        prod_keys - mask_keys)
    for df in (got_m, got_c):
        for _, r in df.iterrows():
            assert r["w"] == want[int(r["src"]), int(r["dst"])]
    # masked ∪ complement == unmasked
    full = K.to_table(K.mxm(EDGES7, EDGES7, "plus_times"), sort_by=None)
    assert len(got_m) + len(got_c) == full.num_rows


def test_mxm_dot_broadcast_and_exchange_paths_agree():
    """dot mode has two internal shapes — the broadcast-semijoin prefilter
    (sparse masks) and the full bucketed exchange (masks too large to
    broadcast). Pin the threshold to 0 to force the exchange path and
    check both match wedge mode bit-for-bit."""
    def as_dict(tbl):
        df = tbl.to_pandas()
        return {(int(r["src"]), int(r["dst"])): r["w"]
                for _, r in df.iterrows()}

    want = as_dict(K.to_table(
        K.mxm(EDGES7, EDGES7, "plus_times", mask=EDGES7, mode="wedge"),
        sort_by=None))
    got_bcast = as_dict(K.to_table(
        K.mxm(EDGES7, EDGES7, "plus_times", mask=EDGES7, mode="dot"),
        sort_by=None))
    assert got_bcast == want
    old = K.MXM_DOT_BROADCAST_MAX
    K.MXM_DOT_BROADCAST_MAX = 0
    try:
        got_exch = as_dict(K.to_table(
            K.mxm(EDGES7, EDGES7, "plus_times", mask=EDGES7, mode="dot"),
            sort_by=None))
    finally:
        K.MXM_DOT_BROADCAST_MAX = old
    assert got_exch == want


def test_mxm_pattern_only_inputs():
    """Edge tables without a ``w`` column are pattern-only (weight 1.0) —
    both execution modes and the mask side accept them."""
    import pyarrow as pa

    pat = EDGES7.select(["src", "dst"])
    ones = pat.append_column("w", pa.array(np.ones(pat.num_rows)))
    def as_set(tbl):
        df = tbl.to_pandas()
        return {(int(r["src"]), int(r["dst"]), r["w"]) for _, r in df.iterrows()}
    want = as_set(K.to_table(
        K.mxm(ones, ones, "plus_times", mask=ones, mode="wedge"), sort_by=None))
    got_w = as_set(K.to_table(
        K.mxm(pat, pat, "plus_times", mask=pat, mode="wedge"), sort_by=None))
    got_d = as_set(K.to_table(
        K.mxm(pat, pat, "plus_times", mask=pat, mode="dot"), sort_by=None))
    assert got_w == want and got_d == want


def test_diag_round_trip_and_inner_outer():
    v = _vec([1, 3], [2.0, 5.0])
    d = K.to_table(K.diag_matrix(v), sort_by=None)
    assert d.num_rows == 2 and d["src"].to_pylist() == d["dst"].to_pylist()
    back = _as_dict(K.diag_extract(d))
    assert back == {1: 2.0, 3: 5.0}
    assert K.inner(v, _vec([1, 3], [10.0, 1.0]), "plus_times") == 25.0
    o = K.to_table(K.outer(v, _vec([0, 2], [3.0, 4.0]), "times"), sort_by=None)
    assert o.num_rows == 4
    got = {(int(s), int(dd)): w for s, dd, w in zip(o["src"].to_pylist(),
                                                    o["dst"].to_pylist(),
                                                    o["w"].to_pylist())}
    assert got == {(1, 0): 6.0, (1, 2): 8.0, (3, 0): 15.0, (3, 2): 20.0}


def test_reposition_and_positional():
    v = _vec([1, 3], [2.0, 5.0])
    assert _as_dict(K.reposition(v, 10)) == {11: 2.0, 13: 5.0}
    # positional apply: value = (shifted) index, int64 like the reference
    assert _as_dict(K.apply_positional(v, "index")) == {1: 1, 3: 3}
    assert _as_dict(K.apply_positional(v, "index", thunk=5)) == {1: 6, 3: 8}
    e = fx.edge_table(np.array([2, 4], np.uint64), np.array([7, 9], np.uint64),
                      np.array([1.0, 1.0]))
    got = K.to_table(K.apply_positional(e, "columnindex"), sort_by=None)
    assert got["w"].to_pylist() == [7, 9]


def test_merge_replace_no_mask_clears_old():
    # GrB C(replace) << new with no mask and no accum: C = new exactly
    old = _vec([0, 1, 2], [1.0, 2.0, 3.0])
    new = _vec([1, 5], [20.0, 50.0])
    got = _as_dict(K.merge(old, new, replace=True))
    assert got == {1: 20.0, 5: 50.0}
    # with accum, Z = C (+) T has union structure: replace is a no-op
    got2 = _as_dict(K.merge(old, new, accum="plus", replace=True))
    assert got2 == {0: 1.0, 1: 22.0, 2: 3.0, 5: 50.0}


def test_salted_aggregate_times_fallback():
    # monoids without a Ray builtin aggregate route through the
    # reduceat-based map_groups fallback
    edges = pa.table({"src": np.array([0, 0, 0, 1], np.uint64),
                      "dst": np.array([1, 2, 3, 2], np.uint64),
                      "w": np.array([2.0, 3.0, 4.0, 5.0])})
    got = _as_dict(K.reduce_rowwise(edges, "times"))
    assert got == {0: 24.0, 1: 5.0}
    # bitwise monoid over integer-valued floats
    edges2 = pa.table({"src": np.array([0, 0], np.uint64),
                       "dst": np.array([1, 2], np.uint64),
                       "w": np.array([6.0, 3.0])})
    got2 = _as_dict(K.reduce_rowwise(edges2, "band"))
    assert got2 == {0: float(6 & 3)}


def test_mxv_cogroup_matches_broadcast():
    """The scale path (vector rides the shuffle) equals the broadcast path."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    n = 300
    src = rng.integers(0, n, 4000).astype(np.uint64)
    dst = rng.integers(0, n, 4000).astype(np.uint64)
    w = np.round(rng.uniform(0, 10, 4000), 3)
    edges = pa.table({"src": src, "dst": dst, "w": w})
    vids = np.arange(0, n, 2, dtype=np.uint64)  # half the ids present
    vec = pa.table({"v": vids, "val": np.round(rng.uniform(-5, 5, len(vids)), 3)})
    for sem in ("plus_times", "min_plus"):
        bt = K.to_table(K.mxv(edges, vec, sem, distribute="broadcast"))
        ct = K.to_table(K.mxv(edges, vec, sem, distribute="cogroup"))
        assert bt.column_names == ct.column_names
        np.testing.assert_array_equal(bt["v"].to_numpy(), ct["v"].to_numpy())
        np.testing.assert_allclose(bt["val"].to_numpy(), ct["val"].to_numpy(),
                                   rtol=0, atol=1e-12)
        # vxm too (transposed orientation)
        bt = K.to_table(K.vxm(vec, edges, sem, distribute="broadcast"))
        ct = K.to_table(K.vxm(vec, edges, sem, distribute="cogroup"))
        np.testing.assert_array_equal(bt["v"].to_numpy(), ct["v"].to_numpy())
        np.testing.assert_allclose(bt["val"].to_numpy(), ct["val"].to_numpy(),
                                   rtol=0, atol=1e-12)
    # a Dataset-typed vector must auto-route through the cogroup path
    ds_vec = rd.from_arrow(vec)
    at = K.to_table(K.mxv(edges, ds_vec, "plus_times"))
    bt = K.to_table(K.mxv(edges, vec, "plus_times", distribute="broadcast"))
    np.testing.assert_allclose(at["val"].to_numpy(), bt["val"].to_numpy(),
                               rtol=0, atol=1e-12)


def test_typed_int64_exactness_above_2_53():
    """int64 payloads survive ewise/merge/extract exactly (no float64
    round-trip: 2^53+1 etc. would be corrupted by the r1 kernels)."""
    big = 2**60
    va = pa.table({"v": np.array([1, 2, 3], np.uint64),
                   "val": np.array([big + 1, big + 3, 7], np.int64)})
    vb = pa.table({"v": np.array([2, 3, 4], np.uint64),
                   "val": np.array([1, big + 5, big + 7], np.int64)})
    out = K.to_table(K.ewise_add(va, vb, "plus"))
    got = dict(zip(out["v"].to_pylist(), out["val"].to_pylist()))
    assert out["val"].type == pa.int64()
    assert got == {1: big + 1, 2: big + 4, 3: big + 12, 4: big + 7}
    out = K.to_table(K.ewise_mult(va, vb, "min"))
    got = dict(zip(out["v"].to_pylist(), out["val"].to_pylist()))
    assert got == {2: 1, 3: 7}
    out = K.to_table(K.merge(va, vb, accum="plus"))
    got = dict(zip(out["v"].to_pylist(), out["val"].to_pylist()))
    assert got[3] == big + 12 or got[3] == 7 + big + 5
    out = K.to_table(K.extract(va, np.array([3, 3, 1], np.uint64)))
    assert out["val"].to_pylist() == [7, 7, big + 1]
    assert out["val"].type == pa.int64()
    # bool vectors stay bool through ewise
    ba = pa.table({"v": np.array([1, 2], np.uint64),
                   "val": np.array([True, False])})
    bb = pa.table({"v": np.array([2, 3], np.uint64),
                   "val": np.array([True, True])})
    out = K.to_table(K.ewise_add(ba, bb, "lor"))
    assert out["val"].type == pa.bool_()


def test_matrix_ewise_ops():
    ea = pa.table({"src": np.array([0, 0, 1], np.uint64),
                   "dst": np.array([1, 2, 2], np.uint64),
                   "w": np.array([1.0, 2.0, 3.0])})
    eb = pa.table({"src": np.array([0, 1, 2], np.uint64),
                   "dst": np.array([2, 2, 0], np.uint64),
                   "w": np.array([10.0, 20.0, 30.0])})
    t = K.to_table(K.ewise_add_matrix(ea, eb, "plus"), sort_by=None).sort_by(
        [("src", "ascending"), ("dst", "ascending")])
    rows = list(zip(t["src"].to_pylist(), t["dst"].to_pylist(), t["w"].to_pylist()))
    assert rows == [(0, 1, 1.0), (0, 2, 12.0), (1, 2, 23.0), (2, 0, 30.0)]
    t = K.to_table(K.ewise_mult_matrix(ea, eb, "times"), sort_by=None)
    rows = list(zip(t["src"].to_pylist(), t["dst"].to_pylist(), t["w"].to_pylist()))
    assert rows == [(0, 2, 20.0), (1, 2, 60.0)]
    t = K.to_table(K.ewise_union_matrix(ea, eb, "minus", 0.0, 0.0),
                   sort_by=None).sort_by([("src", "ascending"), ("dst", "ascending")])
    rows = list(zip(t["src"].to_pylist(), t["dst"].to_pylist(), t["w"].to_pylist()))
    assert rows == [(0, 1, 1.0), (0, 2, -8.0), (1, 2, -17.0), (2, 0, -30.0)]
    # int64 weights stay exact
    big = 2**58
    ia = pa.table({"src": np.array([0], np.uint64), "dst": np.array([1], np.uint64),
                   "w": np.array([big + 1], np.int64)})
    ib = pa.table({"src": np.array([0], np.uint64), "dst": np.array([1], np.uint64),
                   "w": np.array([big + 2], np.int64)})
    t = K.to_table(K.ewise_add_matrix(ia, ib, "plus"), sort_by=None)
    assert t["w"].to_pylist() == [2 * big + 3]


def test_vector_agg_composites():
    rng = np.random.default_rng(11)
    v = np.arange(1, 301, dtype=np.uint64)
    val = np.round(rng.uniform(-50, 50, 300), 2)
    val[5] = 0.0
    vec = pa.table({"v": v, "val": val})
    agg = K.vector_agg(vec, ["count", "mean", "argmin", "argmax", "varp",
                             "vars", "stdp", "stds", "L0norm", "L1norm",
                             "L2norm", "Linfnorm", "first_index", "last_index"])
    assert agg["count"] == 300
    np.testing.assert_allclose(agg["mean"], val.mean(), rtol=1e-12)
    assert agg["argmin"] == int(v[np.argmin(val)])
    assert agg["argmax"] == int(v[np.argmax(val)])
    np.testing.assert_allclose(agg["varp"], val.var(), rtol=1e-9)
    np.testing.assert_allclose(agg["vars"], val.var(ddof=1), rtol=1e-9)
    np.testing.assert_allclose(agg["stdp"], val.std(), rtol=1e-9)
    np.testing.assert_allclose(agg["stds"], val.std(ddof=1), rtol=1e-9)
    assert agg["L0norm"] == int((val != 0).sum())
    np.testing.assert_allclose(agg["L1norm"], np.abs(val).sum(), rtol=1e-12)
    np.testing.assert_allclose(agg["L2norm"], np.sqrt((val * val).sum()), rtol=1e-12)
    assert agg["Linfnorm"] == np.abs(val).max()
    assert agg["first_index"] == 1 and agg["last_index"] == 300


def test_vector_agg_tail():
    """Aggregator long tail vs direct numpy (reference agg.py:290-680):
    geometric/harmonic mean, stable logaddexp(2), peak_to_peak,
    sum_of_inverses, exists, bitwise_all/any."""
    rng = np.random.default_rng(5)
    v = np.arange(1, 201, dtype=np.uint64)
    val = np.round(rng.uniform(0.5, 9.0, 200), 3)
    vec = pa.table({"v": v, "val": val})
    agg = K.vector_agg(vec, ["geometric_mean", "harmonic_mean", "logaddexp",
                             "logaddexp2", "peak_to_peak",
                             "sum_of_inverses", "exists"])
    np.testing.assert_allclose(agg["geometric_mean"],
                               np.exp(np.log(val).mean()), rtol=1e-12)
    np.testing.assert_allclose(agg["harmonic_mean"],
                               len(val) / (1.0 / val).sum(), rtol=1e-12)
    np.testing.assert_allclose(agg["logaddexp"],
                               np.logaddexp.reduce(val), rtol=1e-12)
    np.testing.assert_allclose(agg["logaddexp2"],
                               np.logaddexp2.reduce(val), rtol=1e-12)
    np.testing.assert_allclose(agg["peak_to_peak"], val.max() - val.min())
    np.testing.assert_allclose(agg["sum_of_inverses"], (1.0 / val).sum(),
                               rtol=1e-12)
    assert agg["exists"] == 1
    ints = rng.integers(0, 2**40, size=64).astype(np.int64)
    ivec = pa.table({"v": np.arange(64, dtype=np.uint64), "val": ints})
    iagg = K.vector_agg(ivec, ["bitwise_all", "bitwise_any"])
    assert iagg["bitwise_all"] == int(np.bitwise_and.reduce(ints))
    assert iagg["bitwise_any"] == int(np.bitwise_or.reduce(ints))
    with pytest.raises(ValueError, match="not integral"):
        K.vector_agg(vec, ["bitwise_all"])


def test_select_positional_thunk_and_index():
    e = pa.table({"src": np.array([0, 5, 10, 20], np.uint64),
                  "dst": np.array([9, 5, 2, 30], np.uint64),
                  "w": np.ones(4)})
    t = K.to_table(K.select_positional(e, "rowle", 5), sort_by=None)
    assert t["src"].to_pylist() == [0, 5]
    t = K.to_table(K.select_positional(e, "colgt", 5), sort_by=None)
    assert sorted(t["dst"].to_pylist()) == [9, 30]
    t = K.to_table(K.select_positional(e, "rowgt", 5), sort_by=None)
    assert sorted(t["src"].to_pylist()) == [10, 20]
    t = K.to_table(K.select_positional(e, "colle", 5), sort_by=None)
    assert sorted(t["dst"].to_pylist()) == [2, 5]
    # k-th diagonal select via thunk
    t = K.to_table(K.select_positional(e, "diag", 10), sort_by=None)
    assert t["src"].to_pylist() == [20] and t["dst"].to_pylist() == [30]
    vec = pa.table({"v": np.array([1, 5, 9], np.uint64), "val": np.ones(3)})
    t = K.to_table(K.select_index(vec, "<=", 5))
    assert t["v"].to_pylist() == [1, 5]


def test_kronecker_matches_numpy():
    rng = np.random.default_rng(2)
    A = (rng.random((3, 4)) < 0.5) * np.round(rng.random((3, 4)), 3)
    B = (rng.random((2, 3)) < 0.6) * np.round(rng.random((2, 3)), 3)
    ea = fx.dense_to_edge_table(A)
    eb = fx.dense_to_edge_table(B)
    t = K.to_table(K.kronecker(ea, eb, "times", b_nrows=2, b_ncols=3), sort_by=None)
    got = np.zeros((6, 12))
    got[np.asarray(t["src"]).astype(int), np.asarray(t["dst"]).astype(int)] = \
        np.asarray(t["w"])
    np.testing.assert_allclose(got, np.kron(A, B), atol=1e-12)


def test_power_matches_numpy():
    A = fx.random_graph(12, 0.3, seed=4) * 0.5
    e = fx.dense_to_edge_table(A)
    for n in (1, 2, 3, 4):
        t = K.to_table(K.power(e, n), sort_by=None)
        got = np.zeros((12, 12))
        got[np.asarray(t["src"]).astype(int), np.asarray(t["dst"]).astype(int)] = \
            np.asarray(t["w"])
        np.testing.assert_allclose(got, np.linalg.matrix_power(A, n), atol=1e-9)


# ------------------------------------------------------------ prefix scan ----


def test_scan_vector_monoids():
    # running ⊕ over stored elements in ascending index order
    # (reference Vector.ss.scan, core/ss/prefix_scan.py:12)
    rng = np.random.default_rng(7)
    idx = np.sort(rng.choice(10_000, size=500, replace=False)).astype(np.uint64)
    vals = rng.uniform(-5, 5, size=500)
    for mon, acc in [("plus", np.add), ("min", np.minimum), ("max", np.maximum)]:
        got = K.to_table(K.scan_vector(_vec(idx, vals), mon), sort_by="v")
        np.testing.assert_array_equal(
            np.asarray(got["v"]).astype(np.uint64), idx)
        np.testing.assert_allclose(
            np.asarray(got["val"]), acc.accumulate(vals), rtol=1e-12)


def test_scan_vector_times_int():
    idx = np.arange(20, dtype=np.uint64) * 3
    vals = (np.arange(20) % 3 + 1).astype(np.int64)
    got = K.to_table(K.scan_vector(pa.table({"v": idx, "val": vals}), "times"),
                     sort_by="v")
    np.testing.assert_array_equal(np.asarray(got["val"]),
                                  np.multiply.accumulate(vals))


def test_scan_rowwise_vs_pandas():
    import pandas as pd

    rng = np.random.default_rng(11)
    src = rng.integers(0, 12, size=300).astype(np.uint64)
    dst = rng.integers(0, 40, size=300).astype(np.uint64)
    # dedup (src,dst)
    key = src * 100 + dst
    _, first = np.unique(key, return_index=True)
    src, dst = src[first], dst[first]
    w = rng.uniform(0.5, 2.0, size=len(src))
    e = pa.table({"src": src, "dst": dst, "w": w})
    df = pd.DataFrame({"src": src, "dst": dst, "w": w}).sort_values(["src", "dst"])
    for mon, col in [("plus", df.groupby("src")["w"].cumsum()),
                     ("min", df.groupby("src")["w"].cummin()),
                     ("times", df.groupby("src")["w"].cumprod())]:
        got = K.to_table(K.scan_rowwise(e, mon), sort_by=None).to_pandas()
        got = got.sort_values(["src", "dst"]).reset_index(drop=True)
        np.testing.assert_allclose(got["w"].to_numpy(), col.to_numpy(), rtol=1e-12)


def test_segmented_accumulate_doubling_matches_loop():
    # exercise the generic doubling path with a ufunc pandas can't cum
    from raygraph.kernels import _segmented_accumulate

    rng = np.random.default_rng(3)
    seg = np.sort(rng.integers(0, 8, size=200))
    vals = rng.integers(0, 2**20, size=200).astype(np.uint64)
    got = _segmented_accumulate(np.bitwise_or, vals, seg)
    want = vals.copy()
    for s in np.unique(seg):
        m = seg == s
        want[m] = np.bitwise_or.accumulate(vals[m])
    np.testing.assert_array_equal(got, want)


def test_flatten_reshape_round_trip():
    src = np.array([0, 0, 2, 5], np.uint64)
    dst = np.array([1, 3, 2, 6], np.uint64)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    e = pa.table({"src": src, "dst": dst, "w": w})
    flat = K.to_table(K.flatten_matrix(e, 7), sort_by="v")
    np.testing.assert_array_equal(
        np.asarray(flat["v"]).astype(np.uint64), src * 7 + dst)
    back = K.to_table(K.reshape_vector(flat, 7), sort_by=None).sort_by(
        [("src", "ascending"), ("dst", "ascending")])
    np.testing.assert_array_equal(np.asarray(back["src"]).astype(np.uint64), src)
    np.testing.assert_array_equal(np.asarray(back["dst"]).astype(np.uint64), dst)
    np.testing.assert_allclose(np.asarray(back["w"]), w)
    # reshape 7-col -> 4-col keeps row-wise linear order
    r = K.to_table(K.reshape_matrix(e, 7, 4), sort_by=None)
    lin = np.asarray(r["src"]).astype(np.uint64) * 4 + np.asarray(r["dst"]).astype(np.uint64)
    np.testing.assert_array_equal(np.sort(lin), np.sort(src * 7 + dst))


def test_select_positional_exact_above_2_63():
    # regression: tril/triu must compare in uint64 — an int64 cast wraps
    # ids >= 2^63 (splitmix64 url hashes span the full range)
    import pyarrow as pa
    import ray.data as rd

    from raygraph import kernels as K

    src = np.array([1, 2**63, 2**63 + 5, 7], np.uint64)
    dst = np.array([2**63, 1, 2**63 + 9, 2**53 + 1], np.uint64)
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst,
                                    "w": np.ones(4, np.float64)}))
    tril = K.to_table(K.select_positional(edges, "tril"), sort_by=None)
    got = {(int(s), int(d)) for s, d in zip(tril["src"].to_pylist(),
                                            tril["dst"].to_pylist())}
    want = {(int(s), int(d)) for s, d in zip(src, dst) if int(d) <= int(s)}
    assert got == want
    # rowle with a giant thunk must not round through float64
    rowle = K.to_table(K.select_positional(edges, "rowle", thunk=2**63),
                       sort_by=None)
    got2 = {int(s) for s in rowle["src"].to_pylist()}
    assert got2 == {1, 2**63, 7}
    # negative thunk on an index select: no uint64 wraparound
    vec = rd.from_arrow(pa.table({"v": src, "val": np.ones(4, np.float64)}))
    lt = K.to_table(K.select_index(vec, "<", -1), sort_by=None)
    assert lt.num_rows == 0
    gt = K.to_table(K.select_index(vec, ">", -1), sort_by=None)
    assert gt.num_rows == 4


def test_merge_mask_no_accum_deletes_inmask_old():
    # GraphBLAS C(M) << T (no accum): within the mask C takes T's pattern
    # EXACTLY — old element 1 is in-mask with no new counterpart: deleted.
    # With accum the union pattern keeps it.
    old = _vec([0, 1], [1.0, 2.0])
    new = _vec([3], [30.0])
    mask = _vec([1, 3], [1.0, 1.0])
    assert _as_dict(K.merge(old, new, mask=mask)) == {0: 1.0, 3: 30.0}
    assert _as_dict(K.merge(old, new, mask=mask, accum="plus")) == {
        0: 1.0, 1: 2.0, 3: 30.0}
    # fractional value mask on integer data must stay truthy
    oldi = pa.table({"v": np.array([1, 2], np.uint64),
                     "val": np.array([5, 6], np.int64)})
    newi = pa.table({"v": np.array([1, 2], np.uint64),
                     "val": np.array([7, 8], np.int64)})
    m = _vec([1, 2], [0.5, 0.0])
    got = _as_dict(K.merge(oldi, newi, mask=m, value_mask=True, accum="plus"))
    assert got == {1: 12, 2: 6}


def test_reduce_scalar_int64_exact_above_2_53():
    # regression: float() partials lost low bits of int64 payloads and
    # destroyed bitwise-monoid bit patterns
    big = np.array([(1 << 53) + 1, (1 << 53) + 3], np.int64)
    vec = pa.table({"v": np.array([0, 1], np.uint64), "val": big})
    assert K.reduce_scalar(rd.from_arrow(vec), "max") == (1 << 53) + 3
    assert K.reduce_scalar(rd.from_arrow(vec), "plus") == (1 << 54) + 4
    bits = pa.table({"v": np.array([0, 1], np.uint64),
                     "val": np.array([0b1010, 0b0110], np.int64)})
    assert K.reduce_scalar(rd.from_arrow(bits), "bor") == 0b1110
    assert K.reduce_scalar(rd.from_arrow(bits), "band") == 0b0010


def test_vector_agg_first_last_stored_order():
    """Stored-order positional first/last (reference agg.py:570-680):
    the VALUE at the smallest/largest stored index, independent of the
    value ordering."""
    import pyarrow as pa

    t = pa.table({"v": np.array([7, 2, 40, 11], np.uint64),
                  "val": np.array([1.5, 9.0, -3.0, 4.0])})
    out = K.vector_agg(t, ["first", "last", "first_index", "last_index"])
    assert out["first"] == 9.0        # index 2 is smallest
    assert out["last"] == -3.0        # index 40 is largest
    assert out["first_index"] == 2
    assert out["last_index"] == 40


def test_element_level_get_set_del_round_trip():
    """Single-entry convenience surface (reference core/matrix.py:283-313
    __getitem__/__setitem__/__delitem__) as thin select/merge wrappers."""
    import pyarrow as pa

    v = pa.table({"v": np.array([1, 5], np.uint64),
                  "val": np.array([10.0, 50.0])})
    assert K.vector_get(v, 5) == 50.0
    assert K.vector_get(v, 99) is None
    assert K.vector_get(v, 99, default=-1.0) == -1.0
    v2 = K.to_table(K.vector_set(v, 7, 70.0))
    assert K.vector_get(v2, 7) == 70.0
    v3 = K.to_table(K.vector_set(v2, 5, 55.0))  # overwrite
    assert K.vector_get(v3, 5) == 55.0
    v4 = K.to_table(K.vector_del(v3, 1))
    assert K.vector_get(v4, 1) is None and v4.num_rows == 2

    m = pa.table({"src": np.array([0, 3], np.uint64),
                  "dst": np.array([1, 4], np.uint64),
                  "w": np.array([2.0, 8.0])})
    assert K.matrix_get(m, 3, 4) == 8.0
    assert K.matrix_get(m, 3, 9) is None
    m2 = K.to_table(K.matrix_set(m, 3, 4, 9.0), sort_by=None)
    assert K.matrix_get(m2, 3, 4) == 9.0 and m2.num_rows == 2
    m3 = K.to_table(K.matrix_del(m2, 0, 1), sort_by=None)
    assert K.matrix_get(m3, 0, 1) is None and m3.num_rows == 1


def test_selectk_rowwise_first_last_random():
    """selectk how=first/last (stored order) and deterministic random
    (reference ss.selectk modes, core/ss/matrix.py:3815)."""
    import pyarrow as pa

    src = np.array([1, 1, 1, 2, 2], np.uint64)
    dst = np.array([10, 20, 30, 5, 6], np.uint64)
    w = np.array([9.0, 1.0, 5.0, 2.0, 3.0])
    t = pa.table({"src": src, "dst": dst, "w": w})

    def as_set(ds):
        out = K.to_table(ds, sort_by=None)
        return {(int(a), int(b)) for a, b in
                zip(out["src"].to_pylist(), out["dst"].to_pylist())}

    assert as_set(K.selectk_rowwise(t, 2, how="first")) == \
        {(1, 10), (1, 20), (2, 5), (2, 6)}
    assert as_set(K.selectk_rowwise(t, 2, how="last")) == \
        {(1, 30), (1, 20), (2, 5), (2, 6)}
    assert as_set(K.selectk_rowwise(t, 1, how="largest")) == {(1, 10), (2, 6)}
    # random: deterministic per seed, k elements per row, seed changes pick
    r1 = as_set(K.selectk_rowwise(t, 1, how="random", seed=1))
    r1b = as_set(K.selectk_rowwise(t, 1, how="random", seed=1))
    assert r1 == r1b and len(r1) == 2
    rows = {a for a, _ in r1}
    assert rows == {1, 2}


def test_mxm_update_masked_accum():
    """C(M, plus) << A.mxm(B) — the reference's central matrix update
    idiom (core/base.py:192-260): masked product + masked accum write."""
    import pyarrow as pa

    A = pa.table({"src": np.array([0, 0, 1], np.uint64),
                  "dst": np.array([1, 2, 2], np.uint64),
                  "w": np.array([2.0, 3.0, 4.0])})
    B = pa.table({"src": np.array([1, 2, 2], np.uint64),
                  "dst": np.array([5, 5, 6], np.uint64),
                  "w": np.array([10.0, 100.0, 1000.0])})
    C = pa.table({"src": np.array([0, 9], np.uint64),
                  "dst": np.array([5, 9], np.uint64),
                  "w": np.array([1.0, 7.0])})
    M = pa.table({"src": np.array([0, 9], np.uint64),
                  "dst": np.array([5, 9], np.uint64),
                  "w": np.array([1.0, 1.0])})
    # product under mask: only (0,5) = 2*10 + 3*100 = 320 survives M
    out = K.to_table(K.mxm_update(C, A, B, "plus_times", mask=M,
                                  accum="plus"), sort_by=None)
    got = {(int(a), int(b)): c for a, b, c in
           zip(out["src"].to_pylist(), out["dst"].to_pylist(),
               out["w"].to_pylist())}
    # (0,5): old 1 + product 320 = 321; (9,9): in-mask old with no new
    # survives under accum (Z = C ⊙ T keeps the union pattern)
    assert got == {(0, 5): 321.0, (9, 9): 7.0}
    # replace with no accum: in-mask pattern = T's exactly, out-of-mask
    # old dropped
    out2 = K.to_table(K.mxm_update(C, A, B, "plus_times", mask=M,
                                   replace=True), sort_by=None)
    got2 = {(int(a), int(b)): c for a, b, c in
            zip(out2["src"].to_pylist(), out2["dst"].to_pylist(),
                out2["w"].to_pylist())}
    assert got2 == {(0, 5): 320.0}


# ------------------------------------------------- positional semirings ----
# reference core/operator/base.py:44-90: SuiteSparse GxB positional
# {min,max,plus,times,any} x {firsti,firstj,secondi,secondj}[1]


def test_vxm_noncommutative_operand_order():
    # vxm is f(u_i, a_ij) — the VECTOR is the first operand (reference
    # vector.py:1259). Regression: a flipped implementation returns
    # a_ij - u_i instead of u_i - a_ij.
    from raygraph.ops import register_semiring

    register_semiring("min_minus", "min", "minus")
    edges = fx.edge_table([0], [1], [3.0])
    vec = _vec([0], [10.0])
    for dist in ("cogroup", "broadcast"):
        got = _as_dict(K.vxm(vec, edges, "min_minus", distribute=dist))
        assert got == {1: 7.0}
        # mxv direction: f(a_ij, u_j) = a - u on the transposed edge
        got_m = _as_dict(K.mxv(fx.edge_table([1], [0], [3.0]),
                               vec, "min_minus", distribute=dist))
        assert got_m == {1: -7.0}


def _pos_oracle_mxv(which, off):
    A = fx.a7_dense()
    vset = set(fx.V7_IDX.astype(int))
    out = {}
    for i in range(7):
        for j in range(7):
            if A[i, j] == 0 or j not in vset:
                continue
            val = {"firsti": i, "firstj": j, "secondi": j, "secondj": 0}[which] + off
            out[i] = min(out.get(i, np.inf), float(val))
    return out


@pytest.mark.parametrize("which,off", [("firsti", 0), ("firstj", 1),
                                       ("secondi", 0), ("secondj", 1)])
def test_mxv_positional_all_kinds(which, off):
    name = f"min_{which}" + ("1" if off else "")
    for dist in ("cogroup", "broadcast"):
        got = _as_dict(K.mxv(EDGES7, V7, name, distribute=dist))
        assert got == _pos_oracle_mxv(which, off), (name, dist)


def test_vxm_positional_first_is_vector():
    # vxm f(u_i, a_ij): firstj = i (u' is a 1xn row), secondj = j
    want_fj = {}
    want_sj = {}
    vset = fx.V7_IDX.astype(int)
    A = fx.a7_dense()
    for i in vset:
        for j in range(7):
            if A[i, j] == 0:
                continue
            want_fj[j] = max(want_fj.get(j, -np.inf), float(i))
            want_sj[j] = max(want_sj.get(j, -np.inf), float(j))
    assert _as_dict(K.vxm(V7, EDGES7, "max_firstj")) == want_fj
    assert _as_dict(K.vxm(V7, EDGES7, "max_secondj")) == want_sj


def test_mxm_positional_wedge_and_dot_agree():
    # plus_secondi1: C[i,j] = sum_k (k+1) over wedges — contraction index
    A = fx.a7_dense() != 0
    C = {}
    for i in range(7):
        for j in range(7):
            s = sum(k + 1 for k in range(7) if A[i, k] and A[k, j])
            if s:
                C[(i, j)] = float(s)
    wedge = K.to_table(K.mxm(EDGES7, EDGES7, "plus_secondi1"))
    got_w = {(s, d): w for s, d, w in zip(wedge["src"].to_pylist(),
                                          wedge["dst"].to_pylist(),
                                          wedge["w"].to_pylist())}
    assert got_w == C
    # dot mode at a full mask must agree with wedge mode
    mask = fx.edge_table(*zip(*C.keys()), np.ones(len(C)))
    dot = K.to_table(K.mxm(EDGES7, EDGES7, "plus_secondi1",
                           mask=rd.from_arrow(mask), mode="dot"))
    got_d = {(s, d): w for s, d, w in zip(dot["src"].to_pylist(),
                                          dot["dst"].to_pylist(),
                                          dot["w"].to_pylist())}
    assert got_d == C


def test_inner_rejects_positional():
    with pytest.raises(NotImplementedError):
        K.inner(V7, V7, "plus_firsti")


def test_split_concat_roundtrip():
    # gb.ss.split/concat (reference ss/matrix.py:281,363): tile heights/
    # widths, tile-local indices, concat restores the original
    cuts_r, cuts_c = [3, 4], [2, 5]
    tiled = K.to_table(K.split_matrix(EDGES7, cuts_r, cuts_c))
    A = fx.a7_dense()
    r_off, c_off = [0, 3], [0, 2]
    for tr, tc, s, d, w in zip(tiled["tr"].to_pylist(), tiled["tc"].to_pylist(),
                               tiled["src"].to_pylist(), tiled["dst"].to_pylist(),
                               tiled["w"].to_pylist()):
        gi, gj = r_off[tr] + s, c_off[tc] + d
        assert A[gi, gj] == w
        assert s < cuts_r[tr] and d < cuts_c[tc]
    assert tiled.num_rows == int((A != 0).sum())
    # round trip through the list-of-tables form too
    tiles = []
    for tr in range(2):
        for tc in range(2):
            import pyarrow.compute as pc
            sub = tiled.filter(pc.and_(pc.equal(tiled["tr"], tr),
                                       pc.equal(tiled["tc"], tc)))
            tiles.append((tr, tc, sub.select(["src", "dst", "w"])))
    back = K.to_table(K.concat_matrix(tiles, cuts_r, cuts_c))
    got = {(s, d): w for s, d, w in zip(back["src"].to_pylist(),
                                        back["dst"].to_pylist(),
                                        back["w"].to_pylist())}
    want = {(i, j): float(A[i, j]) for i, j in zip(*np.nonzero(A))}
    assert got == want
    # dataset-form concat inverts split directly
    back2 = K.to_table(K.concat_matrix(K.split_matrix(EDGES7, cuts_r, cuts_c),
                                       cuts_r, cuts_c))
    got2 = {(s, d): w for s, d, w in zip(back2["src"].to_pylist(),
                                         back2["dst"].to_pylist(),
                                         back2["w"].to_pylist())}
    assert got2 == want


def test_resize_truncates():
    # reference matrix.py:494: shrink drops out-of-bounds entries; grow
    # keeps everything (shape is metadata here)
    t = K.to_table(K.resize_matrix(EDGES7, 4, 3))
    A = fx.a7_dense()
    want = {(i, j) for i, j in zip(*np.nonzero(A)) if i < 4 and j < 3}
    assert {(s, d) for s, d in zip(t["src"].to_pylist(), t["dst"].to_pylist())} == want
    assert K.to_table(K.resize_matrix(EDGES7, 100, 100)).num_rows == int((A != 0).sum())
    vt = K.to_table(K.resize_vector(V7, 4))
    assert set(vt["v"].to_pylist()) == {int(i) for i in fx.V7_IDX if i < 4}


def test_selectk_vector_modes():
    # reference Vector.ss.selectk (ss/vector.py:1407)
    vec = _vec([3, 9, 1, 7, 5], [2.0, 8.0, 8.0, 1.0, 4.0])
    big = K.selectk_vector(vec, 2, how="largest")
    assert dict(zip(big["v"].to_pylist(), big["val"].to_pylist())) == {1: 8.0, 9: 8.0}
    small = K.selectk_vector(vec, 2, how="smallest")
    assert dict(zip(small["v"].to_pylist(), small["val"].to_pylist())) == {7: 1.0, 3: 2.0}
    first = K.selectk_vector(vec, 3, how="first")
    assert first["v"].to_pylist() == [1, 3, 5]
    last = K.selectk_vector(vec, 2, how="last")
    assert last["v"].to_pylist() == [7, 9]
    r1 = K.selectk_vector(vec, 2, how="random", seed=4)
    r2 = K.selectk_vector(vec, 2, how="random", seed=4)
    assert r1.equals(r2) and r1.num_rows == 2


def test_compactify_vector_reindexes():
    vec = _vec([3, 9, 1], [5.0, 7.0, 6.0])
    c = K.compactify_vector(vec, 3, how="first")  # stored order: 1,3,9
    assert c["v"].to_pylist() == [0, 1, 2]
    assert c["val"].to_pylist() == [6.0, 5.0, 7.0]
    c2 = K.compactify_vector(vec, 2, how="largest")
    assert c2["v"].to_pylist() == [0, 1]
    assert c2["val"].to_pylist() == [7.0, 6.0]


def test_mxv_positional_with_output_mask():
    # positional product + structural/complement output mask pushdown
    # interact orthogonally
    want_all = _pos_oracle_mxv("secondi", 0)
    keys = sorted(want_all)
    mask = _vec(keys[::2], np.ones(len(keys[::2])))
    got = _as_dict(K.mxv(EDGES7, V7, "min_secondi", mask=mask))
    assert got == {k: want_all[k] for k in keys[::2]}
    got_c = _as_dict(K.mxv(EDGES7, V7, "min_secondi", mask=mask,
                           mask_complement=True))
    assert got_c == {k: want_all[k] for k in keys[1::2]}


def test_diag_offset_roundtrip():
    # gb.ss.diag off-diagonal k (reference ss/_core.py:24): element i at
    # (i, i+k) for k>=0, (i-k, i) for k<0; extract inverts
    vec = _vec([0, 2, 5], [1.0, 2.0, 3.0])
    for k in (0, 2, -3):
        m = K.to_table(K.diag_matrix(vec, k))
        s, d = m["src"].to_pylist(), m["dst"].to_pylist()
        for i, (a, b) in enumerate(zip(s, d)):
            assert (b - a if k >= 0 else a - b) == abs(k)
        back = K.to_table(K.diag_extract(m, k))
        assert dict(zip(back["v"].to_pylist(), back["val"].to_pylist())) == \
            {0: 1.0, 2: 2.0, 5: 3.0}


def test_mxv_int64_exact_above_2_53():
    """Matrix value-dtype fidelity (VERDICT r4 Missing #1): int64 edge
    weights above 2^53 survive mxv exactly on BOTH distribution paths —
    a float64 round-trip anywhere would lose the +7."""
    import pyarrow as pa

    big = np.int64(2**54)
    edges = pa.table({"src": np.array([1, 1, 2], np.uint64),
                      "dst": np.array([10, 11, 10], np.uint64),
                      "w": np.array([big + 7, big + 1031, big + 515],
                                    np.int64)})
    vec = pa.table({"v": np.array([10, 11], np.uint64),
                    "val": np.array([2, 4], np.int64)})
    want = {1: int(big + 9), 2: int(big + 517)}
    for distribute in ("broadcast", "cogroup"):
        t = K.to_table(K.mxv(edges, vec, "min_plus", distribute=distribute))
        assert t["val"].type == pa.int64()
        got = dict(zip(t["v"].to_pylist(), t["val"].to_pylist()))
        assert got == want, (distribute, got)


def test_mxm_int64_exact_and_ewise_matrix_dtype():
    import pyarrow as pa

    big = np.int64(2**54)
    a = pa.table({"src": np.array([0, 0], np.uint64),
                  "dst": np.array([1, 2], np.uint64),
                  "w": np.array([big + 3, big + 5], np.int64)})
    b = pa.table({"src": np.array([1, 2], np.uint64),
                  "dst": np.array([9, 9], np.uint64),
                  "w": np.array([2, 4], np.int64)})
    t = K.to_table(K.mxm(a, b, "min_times"), sort_by=None)
    assert t["w"].type == pa.int64()
    # min(2*(big+3), 4*(big+5)) = 2*big + 6 — exact only in int64
    assert t["w"].to_pylist() == [int(2 * big + 6)]
    u = K.to_table(K.ewise_add_matrix(a, a, "plus"), sort_by=None)
    assert u["w"].type == pa.int64()
    assert sorted(u["w"].to_pylist()) == [int(2 * big + 6),
                                          int(2 * big + 10)]


def test_apply_diagindex():
    import pyarrow as pa

    e = pa.table({"src": np.array([5, 2, 7], np.uint64),
                  "dst": np.array([1, 8, 7], np.uint64),
                  "w": np.ones(3)})
    t = K.to_table(K.apply_positional(e, "diagindex", thunk=3),
                   sort_by=None).sort_by("src")
    assert t["w"].to_pylist() == [9, -1, 3]  # j - i + 3, src-sorted


def test_split_matrix_requires_coverage():
    import pyarrow as pa
    import pytest as _pt

    e = pa.table({"src": np.array([0, 9], np.uint64),
                  "dst": np.array([1, 1], np.uint64),
                  "w": np.ones(2)})
    with _pt.raises(Exception) as ei:
        K.to_table(K.split_matrix(e, [4, 4], [4]), sort_by=None)
    assert "cover" in str(ei.value)


def test_positional_semiring_uint64_exact():
    """ADVICE r4: positional products carry uint64 operand indices —
    vertex ids above 2^53 survive min_secondi exactly."""
    import pyarrow as pa

    hi = np.uint64(2**60)
    edges = pa.table({"src": np.array([1, 1], np.uint64),
                      "dst": np.array([hi + np.uint64(7),
                                       hi + np.uint64(3)], np.uint64),
                      "w": np.ones(2)})
    vec = pa.table({"v": np.array([hi + np.uint64(7), hi + np.uint64(3)],
                                  np.uint64),
                    "val": np.ones(2)})
    t = K.to_table(K.mxv(edges, vec, "min_secondi"))
    assert t["val"].to_pylist() == [int(hi + np.uint64(3))]


def test_contract_quotient_graph():
    # 32-bit fused-key path
    e = pa.table({"src": np.array([0, 1, 2, 8, 9], np.uint64),
                  "dst": np.array([1, 2, 3, 9, 10], np.uint64),
                  "w": [1.0, 2.0, 3.0, 4.0, 5.0]})
    out = K.to_table(K.contract(rd.from_arrow(e), lambda v: v % np.uint64(2)),
                     sort_by=None).sort_by([("src", "ascending"),
                                            ("dst", "ascending")])
    got = {(s, d): (w, m) for s, d, w, m in
           zip(out["src"].to_pylist(), out["dst"].to_pylist(),
               out["w"].to_pylist(), out["m"].to_pylist())}
    # mod2: (0,1)<-{(0,1),(2,3),(8,9)} = 1+3+4; (1,0)<-{(1,2),(9,10)} = 2+5
    assert got == {(0, 1): (8.0, 3), (1, 0): (7.0, 2)}

    # full-range ids exercise the structured lexsort branch
    big = np.uint64(1) << np.uint64(40)
    e2 = pa.table({"src": np.array([big, big + np.uint64(1)], np.uint64),
                   "dst": np.array([big + np.uint64(1), big], np.uint64),
                   "w": [1.5, 2.5]})
    out2 = K.to_table(K.contract(rd.from_arrow(e2),
                                 lambda v: v - big, keep_count=False),
                      sort_by=None).sort_by([("src", "ascending")])
    assert out2["src"].to_pylist() == [0, 1]
    assert out2["w"].to_pylist() == [1.5, 2.5]

    # min-agg variant
    out3 = K.to_table(K.contract(rd.from_arrow(e),
                                 lambda v: np.zeros_like(v), agg="min"),
                      sort_by=None)
    assert out3["w"].to_pylist() == [1.0] and out3["m"].to_pylist() == [5]
