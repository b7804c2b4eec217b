"""The one hash co-group (``kernels._cogroup``): results independent of
the bucket count, full-range uint64 ids kept as uint64 through every
grouped reduce, and a structural guard that no kernel, graph algorithm
or data pipeline hand-rolls its own bucket hash or ``map_groups``
shuffle."""

import ast
import pathlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from raygraph import kernels as K
from raygraph import multival as MV
from raygraph.algorithms import cores, metrics, mis, msf, walks
from raygraph.datapipe import dedup, similarity, text, windows

ROOT = pathlib.Path(__file__).resolve().parents[1] / "raygraph"
BIG = np.uint64(1 << 63)


def _canon(x) -> pa.Table:
    t = K.to_table(x, sort_by=None)
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _ids(rng, n, space=40):
    """Ids in two clusters, one of them above 2^63 (splitmix64 url hashes
    span the full uint64 range)."""
    base = rng.integers(0, space, n).astype(np.uint64)
    return np.where(rng.random(n) < 0.5, base, base + BIG)


def _unique_edges(rng, n, space=40):
    s, d = _ids(rng, n, space), _ids(rng, n, space)
    pairs = np.unique(np.stack([s, d], axis=1), axis=0)
    # integer-valued weights: every ⊕ order sums exactly, so tables from
    # different bucket counts must be bit-identical
    w = rng.integers(-9, 10, len(pairs)).astype(np.float64)
    return pa.table({"src": pairs[:, 0], "dst": pairs[:, 1], "w": w})


def _unique_vec(rng, n, space=40):
    v = np.unique(_ids(rng, n, space))
    return pa.table({"v": v, "val": rng.integers(-9, 10, len(v)).astype(np.float64)})


def _complex(t: pa.Table, rng) -> pa.Table:
    w = t["w"] if "w" in t.column_names else t["val"]
    keys = [c for c in t.column_names if c not in ("w", "val")]
    return pa.table({**{c: t[c] for c in keys}, "re": w,
                     "im": rng.integers(-3, 4, t.num_rows).astype(np.float64)})


def _events(rng, n=300):
    """Events of 25 users over two days; integer-valued values, so every
    per-bucket sum is exact."""
    ts = (np.datetime64("2026-01-01T00:00:00", "s")
          + rng.integers(0, 2 * 86400, n).astype("timedelta64[s]"))
    return pa.table({
        "user_id": rng.integers(0, 25, n).astype(np.int64),
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": rng.integers(-9, 10, n).astype(np.float64),
        "event_type": rng.choice(["view", "click", "purchase", "other"], n),
        "event_id": np.arange(n, dtype=np.int64),
    })


def _docs(rng, n=40):
    """Documents over a six-word vocabulary: many repeated 3-grams."""
    words = np.array([f"w{i}" for i in range(6)])
    return pa.table({
        "doc_id": np.arange(n, dtype=np.int64) * 3,
        "text": [" ".join(rng.choice(words, rng.integers(0, 20)))
                 for _ in range(n)],
    })


def test_results_do_not_depend_on_bucket_count():
    rng = np.random.default_rng(11)
    a, b = _unique_edges(rng, 120), _unique_edges(rng, 120)
    mask_m = _unique_edges(rng, 80)
    va, vb, vm = _unique_vec(rng, 30), _unique_vec(rng, 30), _unique_vec(rng, 20)
    ca, cb = _complex(a, rng), _complex(b, rng)
    cva, cvb = _complex(va, rng), _complex(vb, rng)
    rows = np.unique(a["src"].to_numpy())[:7]
    cols = np.unique(a["dst"].to_numpy())[:9]
    starts = rows[:5]
    two_mode = pa.table({"k": a["src"].to_numpy() % np.uint64(17),
                         "v": a["dst"].to_numpy()})
    ev, docs = rd.from_arrow(_events(rng)), rd.from_arrow(_docs(rng))
    pairs = pa.table({"a": rng.integers(0, 12, 200), "b": rng.integers(0, 12, 200),
                      "v": rng.integers(-9, 10, 200).astype(np.float64)})
    ops = {
        "ewise_add": lambda nb: K.ewise_add(va, vb, num_buckets=nb),
        "merge": lambda nb: K.merge(va, vb, mask=vm, accum="plus",
                                    num_buckets=nb),
        "merge_matrix": lambda nb: K.merge_matrix(a, b, mask=mask_m,
                                                  accum="plus",
                                                  num_buckets=nb),
        "extract_submatrix": lambda nb: K.extract_submatrix(
            a, np.r_[rows, rows[:2]], cols, num_buckets=nb),
        "selectk_rowwise": lambda nb: K.selectk_rowwise(
            a, 2, how="random", seed=3, num_buckets=nb),
        "sort_rowwise": lambda nb: K.sort_rowwise(a, num_buckets=nb),
        "scan_rowwise": lambda nb: K.scan_rowwise(a, num_buckets=nb),
        "reduce_rowwise_agg": lambda nb: K.reduce_rowwise_agg(
            a, ["count", "mean", "min", "max", "argmin", "argmax"],
            num_buckets=nb),
        "mxv_cogroup": lambda nb: K.mxv(a, va, distribute="cogroup",
                                        num_buckets=nb),
        "ewise_add_c": lambda nb: MV.ewise_add_c(cva, cvb, num_buckets=nb),
        "mxm_c": lambda nb: MV.mxm_c(ca, cb, num_buckets=nb),
        # graph algorithms over the same co-group
        "sym_edges": lambda nb: cores.sym_edges(a, num_buckets=nb),
        "kcore": lambda nb: cores.kcore(a, 2, num_buckets=nb),
        "minimum_spanning_forest": lambda nb: msf.minimum_spanning_forest(
            a, num_buckets=nb),
        "maximal_independent_set": lambda nb: mis.maximal_independent_set(
            a, num_buckets=nb),
        "random_walks": lambda nb: walks.random_walks(
            a, starts=starts, steps=3, num_buckets=nb),
        "walk_skipgram_pairs": lambda nb: walks.walk_skipgram_pairs(
            a, starts=starts, steps=3, window=2, num_buckets=nb),
        "reciprocity": lambda nb: metrics.reciprocity(
            pa.concat_tables([a, b]), num_buckets=nb),
        "bipartite_project": lambda nb: metrics.bipartite_project(
            two_mode, key_col="k", val_col="v", num_buckets=nb),
        # data pipelines over the same co-group
        "sessionize": lambda nb: windows.sessionize(ev, num_buckets=nb),
        "funnel": lambda nb: windows.funnel(ev, num_buckets=nb),
        "cohort_retention": lambda nb: windows.cohort_retention(
            ev, period_s=21600, num_buckets=nb),
        "event_transitions": lambda nb: windows.event_transitions(
            ev, num_buckets=nb),
        "range_join_agg": lambda nb: windows.range_join_agg(
            ev, ev, key="user_id", id_col="event_id", before=3600,
            after=3600, exclude_self=True, num_buckets=nb),
        "repeated_ngrams": lambda nb: dedup.repeated_ngrams(
            docs, n=3, num_buckets=nb),
        "distinct_pairs": lambda nb: dedup.distinct_pairs(
            pairs, val_col="v", num_buckets=nb),
        "pack_sequences": lambda nb: text.pack_sequences(
            docs, budget=16, num_buckets=nb),
    }
    for name, op in ops.items():
        want = _canon(op(64))
        assert want.num_rows > 0, name
        for nb in (1, 7):
            assert _canon(op(nb)).equals(want), f"{name} at {nb} buckets"


def test_full_range_ids_stay_uint64_through_grouped_reduces():
    """Ids >= 2^63 come back as uint64 from every grouped reduce: Ray's
    native ``groupby().aggregate`` would return them as pickled Python
    objects, so mxv_c and contract reduce per co-group bucket."""
    ids = BIG + np.array([1, 2, 3], np.uint64)
    src, dst = ids[[0, 0, 1, 2, 2]], ids[[1, 2, 2, 0, 0]]
    w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

    for dtype, cdt in (("fc64", np.float64), ("fc32", np.float32)):
        edges = pa.table({"src": src, "dst": dst, "re": w.astype(cdt),
                          "im": np.ones(5, cdt)})
        vec = pa.table({"v": ids, "re": np.array([1, 2, 3], cdt),
                        "im": np.zeros(3, cdt)})
        out = K.to_table(MV.mxv_c(edges, vec, dtype=dtype))
        assert out.schema == pa.schema([("v", pa.uint64()),
                                        ("re", pa.from_numpy_dtype(cdt)),
                                        ("im", pa.from_numpy_dtype(cdt))])
        A = np.zeros((3, 3), complex)
        np.add.at(A, (src - ids[0], dst - ids[0]), w + 1j)
        want = A @ np.array([1, 2, 3])
        assert out["v"].to_pylist() == [int(i) for i in ids]
        np.testing.assert_allclose(out["re"].to_numpy(), want.real)
        np.testing.assert_allclose(out["im"].to_numpy(), want.imag)

    edges = pa.table({"src": src, "dst": dst, "w": w})
    ct = K.to_table(K.contract(edges, lambda v: v), sort_by=None)
    assert ct.schema == pa.schema([("src", pa.uint64()), ("dst", pa.uint64()),
                                   ("w", pa.float64()), ("m", pa.int64())])
    ct = ct.sort_by([("src", "ascending"), ("dst", "ascending")])
    assert ct["src"].to_pylist() == [int(i) for i in ids[[0, 0, 1, 2]]]
    assert ct["dst"].to_pylist() == [int(i) for i in ids[[1, 2, 2, 0]]]
    assert ct["w"].to_pylist() == [1.0, 2.0, 3.0, 9.0]
    assert ct["m"].to_pylist() == [1, 1, 1, 2]
    bare = K.to_table(K.contract(edges, lambda v: v, agg="max",
                                 keep_count=False), sort_by=None)
    assert bare.column_names == ["src", "dst", "w"]
    assert sorted(bare["w"].to_pylist()) == [1.0, 2.0, 3.0, 5.0]

    rt = K.to_table(K.reduce_rowwise(edges, "plus"))
    assert rt.schema.field("v").type == pa.uint64()


def test_duplicate_entries_within_a_merge_matrix_side_raise():
    a = pa.table({"src": np.array([1, 1], np.uint64),
                  "dst": np.array([2, 2], np.uint64), "w": [1.0, 2.0]})
    b = pa.table({"src": np.array([5], np.uint64),
                  "dst": np.array([6], np.uint64), "w": [1.0]})
    with pytest.raises(ValueError, match="duplicate"):
        K.to_table(K.merge_matrix(a, b))


# --------------------------------------------------------------- guard ----


def _outer_functions_with(tree, pred):
    return {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
            and any(pred(n) for n in ast.walk(f))}


def _is_map_groups(n):
    return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "map_groups")


def _is_bucket_hash(n):
    """``mix64(...) % B`` — a hand-rolled bucket instead of part_of/pair_part."""
    return (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
            and isinstance(n.left, ast.Call)
            and getattr(n.left.func, "id", getattr(n.left.func, "attr", None)) == "mix64")


def _is_bucket_column(n):
    """A string literal naming a hand-rolled bucket column."""
    return isinstance(n, ast.Constant) and n.value in (
        "_bucket", "_side", "_pb", "coarse")


def _is_pair_constant(n):
    return isinstance(n, ast.Constant) and n.value == 0x9E3779B97F4A7C15


def _stmt_name(st):
    """Name a module-level statement by its function or assigned name."""
    if isinstance(st, ast.Assign):
        return ast.unparse(st.targets[0])
    return getattr(st, "name", type(st).__name__)


def test_one_cogroup_and_no_hand_rolled_bucket_hashes():
    kernels = ast.parse((ROOT / "kernels.py").read_text())
    multival = ast.parse((ROOT / "multival.py").read_text())
    triangles = ast.parse((ROOT / "algorithms" / "triangles.py").read_text())
    algos = [ast.parse((ROOT / "algorithms" / f"{m}.py").read_text())
             for m in ("cores", "msf", "mis", "walks", "metrics")]
    # scan_vector keeps range buckets: its carries follow index order
    assert _outer_functions_with(kernels, _is_map_groups) == {"_cogroup", "scan_vector"}
    # triangle_count's rows arrive keyed by part from its orient pass
    assert _outer_functions_with(triangles, _is_map_groups) == {"triangle_count"}
    for tree in [multival, *algos]:
        assert _outer_functions_with(tree, _is_map_groups) == set()
    for tree in [kernels, multival, triangles, *algos]:
        assert not any(_is_bucket_hash(n) for n in ast.walk(tree))
        # the walk step key's multiplier is the walk's own hash, not a bucket
        allowed = {"_K1"} if tree is algos[3] else set()
        assert {_stmt_name(st) for st in tree.body
                if any(_is_pair_constant(n) for n in ast.walk(st))} <= allowed
    # the data pipelines: asof_join's merge_asof takes arbitrary user
    # columns as pandas; group_centroids and dim_stats are per-key finals
    # over vector payloads
    pipes = {m: ast.parse((ROOT / "datapipe" / f"{m}.py").read_text())
             for m in ("windows", "dedup", "text", "similarity")}
    kept = {"windows": {"asof_join"},
            "similarity": {"group_centroids", "dim_stats"}}
    for m, tree in pipes.items():
        assert _outer_functions_with(tree, _is_map_groups) == kept.get(m, set()), m
        # feature_hash's ``mix64(h) % dim`` is its output feature index
        assert _outer_functions_with(tree, _is_bucket_hash) == (
            {"feature_hash"} if m == "text" else set()), m
        assert not any(_is_pair_constant(n) for n in ast.walk(tree)), m
        assert _outer_functions_with(tree, _is_bucket_column) <= {"asof_join"}, m
        assert not {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)} & {
            "add_bucket", "coarse", "chunks_with_coarse", "banded_with_coarse",
            "final_topk", "final"}, m
    # the per-module co-group and join copies, and the helpers that only
    # computed the next stage's bucket, are gone
    for mod, names in ((K, ("_tag", "_edge_cogroup", "_join_edge_sides")),
                       (MV, ("_tag_multi", "_cogroup_multi", "_join_sides_multi")),
                       (msf, ("_bk", "_GOLD")),
                       (mis, ("_empty", "_coalesce"))):
        assert not [n for n in names if hasattr(mod, n)]
