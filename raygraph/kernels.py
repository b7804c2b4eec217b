"""Generic GraphBLAS-style kernels over Ray Data vertex/edge tables.

This is the Dataset-level operator surface mirroring SURVEY.md §2.1 —
every reference operation re-expressed on COO tables:

  Vector  -> Dataset/Table (v:uint64, val:T), absent row = missing element
  Matrix  -> Dataset/Table (src:uint64, dst:uint64, w:float64)

Join-based semantics (SURVEY.md §1.5 mapping table):
  ewise_add   = full outer join   (reference graphblas/core/matrix.py:1912)
  ewise_mult  = inner join        (reference graphblas/core/matrix.py:1980)
  ewise_union = outer join + fill (reference graphblas/core/matrix.py:2044)
  mask        = semi/anti join before merge (reference graphblas/core/mask.py)
  accum       = outer-join merge of old/new (reference graphblas/core/base.py:318)
  extract     = join against an index table (reference graphblas/core/expr.py:288)
  assign      = groupby(target).reduce + merge (reference graphblas/core/expr.py:261)

Every keyed join and grouped reduce in this module (and in
``multival.py``) is one hash co-group, :func:`_cogroup`: each side is
tagged with ``bucket = part_of(key, B)`` and its side id, all sides ride
ONE ``groupby(bucket)`` shuffle, and each bucket is joined with numpy —
the explicit partitioned hash join, no driver-side or broadcast joins
for the big-big case. Grouped reductions (:func:`salted_aggregate`)
pre-combine per block before that shuffle, so a hub key reaches its
final reduce as at most one row per input block.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from raygraph.ops import BINARY, MONOID, SEMIRING, UNARY, PositionalMul
from raygraph.util import mix64, pair_part, part_of


def _mul_vals(sr, a_vals, b_vals, *, fi, fj, si, sj) -> np.ndarray:
    """Apply a semiring's ⊗ to matched operand pairs.

    ``a_vals``/``b_vals`` are the FIRST/SECOND operand values in the
    reference's argument order (f(a, b) — matrix-then-vector for mxv,
    vector-then-matrix for vxm, A-then-B for mxm; reference
    matrix.py:2163, vector.py:1259).  ``fi/fj/si/sj`` are the positional
    index arrays (or scalar 0) for that site, consumed only when ⊗ is a
    :class:`raygraph.ops.PositionalMul` (SuiteSparse ``firsti``-family
    positional semirings, reference core/operator/base.py:44-90)."""
    mul = sr.binary
    if isinstance(mul, PositionalMul):
        return mul.pick(len(a_vals), fi=fi, fj=fj, si=si, sj=sj)
    # native dtype, no float64 force: int64 operands stay int64-exact
    # above 2^53 (matrix dtype fidelity, reference get_typed_op)
    return np.asarray(mul(a_vals, b_vals))


# hash buckets of every co-group (reference gb.config, §2.5: one engine
# constant; call sites that know their data pass ``num_buckets``)
_DEFAULT_BUCKETS = 64


def _col(t: "pa.Table", name: str, dt=None) -> "np.ndarray":
    """One column of a batch as numpy, cast to ``dt`` when given."""
    return np.asarray(t[name].to_numpy(zero_copy_only=False), dt)


def _wcol(t: "pa.Table", dt=None) -> "np.ndarray":
    """Edge weights of a batch; a table without a ``w`` column is a
    pattern-only (GrB_BOOL structure) matrix — weight 1.0 everywhere.
    Lets mxm/mxv consume binarized link tables directly instead of
    forcing the caller to materialize a +8 B/row all-ones copy.
    ``dt`` casts to the operator's promoted value dtype (resolved
    schema-level at the entry point so every batch of a stage emits the
    SAME Arrow type); None preserves the stored dtype exactly."""
    if "w" in t.column_names:
        a = np.asarray(t["w"].to_numpy(zero_copy_only=False))
        return a if dt is None else np.asarray(a, dt)
    return np.ones(t.num_rows, np.float64 if dt is None else dt)


def _sr_out_dtype(sr, dt) -> np.dtype:
    """Result dtype of a semiring over inputs of dtype ``dt``: positional
    ⊗ emits uint64 indices; otherwise numpy promotion of ⊗ (the ⊕ monoid
    is closed over its input dtype)."""
    if isinstance(sr.binary, PositionalMul):
        return np.dtype(np.uint64)
    return np.asarray(sr.binary(np.zeros(0, dt), np.zeros(0, dt))).dtype


def _ds(x):
    import ray.data as rd

    if isinstance(x, pa.Table):
        return rd.from_arrow(x)
    return x


def to_table(x, sort_by: str | None = "v") -> pa.Table:
    """Materialize a (small) result Dataset to one Arrow table."""
    if isinstance(x, pa.Table):
        tbl = x
    else:
        batches = [b for b in x.iter_batches(batch_size=None, batch_format="pyarrow")]
        if batches:
            tbl = pa.concat_tables(batches, promote_options="permissive")
        else:
            try:  # preserve the dataset schema for empty results
                tbl = x.schema().base_schema.empty_table()
            except Exception:
                # schema unrecoverable (e.g. every cogroup bucket empty):
                # default to the canonical empty vector table
                tbl = pa.table(
                    {"v": pa.array([], pa.uint64()), "val": pa.array([], pa.float64())}
                )
    if sort_by and sort_by in tbl.column_names:
        return tbl.sort_by(sort_by)
    return tbl


# ------------------------------------------------------------ reductions ----


def salted_aggregate(ds, key: str, val: str, monoid_name: str, *, alias: str | None = None):
    """groupby(key).reduce(monoid), key and value dtypes preserved exactly.

    Shape: per-block partial combine (segmented ufunc.reduceat, cheap and
    associative), then ONE :func:`_cogroup` with a vectorized segmented
    final combine per bucket. The per-block combine bounds a hub key's
    final-reduce rows to one per input block. Never Ray's native
    ``groupby(key)``: a full-range uint64 key (splitmix64 vertex ids ≥
    2^63) round-trips through Python there and comes back as a
    pickled-object extension column — unsortable, un-Arrow (found by the
    r4 /verify drive on harvested link ids). Monoid must be
    associative+commutative (all registered ones are).
    """
    alias = alias or val
    m = MONOID[monoid_name]

    def seg_reduce(k: np.ndarray, a: np.ndarray) -> dict:
        order = np.argsort(k, kind="stable")
        k_s, a_s = k[order], a[order]
        cast_back = None
        if a_s.dtype.kind == "f" and "bitwise" in m.ufunc.__name__:
            cast_back, a_s = a_s.dtype, a_s.astype(np.int64)
        starts = np.flatnonzero(np.r_[True, k_s[1:] != k_s[:-1]])
        red = m.ufunc.reduceat(a_s, starts)
        if cast_back is not None:
            red = red.astype(cast_back)
        return {key: k_s[starts], alias: red}

    return _cogroup(
        [(ds, lambda t: seg_reduce(_col(t, key), _col(t, val)))],
        lambda g: pa.table(seg_reduce(g[key], g[alias])), key=key)


def reduce_rowwise(edges, monoid_name: str = "plus"):
    """A.reduce_rowwise(monoid) -> Vector keyed by src (reference matrix.py:2553)."""
    out = salted_aggregate(_ds(edges), "src", "w", monoid_name, alias="val")
    return out.map_batches(
        lambda t: t.rename_columns(["v" if c == "src" else c for c in t.column_names]),
        batch_format="pyarrow",
    )


def reduce_columnwise(edges, monoid_name: str = "plus"):
    out = salted_aggregate(_ds(edges), "dst", "w", monoid_name, alias="val")
    return out.map_batches(
        lambda t: t.rename_columns(["v" if c == "dst" else c for c in t.column_names]),
        batch_format="pyarrow",
    )


def _row_cols(wdt):
    """Side columns of a row-keyed co-group: (src, dst) as uint64 and w
    in the matrix's value dtype."""
    return lambda t: {"src": _col(t, "src", np.uint64),
                      "dst": _col(t, "dst", np.uint64), "w": _col(t, "w", wdt)}


def reduce_rowwise_agg(edges, names: list[str],
                       num_buckets: int = _DEFAULT_BUCKETS):
    """Per-row COMPOSITE aggregators — ``A.reduce_rowwise(agg.argmax)``
    etc. (reference core/operator/agg.py applied along an axis,
    matrix.py:2553 with an Aggregator op). Supported names: count, mean,
    min, max, argmin, argmax (args tie-break to the smallest dst —
    deterministic, same rule as vector_agg).

    Shape: sort_rowwise's layout — ONE src-keyed co-group, then
    vectorized lexsorts + reduceat per bucket; no per-row Python groups.
    Returns one row per src with a column per aggregate.
    """
    allowed = {"count", "mean", "min", "max", "argmin", "argmax"}
    bad = set(names) - allowed
    if bad:
        raise KeyError(f"reduce_rowwise_agg: unsupported {sorted(bad)}")
    wdt = _val_dtype_of(edges, "w")  # min/max stay int64-exact above 2^53

    def stats(g: dict) -> pa.Table:
        s, d, w = g["src"], g["dst"], g["w"]
        order = np.lexsort((d, w, s))   # group-first row = argmin (dst ties)
        ss, dd, ww = s[order], d[order], w[order]
        new = np.r_[True, ss[1:] != ss[:-1]]
        starts = np.flatnonzero(new)
        counts = np.diff(np.r_[starts, len(ss)])
        out: dict = {"v": ss[starts]}
        if "count" in names:
            out["count"] = counts.astype(np.int64)
        if "mean" in names:
            out["mean"] = np.add.reduceat(ww.astype(np.float64), starts) / counts
        if "min" in names:
            out["min"] = ww[starts]                     # sorted ascending
        if "max" in names:
            out["max"] = np.maximum.reduceat(ww, starts)
        if "argmin" in names:
            out["argmin"] = dd[starts].astype(np.int64)
        if "argmax" in names:
            # descending-value key: ~w reverses order exactly for ints
            # (bit complement), -w for floats — no float64 round-trip
            dk = np.invert(w) if w.dtype.kind in "iub" else -w
            omax = np.lexsort((d, dk, s))
            sm, dm = s[omax], d[omax]
            mstarts = np.flatnonzero(np.r_[True, sm[1:] != sm[:-1]])
            out["argmax"] = dm[mstarts].astype(np.int64)
        return pa.table({k: out[k] for k in ["v"] + names})

    return _cogroup([(edges, _row_cols(wdt))], stats, key="src",
                    num_buckets=num_buckets)


def reduce_scalar(x, monoid_name: str = "plus", col: str | None = None):
    """Global reduction -> Python scalar (reference matrix.py:2627, vector.py:1561).

    Distributed: per-batch partial reduction, then a driver combine of the
    tiny partials.
    """
    m = MONOID[monoid_name]
    ds = _ds(x)
    col = col or ("val" if "val" in ds.schema().names else "w")

    sch = ds.schema()
    atype = dict(zip(sch.names, sch.types)).get(col)
    np_dt = np.dtype(atype.to_pandas_dtype()) if atype is not None else np.float64

    def partial(t: pa.Table) -> pa.Table:
        a = np.asarray(t[col].to_numpy(zero_copy_only=False))
        if len(a) == 0:
            return pa.table({"p": pa.array(np.empty(0, np_dt))})
        # keep the native dtype: a float() round-trip corrupts int64
        # payloads above 2^53 and destroys bitwise-monoid bit patterns
        return pa.table({"p": pa.array(np.asarray([m.ufunc.reduce(a)], np_dt))})

    parts = [r["p"] for r in ds.map_batches(partial, batch_format="pyarrow").take_all()]
    if not parts:
        return None  # empty collection: allow_empty -> no value
    return m.ufunc.reduce(np.asarray(parts, np_dt)).item()


# ----------------------------------------------------------- apply/select ----


def apply(x, op_name: str, *, col: str = "val", right=None, left=None, alias: str | None = None):
    """Elementwise apply of a unary op, or a binary op with a bound scalar
    (reference matrix.py:2294 / vector.py:1308)."""
    alias = alias or col
    if op_name not in UNARY and op_name not in BINARY:
        raise KeyError(op_name)  # fail at build time, not mid-pipeline

    def fn(t: pa.Table) -> pa.Table:
        a = np.asarray(t[col].to_numpy(zero_copy_only=False))
        if op_name in UNARY:
            out = UNARY[op_name](a)
        elif op_name in BINARY:
            if right is not None:
                out = BINARY[op_name](a, right)
            elif left is not None:
                out = BINARY[op_name](left, a)
            else:
                raise ValueError("binary apply needs a bound scalar (left= or right=)")
        else:
            raise KeyError(op_name)
        out = np.asarray(out)
        idx = t.schema.get_field_index(col)
        return t.set_column(idx, alias, pa.array(out))

    return _ds(x).map_batches(fn, batch_format="pyarrow")


_CMP = {">": np.greater, ">=": np.greater_equal, "<": np.less, "<=": np.less_equal,
        "==": np.equal, "!=": np.not_equal}


def apply_positional(x, which: str, *, thunk: int = 0):
    """Positional APPLY — ``A.apply(indexunary.rowindex, thunk)`` family
    (reference core/operator/indexunary.py rowindex/columnindex/index):
    the VALUE becomes the (shifted) row/column/element index. Pure
    per-batch map; int64 output."""

    def fn(t: pa.Table) -> pa.Table:
        if which in ("rowindex", "columnindex"):
            col = "src" if which == "rowindex" else "dst"
            idx = np.asarray(t[col].to_numpy(zero_copy_only=False), np.int64)
            return pa.table({"src": t["src"], "dst": t["dst"],
                             "w": idx + np.int64(thunk)})
        if which == "diagindex":
            # value = j - i + thunk (reference
            # core/operator/indexunary.py:102-110 DIAGINDEX semantics)
            i = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.int64)
            j = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.int64)
            return pa.table({"src": t["src"], "dst": t["dst"],
                             "w": j - i + np.int64(thunk)})
        if which == "index":
            idx = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.int64)
            return pa.table({"v": t["v"], "val": idx + np.int64(thunk)})
        raise KeyError(which)

    return _ds(x).map_batches(fn, batch_format="pyarrow")


def reduce_columnwise_agg(edges, names: list[str],
                          num_buckets: int = _DEFAULT_BUCKETS):
    """Column-axis twin of reduce_rowwise_agg (reference
    matrix.py:2590 with an Aggregator op) — one transpose map + the same
    bucketed layout."""
    return reduce_rowwise_agg(transpose(edges), names,
                              num_buckets=num_buckets)


def select_value(x, cmp: str, thunk, *, col: str = "val"):
    """Keep elements whose value passes the predicate — reference
    ``A.select(">=", 5)`` string shorthand (matrix.py:2452)."""
    fn = _CMP[cmp]

    def flt(t: pa.Table) -> pa.Table:
        a = np.asarray(t[col].to_numpy(zero_copy_only=False))
        return t.filter(pa.array(fn(a, thunk)))

    return _ds(x).map_batches(flt, batch_format="pyarrow")


def _le_shift(d: np.ndarray, s: np.ndarray, thunk: int) -> np.ndarray:
    """Exact ``d <= s + thunk`` on uint64 arrays — no int64 casts (ids span
    the full uint64 range: splitmix64 url hashes) and no overflow (the
    difference form is wrap-safe: when d <= s the first clause already
    decides, so a wrapped d-s never matters)."""
    if thunk >= 0:
        return (d <= s) | (d - s <= np.uint64(thunk))
    return (s > d) & (s - d >= np.uint64(-thunk))


def _ge_shift(d: np.ndarray, s: np.ndarray, thunk: int) -> np.ndarray:
    """Exact ``d >= s + thunk`` on uint64 arrays (see _le_shift)."""
    if thunk > 0:
        return (d > s) & (d - s >= np.uint64(thunk))
    if thunk == 0:
        return d >= s
    return (d >= s) | (s - d <= np.uint64(-thunk))


def _eq_shift(d: np.ndarray, s: np.ndarray, thunk: int) -> np.ndarray:
    """Exact ``d == s + thunk`` on uint64 arrays (see _le_shift)."""
    if thunk >= 0:
        return (d >= s) & (d - s == np.uint64(thunk))
    return (s > d) & (s - d == np.uint64(-thunk))


def select_positional(edges, which: str, thunk: int = 0):
    """Positional select on the edge table: tril/triu/diag/offdiag plus the
    thunk-comparison index predicates rowle/rowgt/colle/colgt
    (reference indexunary family, core/operator/indexunary.py:102-110 —
    VERDICT r1 'What's missing' #5). All comparisons are exact over the
    full uint64 id range (no int64/float promotion)."""
    # strict variants = thunk-shifted tril/triu (reference semantics)
    if which == "tril_strict":
        which, thunk = "tril", -1
    elif which == "triu_strict":
        which, thunk = "triu", 1

    def _idx_le(a: np.ndarray) -> np.ndarray:
        if thunk < 0:
            return np.zeros(len(a), bool)
        return a <= np.uint64(thunk)

    preds = {
        "tril": lambda s, d: _le_shift(d, s, thunk),
        "triu": lambda s, d: _ge_shift(d, s, thunk),
        "diag": lambda s, d: _eq_shift(d, s, thunk),
        "offdiag": lambda s, d: ~_eq_shift(d, s, thunk),
        "rowle": lambda s, d: _idx_le(s),
        "rowgt": lambda s, d: ~_idx_le(s),
        "colle": lambda s, d: _idx_le(d),
        "colgt": lambda s, d: ~_idx_le(d),
    }
    p = preds[which]

    def flt(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        return t.filter(pa.array(p(s, d)))

    return _ds(edges).map_batches(flt, batch_format="pyarrow")


def select_index(vec, cmp: str, thunk: int):
    """Vector positional select: keep elements whose INDEX passes the
    predicate — the reference's indexle/indexgt family on Vectors
    (core/operator/indexunary.py:102). Negative thunks compare correctly
    against the unsigned index (no uint64 wraparound)."""
    fn = _CMP[cmp]

    def flt(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        if thunk < 0:
            # every uint64 index exceeds a negative thunk
            m = np.full(len(v), cmp in (">", ">=", "!="), bool)
        else:
            m = fn(v, np.uint64(thunk))
        return t.filter(pa.array(m))

    return _ds(vec).map_batches(flt, batch_format="pyarrow")


def transpose(edges):
    """A.T — swap src/dst (zero work beyond a column rename; the reference's
    lazy TransposedMatrix view, matrix.py:3614)."""

    def fn(t: pa.Table) -> pa.Table:
        names = ["dst" if c == "src" else ("src" if c == "dst" else c) for c in t.column_names]
        return t.rename_columns(names).select(
            sorted(names, key=lambda c: {"src": 0, "dst": 1}.get(c, 2))
        )

    return _ds(edges).map_batches(fn, batch_format="pyarrow")


# -------------------------------------------------------------- mxv / vxm ----


# above this many vector elements the broadcast fast path is refused and
# the vector rides the co-group shuffle instead (~32 MB of (ids, vals)
# per task fetch at the limit)
_BROADCAST_MAX = 2_000_000


def mxv(edges, vec, semiring: str = "plus_times", *,
        distribute: str = "auto", num_buckets: int = _DEFAULT_BUCKETS,
        input_mask=None, input_mask_complement: bool = False,
        mask=None, mask_complement: bool = False,
        mask_value: bool = False):
    """w[i] = ⊕_j A[i,j] ⊗ v[j] (reference matrix.py:2163).

    ``input_mask`` structurally pre-filters the VECTOR input before the
    product (reference core/base.py:335-343): masked-out v[j] contribute
    nothing, as if absent.

    Distribution of the vector side (VERDICT r1 'What's wrong' #1):
    ``broadcast`` — materialize the vector on the driver and ``ray.put``
    it once (searchsorted lookup per batch; SURVEY.md §4 'broadcast small
    sides'); valid ONLY for driver-sized vectors. ``cogroup`` — the
    vector is never materialized: both sides ride ONE :func:`_cogroup`
    on the join key (the same partitioned hash join ewise_* uses).
    ``auto`` broadcasts an in-memory table under ``_BROADCAST_MAX``
    elements and co-groups everything else (any Dataset input co-groups
    — its size is unknown without executing it). For the co-partitioned
    CSR-block path used by iterative algorithms see engine.spmv.
    """
    if input_mask is not None:
        vec = vector_semijoin(vec, input_mask,
                              complement=input_mask_complement,
                              num_buckets=num_buckets)
    return _mxv_impl(edges, vec, semiring, gather_on="dst", reduce_on="src",
                     distribute=distribute, num_buckets=num_buckets,
                     mask=mask, mask_complement=mask_complement,
                     mask_value=mask_value)


def vxm(vec, edges, semiring: str = "plus_times", *,
        distribute: str = "auto", num_buckets: int = _DEFAULT_BUCKETS,
        mask=None, mask_complement: bool = False, mask_value: bool = False):
    """w[j] = ⊕_i v[i] ⊗ A[i,j] (reference vector.py:1259)."""
    return _mxv_impl(edges, vec, semiring, gather_on="src", reduce_on="dst",
                     distribute=distribute, num_buckets=num_buckets,
                     mask=mask, mask_complement=mask_complement,
                     mask_value=mask_value)


def _mxv_cogroup(edges, vec, sr, *, gather_on, reduce_on, num_buckets,
                 dt=np.float64):
    """Shuffle-join form of mxv: no driver materialization of either side.

    Edges keyed by the gather column and the vector keyed by v ride one
    co-group, which puts each vector element with every edge that needs
    it; the per-bucket join is a sorted searchsorted lookup + local
    ⊕-combine on the output key (the caller finishes the reduce)."""
    from raygraph.ops import local_combine

    out_dt = _sr_out_dtype(sr, dt)
    # vxm gathers on src: the vector is then the FIRST ⊗ operand
    # (reference vector.py:1259 f(u_i, a_ij) vs matrix.py:2163 f(a_ij, u_j))
    vec_first = gather_on == "src"

    def edge_cols(t: pa.Table) -> dict:
        return {"k": _col(t, gather_on, np.uint64),
                "y": _col(t, reduce_on, np.uint64), "x": _wcol(t, dt)}

    def vec_cols(t: pa.Table) -> dict:
        return {"k": _col(t, "v", np.uint64),
                "y": np.zeros(t.num_rows, np.uint64), "x": _col(t, "val", dt)}

    def join(g: dict) -> pa.Table:
        k, y, x = g["k"], g["y"], g["x"]
        isv = g["side"] == 1
        vk, vv = k[isv], x[isv]
        order = np.argsort(vk)
        vk, vv = vk[order], vv[order]
        ek, ey, ew = k[~isv], y[~isv], x[~isv]
        if len(vk) == 0 or len(ek) == 0:
            return _empty_vv(out_dt)
        pos = np.searchsorted(vk, ek)
        ok = (pos < len(vk)) & (vk[np.minimum(pos, len(vk) - 1)] == ek)
        ekk, eyy, vvv = ek[ok], ey[ok], vv[pos[ok]]
        if vec_first:  # vxm: f(u_i, a_ij) — vector is the FIRST operand
            val = _mul_vals(sr, vvv, ew[ok], fi=0, fj=ekk, si=ekk, sj=eyy)
        else:          # mxv: f(a_ij, u_j)
            val = _mul_vals(sr, ew[ok], vvv, fi=eyy, fj=ekk, si=ekk, sj=0)
        kk, cv = local_combine(sr.monoid, eyy, val)
        return pa.table({"v": kk, "val": cv})

    return _cogroup([(edges, edge_cols), (vec, vec_cols)], join, key="k",
                    num_buckets=num_buckets)


def _mxv_impl(edges, vec, semiring, *, gather_on, reduce_on,
              distribute="auto", num_buckets=_DEFAULT_BUCKETS,
              mask=None, mask_complement=False, mask_value=False):
    import ray

    sr = SEMIRING[semiring]
    # promoted input dtype, resolved once schema-level (reference typed-op
    # resolution, core/operator/utils.py get_typed_op): int64 weights stay
    # int64-exact above 2^53 through ⊗, the per-batch ⊕-combine and the
    # dtype-preserving salted_aggregate
    dt = np.result_type(_val_dtype_of(edges, "w"), _val_dtype_of(vec))
    out_dt = _sr_out_dtype(sr, dt)
    if distribute == "auto":
        small = isinstance(vec, pa.Table) and vec.num_rows <= _BROADCAST_MAX
        distribute = "broadcast" if small else "cogroup"
    if distribute == "cogroup":
        contrib = _mxv_cogroup(edges, vec, sr, gather_on=gather_on,
                               reduce_on=reduce_on, num_buckets=num_buckets,
                               dt=dt)
    else:
        vt = to_table(vec)
        vs = _col(vt, "v", np.uint64)
        vv = _col(vt, "val", dt)
        order = np.argsort(vs)
        ref = ray.put((vs[order], vv[order]))

        from raygraph.ops import local_combine

        vec_first = gather_on == "src"  # vxm: vector is the FIRST ⊗ operand

        def scatter(t: pa.Table) -> pa.Table:
            ids, vals = ray.get(ref)
            g = _col(t, gather_on, np.uint64)
            r = _col(t, reduce_on, np.uint64)
            w = _wcol(t, dt)
            if len(ids) == 0 or len(g) == 0:
                return _empty_vv(out_dt)
            pos = np.searchsorted(ids, g)
            ok = (pos < len(ids)) & (ids[np.minimum(pos, len(ids) - 1)] == g)
            r, w, g, pos = r[ok], w[ok], g[ok], pos[ok]
            xv = vals[np.minimum(pos, len(vals) - 1)]
            if vec_first:  # vxm: f(u_i, a_ij)
                val = _mul_vals(sr, xv, w, fi=0, fj=g, si=g, sj=r)
            else:          # mxv: f(a_ij, u_j)
                val = _mul_vals(sr, w, xv, fi=r, fj=g, si=g, sj=0)
            k, v = local_combine(sr.monoid, r, val)  # per-batch combiner
            return pa.table({"v": k, "val": v})

        contrib = _ds(edges).map_batches(scatter, batch_format="pyarrow")
    if mask is not None:
        # output-mask PUSHDOWN (reference w(mask) << A.mxv(v)): dropped
        # BEFORE the final grouped reduce, so masked-out keys never ride
        # the aggregate shuffle and unmasked w is never materialized.
        # mask_value -> reference ValueMask (truthy entries; mask.py:149)
        contrib = vector_semijoin(contrib, mask, complement=mask_complement,
                                  value_mask=mask_value,
                                  num_buckets=num_buckets)
    return salted_aggregate(contrib, "v", "val", sr.monoid.name, alias="val")


# ------------------------------------------------------- hash co-group ----


def _val_dtype_of(x, val_col: str = "val") -> np.dtype:
    """Value dtype of a vector table/Dataset (schema-level, no execution
    of the data itself)."""
    if isinstance(x, pa.Table):
        schema = x.schema
    else:
        s = x.schema()
        if s is None:  # empty/unschematized dataset: nothing to preserve
            return np.dtype(np.float64)
        schema = s.base_schema
    if val_col not in schema.names:
        return np.dtype(np.float64)
    return np.dtype(schema.field(val_col).type.to_pandas_dtype())


def _key_cols(key) -> tuple:
    """A co-group key as a tuple of column names: ``"v"`` or ``("src", "dst")``."""
    return (key,) if isinstance(key, str) else tuple(key)


def _cogroup(sides: list, fn, *, key="v", num_buckets: int = _DEFAULT_BUCKETS):
    """The one hash co-group of the GraphBLAS kernels, the graph
    algorithms and the data pipelines: every keyed join and grouped
    reduce here, in ``multival``, in ``algorithms`` (cores, metrics, mis,
    msf, walks, triangle_count_mxm) and in ``datapipe`` (windows, dedup,
    text, similarity) runs through it.

    ``sides`` is a list of ``(dataset_or_table, cols)``, where
    ``cols(batch) -> dict`` of numpy (or Arrow) columns (``None`` keeps
    the batch's own columns); every side emits the same names and dtypes,
    none of them named ``bucket``. Side i is
    tagged ``side = i`` and ``bucket = util.part_of(key)`` —
    ``util.pair_part`` for a ``(src, dst)`` key — the sides are unioned in
    order, and ONE ``groupby(bucket).map_groups`` calls ``fn(g)`` per
    non-empty bucket, ``g`` being the bucket's columns (``side``
    included) as typed numpy arrays; ``fn`` returns a ``pa.Table``.

    Mechanism: Ray's sort-based groupby. On one CPU it beat the raw-task
    :func:`raygraph.shuffle.exchange` at 64 buckets on small inputs
    (median of 5: 0.29 vs 0.75 s at 2k rows in 4 blocks, 0.64 vs 1.15 s
    at 200k rows in 8 blocks), while the exchange won at 2M rows in 16
    parts — the choice by input size belongs here, in one place.
    """
    keys = _key_cols(key)

    def tagger(cols, side: int):
        def tag(t: pa.Table) -> pa.Table:
            c = cols(t) if cols is not None else {n: _col(t, n) for n in t.column_names}
            if "bucket" in c:
                raise ValueError("_cogroup: 'bucket' is its own column, "
                                 f"not a side column ({sorted(c)})")
            k = [c[n] for n in keys]
            bucket = (part_of(k[0], num_buckets) if len(k) == 1
                      else pair_part(k[0], k[1], num_buckets))
            return pa.table({"bucket": bucket, **c,
                             "side": np.full(len(bucket), side, np.int8)})

        return tag

    u = None
    for i, (ds, cols) in enumerate(sides):
        tagged = _ds(ds).map_batches(tagger(cols, i), batch_format="pyarrow")
        u = tagged if u is None else u.union(tagged)
    return u.groupby("bucket").map_groups(
        lambda g: fn({n: _col(g, n) for n in g.column_names if n != "bucket"}),
        batch_format="pyarrow")


def _keyed_cols(key, val: str, dt):
    """Side columns of a keyed join: the key column(s) as uint64 and
    ``val`` cast to ``dt`` (all ones when the table has none — a
    pattern-only side)."""
    keys = _key_cols(key)

    def cols(t: pa.Table) -> dict:
        c = {k: _col(t, k, np.uint64) for k in keys}
        c[val] = (_col(t, val, dt) if val in t.column_names
                  else np.ones(t.num_rows, dt))
        return c

    return cols


def _join_sides(g: dict, n_sides: int, *, key="v", vals=("val",), unique=()):
    """Typed multi-way outer join of one co-group bucket on a key that is
    unique per side.

    One lexsort by (key, side); each key run holds at most one row per
    side. Returns ``(keys, has, fields)``: the run keys (one array per key
    column), the presence mask ``has[side, run]`` and, per value column,
    a dense ``[side, run]`` matrix in that column's dtype (zero where
    absent). A duplicate key within a side listed in ``unique`` raises."""
    ks = [g[k] for k in _key_cols(key)]
    side = g["side"]
    order = np.lexsort((side, *reversed(ks)))
    ks, side = [k[order] for k in ks], side[order]
    same = np.ones(len(side) - 1, bool)
    for k in ks:
        same &= k[1:] == k[:-1]
    for s in unique:
        if (same & (side[1:] == s) & (side[:-1] == s)).any():
            raise ValueError(
                f"duplicate ({', '.join(_key_cols(key))}) rows within side "
                f"{s} of a join that needs entries unique per key "
                "(pre-combine with salted_aggregate / from_coo dup_op first)")
    change = np.r_[True, ~same]
    run_id = np.cumsum(change) - 1
    nruns = int(run_id[-1]) + 1
    has = np.zeros((n_sides, nruns), bool)
    has[side, run_id] = True
    fields = []
    for name in vals:
        m = np.zeros((n_sides, nruns), g[name].dtype)
        m[side, run_id] = g[name][order]
        fields.append(m)
    return [k[change] for k in ks], has, fields


def _op_result_dtype(op, dtype) -> np.dtype:
    """Result dtype of applying op to two arrays of ``dtype`` (numpy
    promotion probed on empty arrays — e.g. truediv(int,int) -> float)."""
    return np.asarray(op(np.zeros(0, dtype), np.zeros(0, dtype))).dtype


def _empty_vv(dtype) -> pa.Table:
    return pa.table({"v": pa.array([], pa.uint64()),
                     "val": pa.array(np.empty(0, dtype))})


def _ewise(a, b, op_name: str, *, how: str, key="v", val: str = "val",
           defaults=(), num_buckets: int = _DEFAULT_BUCKETS):
    """Element-wise op of two vectors (key ``v``) or two matrices (key
    ``(src, dst)``, value ``w``) over one keyed co-group. ``how``:
    ``union`` — op where both present, passthrough otherwise; ``mult`` —
    op on the intersection; ``fill`` — op over the union with an absent
    side read as its entry of ``defaults``. Typed: the output carries the
    numpy-promoted dtype of the inputs/op."""
    op = BINARY[op_name]
    dt = np.result_type(_val_dtype_of(a, val), _val_dtype_of(b, val),
                        *(np.asarray(d).dtype for d in defaults))
    out_dt = _op_result_dtype(op, dt)
    names = _key_cols(key)

    def join(g: dict) -> pa.Table:
        keys, has, (x,) = _join_sides(g, 2, key=key, vals=(val,))
        both = has[0] & has[1]
        if how == "fill":
            out = np.asarray(op(np.where(has[0], x[0], np.asarray(defaults[0], dt)),
                                np.where(has[1], x[1], np.asarray(defaults[1], dt))),
                             out_dt)
        else:
            out = np.where(has[0], x[0], x[1]).astype(out_dt)
            if both.any():
                out[both] = op(x[0][both], x[1][both])
        sel = both if how == "mult" else slice(None)
        return pa.table({**{n: k[sel] for n, k in zip(names, keys)},
                         val: out[sel]})

    cols = _keyed_cols(key, val, dt)
    return _cogroup([(a, cols), (b, cols)], join, key=key,
                    num_buckets=num_buckets)


def ewise_add(a, b, op_name: str = "plus", num_buckets: int = _DEFAULT_BUCKETS):
    """Element-wise UNION: op where both present, passthrough otherwise
    (reference vector.py:1012; docs operations.rst:205-232). Typed: the
    output carries the numpy-promoted dtype of the inputs/op."""
    return _ewise(a, b, op_name, how="union", num_buckets=num_buckets)


def ewise_mult(a, b, op_name: str = "times", num_buckets: int = _DEFAULT_BUCKETS):
    """Element-wise INTERSECTION (reference vector.py:1077)."""
    return _ewise(a, b, op_name, how="mult", num_buckets=num_buckets)


def ewise_union(a, b, op_name: str, left_default, right_default,
                num_buckets: int = _DEFAULT_BUCKETS):
    """Union with fill defaults (reference vector.py:1141; operations.rst:233-249)."""
    return _ewise(a, b, op_name, how="fill",
                  defaults=(left_default, right_default),
                  num_buckets=num_buckets)


def _merge(old, new, *, key, val, mask, complement, value_mask, accum,
           replace, num_buckets, unique=()):
    """``C(mask, accum, replace) << new`` on one keyed co-group of old
    (side 0), new (side 1) and the mask (side 2) — the GrB output-control
    truth table shared by vector :func:`merge` and :func:`merge_matrix`.
    A value mask is a structural mask over its truthy entries (under
    complement too: ¬(entry ∧ truthy) ≡ no truthy entry), so mask rows
    are filtered to their truthy subset and carry no value downstream."""
    op = BINARY[accum] if accum else None
    dt = np.result_type(_val_dtype_of(old, val), _val_dtype_of(new, val))
    out_dt = _op_result_dtype(op, dt) if op is not None else dt
    names = _key_cols(key)
    cols = _keyed_cols(key, val, dt)

    def mask_cols(t: pa.Table) -> dict:
        c = {k: _col(t, k, np.uint64) for k in names}
        if value_mask:
            truthy = _col(t, val) != 0
            c = {k: x[truthy] for k, x in c.items()}
        c[val] = np.zeros(len(c[names[0]]), dt)
        return c

    sides = [(old, cols), (new, cols)]
    if mask is not None:
        sides.append((mask, mask_cols))

    def join(g: dict) -> pa.Table:
        keys, has, (x,) = _join_sides(g, len(sides), key=key, vals=(val,),
                                      unique=unique)
        in_o, in_n = has[0].copy(), has[1].copy()
        if mask is None and replace and op is None:
            # GrB_replace with no mask and no accum: C = T exactly — every
            # old element not written by new is cleared (reference
            # descriptor semantics; ADVICE r1). With accum, Z = C⊙T keeps
            # the union structure, so replace is a no-op there.
            in_o[:] = False
        if mask is not None:
            allowed = ~has[2] if complement else has[2]
            in_n &= allowed
            if op is None:
                # no accum: within the mask C takes T's pattern EXACTLY
                # (GraphBLAS C(M) << T, spec §3.5.3 / SuiteSparse masked
                # assign): an in-mask old element with no new counterpart
                # is deleted, not kept. With accum, Z = C ⊙ T has the
                # union pattern, so in-mask old elements survive via Z.
                in_o &= ~allowed | in_n
            if replace:
                in_o &= allowed
        keep = in_o | in_n
        out = np.where(in_n, x[1], x[0]).astype(out_dt)
        if op is not None:
            both = in_o & in_n
            if both.any():
                out[both] = op(x[0][both], x[1][both])
        return pa.table({**{n: k[keep] for n, k in zip(names, keys)},
                         val: out[keep]})

    return _cogroup(sides, join, key=key, num_buckets=num_buckets)


def merge(old, new, *, mask=None, complement=False, value_mask=False,
          accum: str | None = None, replace: bool = False,
          num_buckets: int = _DEFAULT_BUCKETS):
    """The single output-control primitive: ``C(mask, accum, replace) << new``
    (SURVEY.md §2.3/§7.4; reference core/base.py:318 _update + core/mask.py).

    mask filters which NEW elements may land (semi-join; complement ->
    anti-join; value_mask -> keep where mask value truthy). ``accum``
    outer-joins old and new (op where both). ``replace`` drops old
    elements outside the mask.
    """
    return _merge(old, new, key="v", val="val", mask=mask,
                  complement=complement, value_mask=value_mask, accum=accum,
                  replace=replace, num_buckets=num_buckets)


# ------------------------------------------------------- extract / assign ----


def vector_semijoin(vec, mask, *, complement: bool = False,
                    value_mask: bool = False,
                    num_buckets: int = _DEFAULT_BUCKETS):
    """Filter ``vec`` by a mask vector's structure (or truthy values) —
    the ``input_mask`` primitive (reference core/base.py:335-343): an
    extract-side INPUT filter, applied before the op rather than to its
    output. One co-group; neither side broadcasts.

    The result keeps VEC's value dtype exactly (a float mask can never
    coerce an int64 data column — the >2^53 corruption rule), and the
    data side may carry DUPLICATE keys: this is a pure membership
    filter, so it is also safe on pre-aggregation partial streams
    (the mxv output-mask pushdown relies on that)."""
    dt = _val_dtype_of(vec)

    def mask_cols(t: pa.Table) -> dict:
        a = _col(t, "val")
        return {"v": _col(t, "v", np.uint64),
                "val": (a != 0).astype(dt) if value_mask else np.ones(len(a), dt)}

    def join(g: dict) -> pa.Table:
        v, val = g["v"], g["val"]
        ism = g["side"] == 1
        # allowed mask keys (truthy-valued when value_mask)
        mk = v[ism]
        if value_mask:
            mk = mk[val[ism] != 0]
        mk = np.unique(mk)
        dv, dval = v[~ism], val[~ism]
        if len(dv) == 0:
            return _empty_vv(dt)
        if len(mk) == 0:
            member = np.zeros(len(dv), bool)
        else:
            at = np.searchsorted(mk, dv)
            member = (at < len(mk)) & (mk[np.minimum(at, len(mk) - 1)] == dv)
        keep = ~member if complement else member
        return pa.table({"v": dv[keep], "val": dval[keep]})

    return _cogroup([(vec, _keyed_cols("v", "val", dt)), (mask, mask_cols)],
                    join, num_buckets=num_buckets)


def extract(vec, index: np.ndarray, *, remap: bool = True,
            input_mask=None, input_mask_complement: bool = False,
            input_value_mask: bool = False,
            num_buckets: int = _DEFAULT_BUCKETS):
    """v[index] — gather with (possibly duplicate) indices = join of the
    index table on v (reference expr.py:288; FastSV ``gp << f[I]``).

    With ``remap`` the result is re-indexed 0..len(index)-1 (the
    reference's dimension-collapsing extract); otherwise keys are kept.
    ``input_mask`` pre-filters v BEFORE the gather (reference
    core/base.py:335-343 ``v(input_mask=m)[I]``): a masked-out element
    is absent from the result even when its index is requested.
    """
    if input_mask is not None:
        vec = vector_semijoin(vec, input_mask,
                              complement=input_mask_complement,
                              value_mask=input_value_mask,
                              num_buckets=num_buckets)
    idx = np.asarray(index, np.uint64)
    dt = _val_dtype_of(vec)
    # the index side carries its output position in a dedicated int64
    # column so positions never round-trip through the value dtype (a
    # float64 position corrupts above 2^53)
    index_tbl = pa.table({"v": idx, "val": np.zeros(len(idx), dt),
                          "pos": np.arange(len(idx), dtype=np.int64)})

    def vec_cols(t: pa.Table) -> dict:
        return {"v": _col(t, "v", np.uint64), "val": _col(t, "val", dt),
                "pos": np.full(t.num_rows, -1, np.int64)}

    def join(g: dict) -> pa.Table:
        v, val, pos = g["v"], g["val"], g["pos"]
        isv = g["side"] == 0
        vk, vv = v[isv], val[isv]
        order = np.argsort(vk)
        vk, vv = vk[order], vv[order]
        wk, wpos = v[~isv], pos[~isv]
        if len(vk) == 0 or len(wk) == 0:
            return _empty_vv(dt)
        at = np.searchsorted(vk, wk)
        ok = (at < len(vk)) & (vk[np.minimum(at, len(vk) - 1)] == wk)
        key = (wpos[ok].astype(np.uint64) if remap else wk[ok])
        return pa.table({"v": key, "val": vv[at[ok]]})

    return _cogroup([(vec, vec_cols), (index_tbl, None)], join,
                    num_buckets=num_buckets)


def _gather_matrix_axis(ds, index: np.ndarray, key_col: str,
                        num_buckets: int = _DEFAULT_BUCKETS):
    """One axis of A[rows, cols]: join edge rows' ``key_col`` against a
    (possibly duplicate) index vector and REPLACE the key with the index
    position (dup indices fan out). Same co-group shape as the vector
    :func:`extract` — the edge side never broadcasts and never leaves its
    bucket."""
    other_col = "dst" if key_col == "src" else "src"
    dt = _val_dtype_of(ds, "w")
    idx = np.asarray(index, np.uint64)
    index_tbl = pa.table({"k": idx, "o": np.zeros(len(idx), np.uint64),
                          "w": np.zeros(len(idx), dt),
                          "pos": np.arange(len(idx), dtype=np.int64)})

    def edge_cols(t: pa.Table) -> dict:
        return {"k": _col(t, key_col, np.uint64),
                "o": _col(t, other_col, np.uint64), "w": _col(t, "w", dt),
                "pos": np.full(t.num_rows, -1, np.int64)}

    def join(g: dict) -> pa.Table:
        k, o, w, pos = g["k"], g["o"], g["w"], g["pos"]
        isv = g["side"] == 1
        ik, ipos = k[isv], pos[isv]
        order = np.argsort(ik, kind="stable")
        ik, ipos = ik[order], ipos[order]
        ek, eo, ew = k[~isv], o[~isv], w[~isv]
        left = np.searchsorted(ik, ek, "left")
        cnt = np.searchsorted(ik, ek, "right") - left
        tot = int(cnt.sum())
        rep = np.repeat(np.arange(len(ek)), cnt)
        offs = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        pos_out = ipos[np.repeat(left, cnt) + offs].astype(np.uint64)
        return pa.table({key_col: pos_out, other_col: eo[rep], "w": ew[rep]})

    return _cogroup([(ds, edge_cols), (index_tbl, None)], join, key="k",
                    num_buckets=num_buckets)


def extract_submatrix(edges, rows: np.ndarray, cols: np.ndarray,
                      num_buckets: int = _DEFAULT_BUCKETS):
    """``A[rows, cols]`` — 2-D submatrix extract with index remap
    (reference core/expr.py:288, core/matrix.py:2906): result entry
    (p, q) = A[rows[p], cols[q]]; duplicate indices fan out. Two
    co-group joins, one per axis — never a broadcast of the edge side,
    never a materialized intermediate on the driver."""
    step1 = _gather_matrix_axis(edges, rows, "src", num_buckets)
    return _gather_matrix_axis(step1, cols, "dst", num_buckets)


def merge_matrix(old, new, *, mask=None, complement: bool = False,
                 value_mask: bool = False, accum: str | None = None,
                 replace: bool = False,
                 num_buckets: int = _DEFAULT_BUCKETS):
    """Matrix-keyed output control ``C(mask, accum, replace) << new`` — the
    2-D sibling of the vector :func:`merge`, same truth table (reference
    core/mask.py:149,185 ValueMask/ComplementedValueMask + the replace
    descriptor bit core/descriptor.py:68-80, applied to Matrix outputs in
    core/base.py:192-260). One (src,dst)-keyed co-group carries all
    sides; old and new must be entry-unique per (src,dst) — duplicate
    rows within either raise instead of silently miscombining (ADVICE r3)."""
    return _merge(old, new, key=("src", "dst"), val="w", mask=mask,
                  complement=complement, value_mask=value_mask, accum=accum,
                  replace=replace, num_buckets=num_buckets, unique=(0, 1))


def assign_submatrix(c_edges, rows: np.ndarray, cols: np.ndarray, a_edges,
                     *, accum: str | None = None,
                     mask=None, complement: bool = False,
                     value_mask: bool = False, replace: bool = False,
                     num_buckets: int = _DEFAULT_BUCKETS):
    """``C(mask, accum, replace)[rows, cols] << A`` (reference
    core/matrix.py:2906): A is given in position space (p, q) with
    p < len(rows), q < len(cols); its entries land at (rows[p], cols[q]).
    GrB assign semantics: without accum the C-region is REPLACED by A's
    mapped pattern (in-region C entries absent from A are deleted); with
    accum the region keeps the union pattern and combines where both.
    Index vectors must be duplicate-free (GrB_Matrix_assign requirement).

    ``mask``/``complement``/``value_mask``/``replace`` follow the
    GxB_subassign convention: the mask is keyed in C's (src, dst)
    coordinate space but governs ONLY the region — outside the region C
    is never touched (reference core/mask.py:149,185 +
    core/descriptor.py:68-80). Within the region the full vector-merge
    truth table applies via :func:`merge_matrix`.

    Shape: position→target remap is a per-batch array gather (the index
    vectors are driver-side, as in vector extract); the region split of
    C is a stateless filter; the combine is one (src,dst)-bucketed
    merge_matrix shuffle.
    """
    rows = np.asarray(rows, np.uint64)
    cols = np.asarray(cols, np.uint64)
    if len(np.unique(rows)) != len(rows) or len(np.unique(cols)) != len(cols):
        raise ValueError("assign_submatrix: duplicate target indices "
                         "(GrB assign requires unique rows/cols)")
    rset = np.sort(rows)
    cset = np.sort(cols)
    # one promoted value dtype across C and A so every union branch emits
    # the same Arrow schema (int64 stays int64-exact when both sides are)
    dt = np.result_type(_val_dtype_of(c_edges, "w"),
                        _val_dtype_of(a_edges, "w"))

    def _wdt(t: pa.Table):
        return np.asarray(
            np.asarray(t["w"].to_numpy(zero_copy_only=False)), dt)

    def remap(t: pa.Table) -> pa.Table:
        p = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.int64)
        q = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.int64)
        if (p >= len(rows)).any() or (q >= len(cols)).any():
            raise IndexError("assign_submatrix: A position out of range")
        return pa.table({"src": rows[p], "dst": cols[q], "w": _wdt(t)})

    def in_region(t: pa.Table) -> np.ndarray:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        si = np.searchsorted(rset, s)
        ci = np.searchsorted(cset, d)
        sin = (si < len(rset)) & (rset[np.minimum(si, len(rset) - 1)] == s)
        cin = (ci < len(cset)) & (cset[np.minimum(ci, len(cset) - 1)] == d)
        return sin & cin

    def _norm(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["src"], "dst": t["dst"], "w": _wdt(t)})

    def keep_outside(t: pa.Table) -> pa.Table:
        return _norm(t.filter(pa.array(~in_region(t))))

    def keep_inside(t: pa.Table) -> pa.Table:
        return _norm(t.filter(pa.array(in_region(t))))

    mapped = _ds(a_edges).map_batches(remap, batch_format="pyarrow")
    outside = _ds(c_edges).map_batches(keep_outside, batch_format="pyarrow")
    if accum is None and mask is None:
        # region replaced by A's mapped pattern exactly (replace is moot:
        # without a mask the no-accum region write already clears it)
        return outside.union(mapped)
    inside = _ds(c_edges).map_batches(keep_inside, batch_format="pyarrow")
    return outside.union(merge_matrix(inside, mapped, accum=accum,
                                      mask=mask, complement=complement,
                                      value_mask=value_mask, replace=replace,
                                      num_buckets=num_buckets))


def assign_reduce(vec, targets: "pa.Table", dup_monoid: str = "min",
                  accum: str | None = "min", num_buckets: int = _DEFAULT_BUCKETS):
    """C(accum)[I] << values with duplicate targets combined by ``dup_monoid``
    (the FastSV reduce-assign, SURVEY.md §2.1 'assign' row): a
    groupby(target) reduction of the updates followed by an accum merge."""
    updates = salted_aggregate(_ds(targets), "v", "val", dup_monoid, alias="val")
    return merge(vec, updates, accum=accum, num_buckets=num_buckets)


def _count_mismatches(a, b, bad_in_both, num_buckets) -> int:
    """Keys present on one side only plus keys where ``bad_in_both(x, y)``
    flags the two values — one co-group, one scalar per bucket."""
    dt = np.result_type(_val_dtype_of(a), _val_dtype_of(b))

    def check(g: dict) -> pa.Table:
        _, has, (x,) = _join_sides(g, 2)
        both = has[0] & has[1]
        bad = int((~both).sum()) + int(bad_in_both(x[0][both], x[1][both]).sum())
        return pa.table({"bad": pa.array([bad], pa.int64())})

    cols = _keyed_cols("v", "val", dt)
    out = _cogroup([(a, cols), (b, cols)], check, num_buckets=num_buckets)
    return sum(r["bad"] for r in out.take_all())


def isequal(a, b, num_buckets: int = _DEFAULT_BUCKETS) -> bool:
    """Structural + value equality of two vectors (reference matrix.py:357,
    vector.py:329 — the conformance predicate). Distributed anti-join
    emptiness check: any bucket with a one-sided or unequal element fails."""
    return _count_mismatches(a, b, np.not_equal, num_buckets) == 0


def isclose(a, b, *, rel_tol: float = 1e-7, abs_tol: float = 0.0,
            num_buckets: int = _DEFAULT_BUCKETS) -> bool:
    """Same structure + allclose values (reference matrix.py:400)."""
    return _count_mismatches(
        a, b, lambda x, y: ~np.isclose(x, y, rtol=rel_tol, atol=abs_tol),
        num_buckets) == 0


def selectk_rowwise(edges, k: int, *, largest: bool = True,
                    how: str | None = None, seed: int = 0,
                    num_buckets: int = _DEFAULT_BUCKETS):
    """k elements per src row — the SuiteSparse ``selectk``/``compactify``
    analog (reference core/ss/matrix.py:3815,3877; SURVEY.md §2.5).
    ``how`` ∈ largest | smallest (by value, ties to ascending dst) |
    first | last (stored order = ascending dst, the reference's
    column-position order) | random (deterministic mix64(dst ^ seed)
    ranking — reproducible across runs and partitionings, matching the
    reference's seeded random selectk). Default preserves the old
    boolean: largest when ``largest=True`` else smallest.

    Shape: rides ``sort_rowwise``'s single src-keyed co-group + one
    vectorized lexsort with segmented rank per bucket, then keeps
    ``rank < k`` — no per-row Python groups, so 10^9 rows cost one sort
    per bucket, not 10^9 group invocations."""
    how = how or ("largest" if largest else "smallest")
    if how in ("largest", "smallest"):
        ranked = sort_rowwise(edges, ascending=how == "smallest",
                              num_buckets=num_buckets)

        def keep(t: pa.Table) -> pa.Table:
            r = _col(t, "rank", np.int64)
            return t.filter(pa.array(r < k)).drop_columns(["rank"])

        return ranked.map_batches(keep, batch_format="pyarrow")
    if how not in ("first", "last", "random"):
        raise ValueError(f"selectk_rowwise: unknown how {how!r}")

    def pick(g: dict) -> pa.Table:
        src, dst, w = g["src"], g["dst"], g["w"]
        if how == "first":
            key = dst  # stored order ascends dst
        elif how == "last":
            key = np.iinfo(np.uint64).max - dst
        else:  # random: deterministic hash rank, ties impossible per row
            key = mix64(dst ^ np.uint64(seed))
        order = np.lexsort((key, src))
        src, dst, w = src[order], dst[order], w[order]
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        counts = np.diff(np.r_[starts, len(src)])
        rank = np.arange(len(src), dtype=np.int64) - np.repeat(starts, counts)
        kf = rank < k
        return pa.table({"src": src[kf], "dst": dst[kf], "w": w[kf]})

    return _cogroup([(edges, _row_cols(_val_dtype_of(edges, "w")))], pick,
                    key="src", num_buckets=num_buckets)


def sort_rowwise(edges, *, ascending: bool = True,
                 num_buckets: int = _DEFAULT_BUCKETS):
    """Per-row value sort with the permutation — the SuiteSparse
    ``Matrix.ss.sort`` analog (reference core/ss/matrix.py:3991;
    SURVEY.md §2.5). Output (src, rank, dst, w): within each src row,
    w sorted (ties by ascending dst), rank = 0-based position, and the
    dst column at rank r is the permutation vector P[src, r].

    Shape: ONE src-keyed co-group, then a single vectorized lexsort +
    segmented rank per bucket — no per-row groups, so a power-law
    row-degree distribution costs the same as a uniform one (the whole
    bucket sorts as one array)."""

    def srt(g: dict) -> pa.Table:
        src, dst, w = g["src"], g["dst"], g["w"]
        dk = w if ascending else (
            np.invert(w) if w.dtype.kind in "iub" else -w)
        order = np.lexsort((dst, dk, src))
        src, dst, w = src[order], dst[order], w[order]
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        counts = np.diff(np.r_[starts, len(src)])
        rank = np.arange(len(src), dtype=np.int64) - np.repeat(starts, counts)
        return pa.table({"src": src, "rank": rank, "dst": dst, "w": w})

    return _cogroup([(edges, _row_cols(_val_dtype_of(edges, "w")))], srt,
                    key="src", num_buckets=num_buckets)


# ------------------------------------------------------------ prefix scan ----


def _segmented_accumulate(ufunc: np.ufunc, vals: np.ndarray,
                          seg: np.ndarray) -> np.ndarray:
    """Running ⊕ within each segment of a segment-sorted array.

    pandas groupby cum* covers the common monoids in one Cython pass;
    anything else falls back to a Hillis-Steele doubling scan
    (log2(max-segment-length) vectorized passes) so every registered
    Monoid works.
    """
    cum = {np.add: "cumsum", np.multiply: "cumprod",
           np.minimum: "cummin", np.maximum: "cummax"}
    name = cum.get(ufunc)
    if name is None and ufunc in (np.logical_and, np.logical_or):
        b = pd.Series(vals.astype(bool)).groupby(seg, sort=False)
        out = (b.cummin() if ufunc is np.logical_and else b.cummax()).to_numpy()
        return out.astype(vals.dtype)
    if name is not None:
        out = getattr(pd.Series(vals).groupby(seg, sort=False), name)().to_numpy()
        return out.astype(vals.dtype, copy=False)
    # doubling scan: out[i] = op(out[i], out[i - shift]) while same segment
    out = vals.copy()
    n = len(out)
    shift = 1
    idx = np.arange(n)
    while shift < n:
        prev = idx - shift
        ok = (prev >= 0) & (seg[np.maximum(prev, 0)] == seg)
        if not ok.any():
            break
        nxt = out.copy()
        nxt[ok] = ufunc(out[ok], out[prev[ok]])
        out = nxt
        shift *= 2
    return out


def scan_vector(vec, monoid_name: str = "plus",
                num_buckets: int = _DEFAULT_BUCKETS):
    """Prefix scan by monoid over stored elements in ascending index order
    — the SuiteSparse ``Vector.ss.scan`` analog (reference
    core/ss/prefix_scan.py:12, ss/vector.py:1365; SURVEY.md §2.5).
    Result keeps the input's structure; values become the running ⊕.

    Shape (the classic distributed scan): range-bucket by index using cut
    points from per-batch quantile samples (driver state: B-1 values), ONE
    groupby(bucket) shuffle with a local accumulate per bucket, plus a
    per-batch partial reduce whose per-bucket totals (tiny, B rows on the
    driver) give each bucket its exclusive carry. No stage holds more
    than one bucket; nothing O(n) touches the driver.
    """
    m = MONOID[monoid_name]
    ds = _ds(vec).materialize()

    # --- cut points from per-batch quantiles (small, deterministic) ---
    def sample(t: pa.Table) -> pa.Table:
        v = np.sort(np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64))
        if len(v) == 0:
            return pa.table({"q": pa.array([], pa.uint64())})
        qs = v[np.linspace(0, len(v) - 1, 32).astype(np.int64)]
        return pa.table({"q": qs})

    qt = to_table(ds.map_batches(sample, batch_format="pyarrow"), sort_by=None)
    cand = np.sort(np.asarray(qt["q"].to_numpy(zero_copy_only=False), np.uint64))
    if len(cand) == 0:
        return ds
    cuts = cand[np.linspace(0, len(cand) - 1, num_buckets + 1).astype(np.int64)][1:-1]
    cuts = np.unique(cuts)

    def tag(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        b = np.searchsorted(cuts, v, side="right").astype(np.int32)
        return pa.table({"bucket": b, "v": v, "val": t["val"]})

    tagged = ds.map_batches(tag, batch_format="pyarrow").materialize()

    # --- per-bucket totals -> exclusive carries (tiny driver state) ---
    def partial(t: pa.Table) -> pa.Table:
        b = np.asarray(t["bucket"].to_numpy(zero_copy_only=False))
        x = np.asarray(t["val"].to_numpy(zero_copy_only=False))
        if len(b) == 0:
            return pa.table({"bucket": b, "p": x})
        order = np.argsort(b, kind="stable")
        bs, xs = b[order], x[order]
        starts = np.flatnonzero(np.r_[True, bs[1:] != bs[:-1]])
        return pa.table({"bucket": bs[starts], "p": m.ufunc.reduceat(xs, starts)})

    pt = to_table(tagged.map_batches(partial, batch_format="pyarrow"), sort_by=None)
    pb = np.asarray(pt["bucket"].to_numpy(zero_copy_only=False))
    pp = np.asarray(pt["p"].to_numpy(zero_copy_only=False))
    order = np.argsort(pb, kind="stable")
    pb, pp = pb[order], pp[order]
    starts = np.flatnonzero(np.r_[True, pb[1:] != pb[:-1]]) if len(pb) else np.array([], np.int64)
    totals_b = pb[starts]
    totals = m.ufunc.reduceat(pp, starts) if len(pb) else pp
    # exclusive scan over bucket totals, in bucket order
    carries: dict[int, object] = {}
    acc = None
    for bk, tot in zip(totals_b, totals):
        carries[int(bk)] = acc
        acc = tot if acc is None else m.ufunc(acc, tot)

    def scan_bucket(g: pd.DataFrame) -> pa.Table:
        v = g["v"].to_numpy(np.uint64)
        x = g["val"].to_numpy()
        order = np.argsort(v, kind="stable")
        v, x = v[order], x[order]
        out = m.ufunc.accumulate(x)
        carry = carries.get(int(g["bucket"].iloc[0]))
        if carry is not None:
            out = m.ufunc(carry, out).astype(out.dtype, copy=False)
        return pa.table({"v": v, "val": out})

    # range buckets, not _cogroup's hash buckets: the carries need buckets
    # that follow ascending index order
    return tagged.groupby("bucket").map_groups(scan_bucket, batch_format="pandas")


def scan_rowwise(edges, monoid_name: str = "plus",
                 num_buckets: int = _DEFAULT_BUCKETS):
    """Per-row prefix scan along ascending dst — the SuiteSparse
    ``Matrix.ss.scan`` analog (reference core/ss/prefix_scan.py:12,
    ss/matrix.py:3701). Output (src, dst, w) where w = running ⊕ of the
    row's stored values up to dst.

    Shape: ONE src-keyed co-group (rows never split), then a single
    vectorized lexsort + segmented accumulate per bucket — same
    skew-proof layout as :func:`sort_rowwise`.
    """
    m = MONOID[monoid_name]

    def scan_bucket(g: dict) -> pa.Table:
        src, dst, w = g["src"], g["dst"], g["w"]
        order = np.lexsort((dst, src))
        src, dst, w = src[order], dst[order], w[order]
        out = _segmented_accumulate(m.ufunc, w, src)
        return pa.table({"src": src, "dst": dst, "w": out})

    return _cogroup([(edges, _row_cols(_val_dtype_of(edges, "w")))],
                    scan_bucket, key="src", num_buckets=num_buckets)


# -------------------------------------------------------- reshape/flatten ----


def flatten_matrix(edges, ncols: int):
    """Matrix -> vector of linear indices v = src*ncols + dst (reference
    ``Matrix.ss.flatten``, core/ss/matrix.py:3717; row-wise order)."""

    def fn(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        return pa.table({"v": s * np.uint64(ncols) + d, "val": t["w"]})

    return _ds(edges).map_batches(fn, batch_format="pyarrow")


def reshape_vector(vec, ncols: int):
    """Vector of linear indices -> matrix src = v // ncols, dst = v % ncols
    (reference ``Vector.ss.reshape``/``Matrix.ss.reshape``,
    core/ss/matrix.py:3742; row-wise order)."""

    def fn(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        return pa.table({"src": v // np.uint64(ncols),
                         "dst": v % np.uint64(ncols), "w": t["val"]})

    return _ds(vec).map_batches(fn, batch_format="pyarrow")


def reshape_matrix(edges, ncols_old: int, ncols_new: int):
    """Reshape (nrows, ncols_old) -> (*, ncols_new) keeping row-wise linear
    order — flatten + re-split as pure key arithmetic in one map."""

    def fn(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        lin = s * np.uint64(ncols_old) + d
        return pa.table({"src": lin // np.uint64(ncols_new),
                         "dst": lin % np.uint64(ncols_new), "w": t["w"]})

    return _ds(edges).map_batches(fn, batch_format="pyarrow")


def split_matrix(edges, row_cuts, col_cuts):
    """Tile a matrix into a grid (reference ``gb.ss.split``,
    core/ss/matrix.py:281): ``row_cuts``/``col_cuts`` are the tile
    HEIGHTS/WIDTHS (SuiteSparse ``Tiles`` convention).  Returns ONE
    Dataset tagged ``(tr, tc, src, dst, w)`` with tile-LOCAL indices —
    a pure elementwise searchsorted per batch, no shuffle; per-tile
    tables are a filter away (scale-safe: the grid never materializes
    on the driver)."""
    r_off = np.concatenate([[0], np.cumsum(np.asarray(row_cuts, np.uint64))]
                           ).astype(np.uint64)
    c_off = np.concatenate([[0], np.cumsum(np.asarray(col_cuts, np.uint64))]
                           ).astype(np.uint64)

    def fn(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        # tiles must cover the matrix (reference gb.ss.split errors on
        # entries at/beyond sum(cuts) — an uncovered entry would land in
        # a silent phantom tile otherwise; ADVICE r4)
        if len(s) and (s.max() >= r_off[-1] or d.max() >= c_off[-1]):
            raise ValueError(
                "split_matrix: entry index beyond sum(row_cuts)/sum(col_cuts)"
                " — tiles must cover the matrix (gb.ss.split semantics)")
        tr = (np.searchsorted(r_off, s, "right") - 1).astype(np.int32)
        tc = (np.searchsorted(c_off, d, "right") - 1).astype(np.int32)
        return pa.table({"tr": tr, "tc": tc,
                         "src": s - r_off[tr], "dst": d - c_off[tc],
                         "w": _wcol(t)})

    return _ds(edges).map_batches(fn, batch_format="pyarrow")


def concat_matrix(tiles, row_cuts, col_cuts):
    """Inverse of :func:`split_matrix` (reference ``gb.ss.concat``,
    core/ss/matrix.py:363): ``tiles`` is the tagged Dataset (or a list
    of ``(tr, tc, table)``); global indices restored by adding the tile
    offsets — elementwise, no shuffle."""
    r_off = np.concatenate([[0], np.cumsum(np.asarray(row_cuts, np.uint64))]
                           ).astype(np.uint64)
    c_off = np.concatenate([[0], np.cumsum(np.asarray(col_cuts, np.uint64))]
                           ).astype(np.uint64)
    if isinstance(tiles, list):
        parts = []
        for tr, tc, t in tiles:
            n = t.num_rows
            parts.append(pa.table({
                "tr": np.full(n, tr, np.int32), "tc": np.full(n, tc, np.int32),
                "src": np.asarray(t["src"].to_numpy(zero_copy_only=False),
                                  np.uint64),
                "dst": np.asarray(t["dst"].to_numpy(zero_copy_only=False),
                                  np.uint64),
                "w": _wcol(t)}))
        import ray.data as _rd
        tiles = _rd.from_arrow(pa.concat_tables(parts))

    def fn(t: pa.Table) -> pa.Table:
        tr = np.asarray(t["tr"].to_numpy(zero_copy_only=False), np.int64)
        tc = np.asarray(t["tc"].to_numpy(zero_copy_only=False), np.int64)
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        return pa.table({"src": s + r_off[tr], "dst": d + c_off[tc],
                         "w": _wcol(t)})

    return _ds(tiles).map_batches(fn, batch_format="pyarrow")


# ------------------------------------------------------- remaining surface ----


def _match_cost(x, x_key: str, y, y_key: str,
                num_buckets: int = _DEFAULT_BUCKETS,
                x_count: int | None = None) -> int:
    """Exact Σ_k cx(k)·cy(k) over keys present on both sides — the cost
    model for mxm mode selection (wedge count / dot-mode intermediate
    rows). One bucketed co-group over per-batch pre-combined (key, count)
    partials; each bucket emits a single scalar, the driver sums ≤
    num_buckets rows. Metadata-scale: the shuffle carries counts, never
    the edges themselves.

    When the caller knows x is small (``x_count`` ≤
    :data:`MXM_DOT_BROADCAST_MAX`, e.g. x = a sparse mask), x's merged
    (key, count) table is gathered once, broadcast via ``ray.put``, and
    y is scanned in a single pass emitting ONE partial scalar per batch
    — no exchange at all."""
    if x_count is not None and x_count <= MXM_DOT_BROADCAST_MAX:
        import ray as _ray

        kparts, cparts = [], []
        for b in _ds(x).select_columns([x_key]).iter_batches(
                batch_format="pyarrow"):
            k = np.asarray(b[x_key].to_numpy(zero_copy_only=False),
                           np.uint64)
            uk, cnt = np.unique(k, return_counts=True)
            kparts.append(uk)
            cparts.append(cnt.astype(np.int64))
        if not kparts:
            return 0
        kx = np.concatenate(kparts)
        order = np.argsort(kx)
        kx, cx = kx[order], np.concatenate(cparts)[order]
        starts = np.flatnonzero(np.r_[True, kx[1:] != kx[:-1]])
        kx = kx[starts]
        cx = np.add.reduceat(cx, starts)
        ref = _ray.put((kx, cx))

        def partial(t: pa.Table) -> pa.Table:
            kxx, cxx = _ray.get(ref)
            k = np.asarray(t[y_key].to_numpy(zero_copy_only=False),
                           np.uint64)
            uk, cnt = np.unique(k, return_counts=True)
            pos = np.searchsorted(kxx, uk)
            ok = (pos < len(kxx)) & (
                kxx[np.minimum(pos, len(kxx) - 1)] == uk)
            tot = int((cxx[pos[ok]] * cnt[ok]).sum())
            return pa.table({"t": pa.array([tot], pa.int64())})

        rows = _ds(y).map_batches(partial,
                                  batch_format="pyarrow").take_all()
        return int(sum(r["t"] for r in rows))

    def counts(ds, key_col: str, side: int):
        def fn(t: pa.Table) -> pa.Table:
            k = np.asarray(t[key_col].to_numpy(zero_copy_only=False),
                           np.uint64)
            uk, cnt = np.unique(k, return_counts=True)
            return pa.table({
                "part": part_of(uk, num_buckets),
                "k": uk, "c": cnt.astype(np.int64),
                "side": np.full(len(uk), side, np.int8),
            })

        return _ds(ds).map_batches(fn, batch_format="pyarrow")

    def agg(g: pa.Table) -> pa.Table:
        k = np.asarray(g["k"].to_numpy(zero_copy_only=False), np.uint64)
        c = np.asarray(g["c"].to_numpy(zero_copy_only=False), np.int64)
        side = np.asarray(g["side"].to_numpy(zero_copy_only=False), np.int8)

        def tot(sel):
            kk, cc = k[sel], c[sel]
            order = np.argsort(kk)
            kk, cc = kk[order], cc[order]
            starts = np.flatnonzero(np.r_[True, kk[1:] != kk[:-1]]) \
                if len(kk) else np.empty(0, np.int64)
            return (kk[starts] if len(kk) else kk,
                    np.add.reduceat(cc, starts) if len(kk) else cc)

        kx, cx = tot(side == 0)
        ky, cy = tot(side == 1)
        if len(kx) == 0 or len(ky) == 0:
            return pa.table({"t": pa.array([0], pa.int64())})
        pos = np.searchsorted(kx, ky)
        ok = (pos < len(kx)) & (kx[np.minimum(pos, len(kx) - 1)] == ky)
        total = int((cx[pos[ok]] * cy[ok]).sum())
        return pa.table({"t": pa.array([total], pa.int64())})

    # integer-keyed routing: the raw-task exchange instead of a Ray
    # sort-shuffle — the per-batch count partials still total ~1 row per
    # distinct key per block (hundreds of MB at 139M edges), which is
    # real sort volume but only 64 trivially-summable packets here.
    import ray as _ray

    from raygraph.shuffle import exchange

    refs = exchange([counts(x, x_key, 0), counts(y, y_key, 1)],
                    num_buckets, agg)
    return int(sum(int(t["t"][0].as_py())
                   for t in _ray.get([r for r in refs if r is not None])))


def _mxm_wedge(a_edges, b_edges, sr, num_buckets, mask, complement):
    """Gustavson-style masked/unmasked product: join A ⋈ B on the
    contraction key k, locally ⊕-combine partials per (i,j), and apply
    the (structural) mask inside the second hop's combine — the
    unmasked C is never materialized, but the intermediate is
    wedge-volume bound (use _mxm_dot when the mask is sparse).

    Both hops are raw-task hash exchanges (:func:`raygraph.shuffle.exchange`)
    — integer-keyed routing; Ray's sort machinery added tens of seconds
    of pure overhead per hop at 139M-edge scale."""
    import ray.data as _rd

    from raygraph.shuffle import exchange, refs_to_dataset

    monoid = sr.monoid
    P = int(num_buckets)
    dt = np.result_type(_val_dtype_of(a_edges, "w"),
                        _val_dtype_of(b_edges, "w"))
    out_dt = _sr_out_dtype(sr, dt)
    _empty = _empty_edges(out_dt)

    def tag(ds, side):
        def fn(t: pa.Table) -> pa.Table:
            key = t["dst" if side == 0 else "src"]
            k = np.asarray(key.to_numpy(zero_copy_only=False), np.uint64)
            other = t["src" if side == 0 else "dst"]
            return pa.table(
                {
                    "part": part_of(k, P),
                    "k": k,
                    "o": np.asarray(other.to_numpy(zero_copy_only=False), np.uint64),
                    "w": _wcol(t, dt),
                    "side": np.full(t.num_rows, side, np.int8),
                }
            )

        return _ds(ds).map_batches(fn, batch_format="pyarrow")

    masked = mask is not None
    _join_empty_cols = {"part": pa.array([], pa.int32()),
                        "src": pa.array([], pa.uint64()),
                        "dst": pa.array([], pa.uint64()),
                        "w": pa.array(np.empty(0, out_dt))}
    if masked:
        _join_empty_cols["kind"] = pa.array([], pa.int8())
    _join_empty = pa.table(_join_empty_cols)

    def join(g: pa.Table) -> pa.Table:
        k = np.asarray(g["k"].to_numpy(zero_copy_only=False), np.uint64)
        o = np.asarray(g["o"].to_numpy(zero_copy_only=False), np.uint64)
        w = np.asarray(g["w"].to_numpy(zero_copy_only=False), dt)
        side = np.asarray(g["side"].to_numpy(zero_copy_only=False), np.int8)
        isb = side == 1
        ka, oa, wa = k[~isb], o[~isb], w[~isb]
        kb, ob, wb = k[isb], o[isb], w[isb]
        if len(ka) == 0 or len(kb) == 0:
            return _join_empty
        # sorted-expansion join on k (≈2x a pandas hash merge at wedge
        # volumes, and no DataFrame materialization)
        order_b = np.argsort(kb, kind="stable")
        kb, ob, wb = kb[order_b], ob[order_b], wb[order_b]
        left = np.searchsorted(kb, ka, "left")
        right = np.searchsorted(kb, ka, "right")
        cnt = right - left
        tot = int(cnt.sum())
        if tot == 0:
            return _join_empty
        rep = np.repeat(np.arange(len(ka)), cnt)
        offs = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        bidx = np.repeat(left, cnt) + offs
        i = oa[rep]
        j = ob[bidx]
        # f(a_ik, b_kj) with k = ka[rep] (positional firstj/secondi)
        val = _mul_vals(sr, wa[rep], wb[bidx],
                        fi=i, fj=ka[rep], si=ka[rep], sj=j)
        # local ⊕-combine per (i, j) before the second hop
        order = np.lexsort((j, i))
        i, j, val = i[order], j[order], val[order]
        new = np.r_[True, (i[1:] != i[:-1]) | (j[1:] != j[:-1])]
        starts = np.flatnonzero(new)
        i, j = i[starts], j[starts]
        val = monoid.ufunc.reduceat(val, starts)
        cols = {"part": pair_part(i, j, P), "src": i, "dst": j, "w": val}
        if masked:
            cols["kind"] = np.zeros(len(i), np.int8)
        return pa.table(cols)

    p_refs = exchange([tag(a_edges, 0), tag(b_edges, 1)], P, join)
    partial = refs_to_dataset(p_refs)
    if partial is None:
        return _rd.from_arrow(_empty)

    def tag_mask(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        return pa.table({
            "part": pair_part(s, d, P),
            "src": s, "dst": d,
            "w": np.zeros(len(s), out_dt),
            "kind": np.ones(len(s), np.int8),
        })

    def final(g: pa.Table) -> pa.Table:
        s = np.asarray(g["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(g["dst"].to_numpy(zero_copy_only=False), np.uint64)
        w = np.asarray(g["w"].to_numpy(zero_copy_only=False), out_dt)
        if len(s) == 0:
            return _empty
        order = np.lexsort((d, s))
        s, d, w = s[order], d[order], w[order]
        new = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])]
        starts = np.flatnonzero(new)
        return pa.table({"src": s[starts], "dst": d[starts],
                         "w": monoid.ufunc.reduceat(w, starts)})

    def final_masked(g: pa.Table) -> pa.Table:
        """Structural-mask reduce: a (src,dst) survives iff it has ≥1
        product row AND (has a mask row) != complement; mask rows carry
        no value."""
        s = np.asarray(g["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(g["dst"].to_numpy(zero_copy_only=False), np.uint64)
        w = np.asarray(g["w"].to_numpy(zero_copy_only=False), out_dt)
        k = np.asarray(g["kind"].to_numpy(zero_copy_only=False), np.int8)
        if len(s) == 0:
            return _empty
        order = np.lexsort((d, s))
        s, d, w, k = s[order], d[order], w[order], k[order]
        new = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])]
        starts = np.flatnonzero(new)
        counts = np.diff(np.r_[starts, len(s)])
        n_mask = np.add.reduceat(k.astype(np.int64), starts)
        n_prod = counts - n_mask
        keep = (n_prod > 0) & ((n_mask > 0) != complement)
        # reduce over product rows only (sorted order preserved)
        pm = k == 0
        if not pm.any():
            return _empty
        sp, dp, wp = s[pm], d[pm], w[pm]
        pnew = np.r_[True, (sp[1:] != sp[:-1]) | (dp[1:] != dp[:-1])]
        pstarts = np.flatnonzero(pnew)
        vals = monoid.ufunc.reduceat(wp, pstarts)
        # product groups appear in the same (s,d) order as groups with
        # n_prod>0 — align keep onto them
        keep_pg = keep[n_prod > 0]
        return pa.table({"src": sp[pstarts][keep_pg],
                         "dst": dp[pstarts][keep_pg],
                         "w": vals[keep_pg]})

    if not masked:
        out = refs_to_dataset(exchange([partial], P, final))
        return out if out is not None else _rd.from_arrow(_empty)
    mtag = _ds(mask).map_batches(tag_mask, batch_format="pyarrow")
    out = refs_to_dataset(exchange([partial, mtag], P, final_masked))
    return out if out is not None else _rd.from_arrow(_empty)


# Sparse-mask broadcast threshold for _mxm_dot: masks at or under this
# many entries have their distinct row/col ids shipped once via ray.put
# (≤64 MB per key array at the limit) and A/B prefiltered with a linear
# searchsorted scan — no full-input shuffle at all. Module-level so tests
# can pin it to 0 and exercise the exchange path on small fixtures.
MXM_DOT_BROADCAST_MAX = 8_000_000


def _mxm_dot(a_edges, b_edges, sr, mask, num_buckets):
    """Mask-driven dot-product mode: compute C ONLY at mask positions —
    the scale path when ``nnz(mask)·avg_rowdeg(A) ≪ wedge count`` (what
    SuiteSparse's masked-product mode selection picks for sparse masks;
    reference core/matrix.py:2206 + core/mask.py:131-200 semantics).

    When the mask has ≤ :data:`MXM_DOT_BROADCAST_MAX` entries, its
    distinct row ids are broadcast once (``ray.put``) and A is
    pre-filtered to ``src ∈ mask.i`` in one vectorized ``map_batches``
    scan — a semi-join that never shuffles the full input; likewise B is
    pre-filtered to ``src ∈ {k of the expanded queries}``. The exchanges
    below then move only ``O(Σ_{(i,j)∈M} deg_A(i))`` rows. Partitioning
    assumption: the broadcast regime IS the dot regime — a mask too
    large to broadcast falls through to the full bucketed exchange, and
    auto mode would usually have picked wedge mode for it anyway.

    Three explicit hash exchanges (raw-task :func:`raygraph.shuffle.exchange`
    — an integer-keyed routing problem; a ``groupby().map_groups`` here
    pays Ray's full sort machinery, measured 10-27 s of pure sort
    overhead per stage on a 139M-edge input), none wedge-bound:
      1. route mask entries (i,j) and A rows (i,k) by mix64(i); per
         part, fan each mask entry out across A's row-i adjacency →
         rows (j, i, k, a_ik). Volume = Σ_{(i,j)∈M} deg_A(i), logged by
         the caller via _match_cost — NOT Σ_k in·out over hubs.
      2. route those rows AND B entries (k,j) by mix64(k) — the
         CONTRACTION index, never j: web-graph dst ids are Zipf-hubbed
         and a j-keyed part puts every row of a hub column into one
         task (measured 28 s straggler), while out-degree (src) is
         bounded for web pages. Per part, intersect on (k,j) with one
         vectorized dense-encoded searchsorted, ⊗ the matched pairs,
         partial-⊕ per (i,j).
      3. route the (pre-combined) partials by pair-hash(i,j) and finish
         the ⊕ — volume ≤ the matched-pair stream.
    """
    import ray as _ray
    import ray.data as _rd

    from raygraph.shuffle import exchange, refs_to_dataset

    monoid = sr.monoid
    dt = np.result_type(_val_dtype_of(a_edges, "w"),
                        _val_dtype_of(b_edges, "w"))
    out_dt = _sr_out_dtype(sr, dt)
    _empty = _empty_edges(out_dt)
    P = int(num_buckets)

    def _semijoin(keys_ref, col):
        def fn(t: pa.Table) -> pa.Table:
            keys = _ray.get(keys_ref)  # plasma read, zero-copy per task
            if len(keys) == 0:
                return t.slice(0, 0)
            v = np.asarray(t[col].to_numpy(zero_copy_only=False),
                           np.uint64)
            pos = np.searchsorted(keys, v)
            ok = (pos < len(keys)) & (
                keys[np.minimum(pos, len(keys) - 1)] == v)
            return t.filter(pa.array(ok))
        return fn

    # ---- stage 0 (sparse-mask fast path): broadcast-semijoin prefilter ----
    mask = _ds(mask).materialize()
    bcast = mask.count() <= MXM_DOT_BROADCAST_MAX
    if bcast:
        mis = [np.asarray(b["src"].to_numpy(zero_copy_only=False), np.uint64)
               for b in mask.select_columns(["src"]).iter_batches(
                   batch_format="pyarrow")]
        mi = np.unique(np.concatenate(mis)) if mis else np.empty(0, np.uint64)
        a_edges = _ds(a_edges).map_batches(_semijoin(_ray.put(mi), "src"),
                                           batch_format="pyarrow")

    # ---- stage 1: attach A's row adjacency to each mask entry ----
    def tag_a(t: pa.Table) -> pa.Table:
        i = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        return pa.table({
            "part": part_of(i, P),
            "i": i,
            "jk": np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64),
            "x": _wcol(t, dt),
            "side": np.zeros(len(i), np.int8),
        })

    def tag_m(t: pa.Table) -> pa.Table:
        i = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        return pa.table({
            "part": part_of(i, P),
            "i": i,
            "jk": np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64),
            "x": np.zeros(len(i), dt),
            "side": np.ones(len(i), np.int8),
        })

    def expand(g: pa.Table) -> pa.Table:
        i = np.asarray(g["i"].to_numpy(zero_copy_only=False), np.uint64)
        jk = np.asarray(g["jk"].to_numpy(zero_copy_only=False), np.uint64)
        x = np.asarray(g["x"].to_numpy(zero_copy_only=False), dt)
        side = np.asarray(g["side"].to_numpy(zero_copy_only=False), np.int8)
        ism = side == 1
        empty = pa.table({"part": pa.array([], pa.int32()),
                          "j": pa.array([], pa.uint64()),
                          "i": pa.array([], pa.uint64()),
                          "k": pa.array([], pa.uint64()),
                          "x": pa.array(np.empty(0, dt)),
                          "side": pa.array([], pa.int8())})
        mi, mj = i[ism], jk[ism]
        ai, ak, aw = i[~ism], jk[~ism], x[~ism]
        if len(mi) == 0 or len(ai) == 0:
            return empty
        order = np.argsort(ai, kind="stable")
        ai, ak, aw = ai[order], ak[order], aw[order]
        left = np.searchsorted(ai, mi, "left")
        right = np.searchsorted(ai, mi, "right")
        cnt = right - left
        tot = int(cnt.sum())
        if tot == 0:
            return empty
        rep = np.repeat(np.arange(len(mi)), cnt)      # which mask entry
        offs = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        src_a = np.repeat(left, cnt) + offs           # which A row
        k_out = ak[src_a]
        return pa.table({
            "part": part_of(k_out, P),
            "j": mj[rep], "i": mi[rep], "k": k_out, "x": aw[src_a],
            "side": np.zeros(tot, np.int8),
        })

    q_refs = exchange(
        [_ds(a_edges).map_batches(tag_a, batch_format="pyarrow"),
         mask.map_batches(tag_m, batch_format="pyarrow")],
        P, expand)
    queries = refs_to_dataset(q_refs)
    if queries is None:
        return _rd.from_arrow(_empty)

    if bcast:
        # second prefilter: B rows can match only k values that actually
        # occur in the expanded queries — ship those once and scan B
        # linearly (uniform src key, no full-table shuffle lost to hubs).
        ks = [np.asarray(b["k"].to_numpy(zero_copy_only=False), np.uint64)
              for b in queries.select_columns(["k"]).iter_batches(
                  batch_format="pyarrow")]
        uk = np.unique(np.concatenate(ks)) if ks else np.empty(0, np.uint64)
        if len(uk) <= MXM_DOT_BROADCAST_MAX:
            b_edges = _ds(b_edges).map_batches(
                _semijoin(_ray.put(uk), "src"), batch_format="pyarrow")

    # ---- stage 2: intersect with B on (k,j), partial ⊕ per (i,j) ----
    def tag_b(t: pa.Table) -> pa.Table:
        k = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        return pa.table({
            "part": part_of(k, P),
            "j": np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64),
            "i": np.zeros(len(k), np.uint64),
            "k": k,
            "x": _wcol(t, dt),
            "side": np.ones(len(k), np.int8),
        })

    _partial_empty = pa.table({"part": pa.array([], pa.int32()),
                               "src": pa.array([], pa.uint64()),
                               "dst": pa.array([], pa.uint64()),
                               "w": pa.array(np.empty(0, out_dt))})

    def dot(g: pa.Table) -> pa.Table:
        j = np.asarray(g["j"].to_numpy(zero_copy_only=False), np.uint64)
        i = np.asarray(g["i"].to_numpy(zero_copy_only=False), np.uint64)
        k = np.asarray(g["k"].to_numpy(zero_copy_only=False), np.uint64)
        x = np.asarray(g["x"].to_numpy(zero_copy_only=False), dt)
        side = np.asarray(g["side"].to_numpy(zero_copy_only=False), np.int8)
        isb = side == 1
        qj, qi, qk, qx = j[~isb], i[~isb], k[~isb], x[~isb]
        bj, bk, bx = j[isb], k[isb], x[isb]
        if len(qj) == 0 or len(bj) == 0:
            return _partial_empty
        # dense-encode (k, j) within the part so the pair join is ONE
        # searchsorted over packed int64 keys (full-range uint64 ids
        # cannot pack directly)
        uj, inv_j = np.unique(np.concatenate([bj, qj]), return_inverse=True)
        uk2, inv_k = np.unique(np.concatenate([bk, qk]), return_inverse=True)
        if len(uj) >= 2**31 or len(uk2) >= 2**31:  # pragma: no cover
            raise ValueError("_mxm_dot: part too large to pair-encode; "
                             "raise num_buckets")
        nb = len(bj)
        key_b = inv_k[:nb].astype(np.int64) * len(uj) + inv_j[:nb]
        key_q = inv_k[nb:].astype(np.int64) * len(uj) + inv_j[nb:]
        order = np.argsort(key_b)
        key_b, bx_s = key_b[order], bx[order]
        pos = np.searchsorted(key_b, key_q)
        ok = (pos < len(key_b)) & (key_b[np.minimum(pos, len(key_b) - 1)] == key_q)
        if not ok.any():
            return _partial_empty
        ri, rj, rk = qi[ok], qj[ok], qk[ok]
        # f(a_ik, b_kj) at mask positions (dot mode)
        val = _mul_vals(sr, qx[ok], bx_s[pos[ok]], fi=ri, fj=rk, si=rk, sj=rj)
        # in-part partial ⊕ per (i,j); contributions from other k-parts
        # are combined in the (small) stage-3 exchange below
        order = np.lexsort((rj, ri))
        ri, rj, val = ri[order], rj[order], val[order]
        new = np.r_[True, (ri[1:] != ri[:-1]) | (rj[1:] != rj[:-1])]
        starts = np.flatnonzero(new)
        ri, rj = ri[starts], rj[starts]
        w = monoid.ufunc.reduceat(val, starts)
        return pa.table({"part": pair_part(ri, rj, P), "src": ri, "dst": rj,
                         "w": w})

    p_refs = exchange(
        [queries, _ds(b_edges).map_batches(tag_b, batch_format="pyarrow")],
        P, dot)
    partials = refs_to_dataset(p_refs)
    if partials is None:
        return _rd.from_arrow(_empty)

    # ---- stage 3: ⊕-combine per (i,j) across k-parts (volume ≤ the
    # matched-pair stream, already pre-combined per part) ----
    def combine(g: pa.Table) -> pa.Table:
        ri = np.asarray(g["src"].to_numpy(zero_copy_only=False), np.uint64)
        rj = np.asarray(g["dst"].to_numpy(zero_copy_only=False), np.uint64)
        val = np.asarray(g["w"].to_numpy(zero_copy_only=False), out_dt)
        if len(ri) == 0:
            return _empty
        order = np.lexsort((rj, ri))
        ri, rj, val = ri[order], rj[order], val[order]
        new = np.r_[True, (ri[1:] != ri[:-1]) | (rj[1:] != rj[:-1])]
        starts = np.flatnonzero(new)
        return pa.table({"src": ri[starts], "dst": rj[starts],
                         "w": monoid.ufunc.reduceat(val, starts)})

    out_refs = exchange([partials], P, combine)
    out = refs_to_dataset(out_refs)
    return out if out is not None else _rd.from_arrow(_empty)


def mxm(a_edges, b_edges, semiring: str = "plus_times",
        num_buckets: int = _DEFAULT_BUCKETS, *,
        mask=None, complement: bool = False, value_mask: bool = False,
        mode: str = "auto", stats: dict | None = None):
    """General sparse matmul C[i,j] = ⊕_k A[i,k] ⊗ B[k,j]
    (reference matrix.py:2206), with the reference's central masked form
    ``C(mask) << A.mxm(B)`` (core/mask.py:131-200). Two execution modes,
    auto-selected from exact degree statistics the way SuiteSparse picks
    Gustavson vs dot products for masked outputs:

    * ``wedge`` (Gustavson): A⋈B on the contraction key; mask (if any)
      applied as a kind-tagged semi-join inside the final combine — the
      unmasked C is never materialized, but the intermediate is
      wedge-volume bound. The only mode for unmasked or
      complement-masked products.
    * ``dot``: compute only at mask positions (structural semi-join is
      the FIRST step) — intermediate is Σ_{(i,j)∈M} deg_A(i) rows, not
      Σ_k in·out over hubs. Selected when the mask is sparse relative
      to the wedge stream.

    ``mode='auto'`` runs two metadata-scale counting passes
    (:func:`_match_cost`) and records its decision in ``stats``
    (est_wedges / est_dot_rows / mode) when a dict is passed.
    ``value_mask`` treats the mask as the reference's ValueMask
    (truthy entries only; core/mask.py:149) — a value mask is exactly a
    structural mask over its truthy subset, under complement too.
    """
    sr = SEMIRING[semiring]
    if mask is not None and value_mask:
        def _truthy(t: pa.Table) -> pa.Table:
            w = np.asarray(t["w"].to_numpy(zero_copy_only=False))
            return t.filter(pa.array(w != 0))

        mask = _ds(mask).map_batches(_truthy, batch_format="pyarrow")
    if mode not in ("auto", "wedge", "dot"):
        raise ValueError(f"mxm: unknown mode {mode!r}")
    if mask is None or complement:
        if mode == "dot":
            raise ValueError("mxm: dot mode needs a non-complemented mask "
                             "(a complement mask's positions are dense)")
        mode = "wedge"
    elif mode == "auto":
        # exact cost of each mode's intermediate, from degree stats:
        # wedge rows = Σ_k din_A(k)·dout_B(k); dot rows = Σ_{(i,j)∈M} deg_A(i)
        mask = _ds(mask).materialize()  # consumed by estimate + product
        est_wedges = _match_cost(a_edges, "dst", b_edges, "src", num_buckets)
        est_dot = _match_cost(mask, "src", a_edges, "src", num_buckets,
                              x_count=mask.count())
        mode = "dot" if est_dot < est_wedges else "wedge"
        if stats is not None:
            stats.update({"mode": mode, "est_wedges": est_wedges,
                          "est_dot_rows": est_dot})
    if stats is not None:
        stats.setdefault("mode", mode)
    if mode == "dot":
        return _mxm_dot(a_edges, b_edges, sr, mask, num_buckets)
    return _mxm_wedge(a_edges, b_edges, sr, num_buckets, mask, complement)


def diag_matrix(vec, k: int = 0):
    """Vector -> diagonal edge table (reference Matrix.diag, matrix.py:735;
    ``gb.ss.diag`` off-diagonal offset k: element i lands at
    (i, i+k) for k >= 0 and (i-k, i) for k < 0, SuiteSparse GxB_Matrix_diag
    semantics)."""

    def fn(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        w = np.asarray(t["val"].to_numpy(zero_copy_only=False))
        if k >= 0:
            return pa.table({"src": v, "dst": v + np.uint64(k), "w": w})
        return pa.table({"src": v + np.uint64(-k), "dst": v, "w": w})

    return _ds(vec).map_batches(fn, batch_format="pyarrow")


def diag_extract(edges, k: int = 0):
    """Matrix k-th diagonal -> vector (reference Vector.diag,
    vector.py:620): entry at (i, i+k) [k >= 0] or (i-k, i) [k < 0]
    becomes vector element i."""

    def fn(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        if k >= 0:
            keep = d == s + np.uint64(k)
            idx = s[keep]
        else:
            keep = s == d + np.uint64(-k)
            idx = d[keep]
        return pa.table({"v": idx,
                         "val": np.asarray(
                             t["w"].to_numpy(zero_copy_only=False))[keep]})

    return _ds(edges).map_batches(fn, batch_format="pyarrow")


def inner(a, b, semiring: str = "plus_times") -> float | None:
    """v.inner(w, semiring) -> scalar (reference vector.py:1609): ⊗ on the
    intersection, global ⊕ reduce."""
    sr = SEMIRING[semiring]
    if isinstance(sr.binary, PositionalMul):
        raise NotImplementedError(
            "positional semirings are supported in mxv/vxm/mxm, not inner")
    mul_name = sr.binary_name or "times"
    prod = ewise_mult(a, b, op_name=mul_name)
    return reduce_scalar(prod, sr.monoid.name, col="val")


def outer(a, b, op_name: str = "times", num_buckets: int = _DEFAULT_BUCKETS):
    """v.outer(w, binary) -> edge table (reference vector.py:1653).

    A cross product — materializes |a| x |b| entries; intended for SMALL
    vectors only (documented reference behavior is equally dense)."""
    bt = to_table(b)
    bv = np.asarray(bt["v"].to_numpy(zero_copy_only=False), np.uint64)
    bx = np.asarray(bt["val"].to_numpy(zero_copy_only=False))
    op = BINARY[op_name]
    dt = np.result_type(_val_dtype_of(a), bx.dtype)
    out_dt = _op_result_dtype(op, dt)
    import ray

    ref = ray.put((bv, np.asarray(bx, dt)))

    def fn(t: pa.Table) -> pa.Table:
        rv, rx = ray.get(ref)
        av = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        ax = np.asarray(
            np.asarray(t["val"].to_numpy(zero_copy_only=False)), dt)
        src = np.repeat(av, len(rv))
        dst = np.tile(rv, len(av))
        w = np.asarray(op(np.repeat(ax, len(rx)), np.tile(rx, len(ax))), out_dt)
        return pa.table({"src": src, "dst": dst, "w": w})

    return _ds(a).map_batches(fn, batch_format="pyarrow")


def _selectk_keys(v: np.ndarray, x: np.ndarray, how: str, seed: int):
    """lexsort keys (major last) for a selectk ordering."""
    if how == "largest":
        # descending-value key without a float64 round-trip: bit
        # complement reverses order exactly for int/uint/bool
        return (v, np.invert(x) if x.dtype.kind in "iub" else -x)
    if how == "smallest":
        return (v, x)
    if how == "first":
        return (v,)
    if how == "last":
        return (np.iinfo(np.uint64).max - v,)
    if how == "random":
        return (mix64(v ^ np.uint64(seed)),)
    raise ValueError(f"selectk_vector: unknown how={how!r}")


def selectk_vector(vec, k: int, *, how: str = "largest", seed: int = 0):
    """k elements of a VECTOR (reference ``Vector.ss.selectk``,
    core/ss/vector.py:1407).  ``how`` ∈ largest | smallest (by value,
    ties to ascending index) | first | last (stored order = ascending
    index) | random (deterministic mix64(v ^ seed) rank).  Per-batch
    partial top-k inside map_batches, then one driver-side merge over
    ≤ k·num_blocks survivors — k is small by contract (the reference
    materializes a k-element vector too)."""

    def partial(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        x = np.asarray(t["val"].to_numpy(zero_copy_only=False))
        order = np.lexsort(_selectk_keys(v, x, how, seed))[:k]
        return pa.table({"v": v[order], "val": x[order]})

    t = to_table(_ds(vec).map_batches(partial, batch_format="pyarrow"),
                 sort_by=None)
    v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
    x = np.asarray(t["val"].to_numpy(zero_copy_only=False))
    order = np.lexsort(_selectk_keys(v, x, how, seed))[:k]
    order = order[np.argsort(v[order], kind="stable")]  # ascending index out
    return pa.table({"v": v[order], "val": x[order]})


def compactify_vector(vec, k: int, *, how: str = "first", seed: int = 0):
    """``Vector.ss.compactify`` (reference core/ss/vector.py:1456): keep
    k elements in the chosen order and REINDEX them to 0..k-1 (the
    reference's dense-prefix semantics).  Built on
    :func:`selectk_vector`; full-vector compactify is ``extract`` of
    everything + a prefix-scan rank (see scan_vector) — this is the
    k-bounded form the reference notebooks use."""
    t = selectk_vector(vec, k, how=how, seed=seed)
    v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
    x = np.asarray(t["val"].to_numpy(zero_copy_only=False))
    order = np.lexsort(_selectk_keys(v, x, how, seed))
    return pa.table({"v": np.arange(len(v), dtype=np.uint64),
                     "val": x[order]})


def resize_matrix(edges, nrows: int, ncols: int):
    """``A.resize(nrows, ncols)`` (reference matrix.py:494): shrinking
    truncates entries outside the new shape; growing is a no-op on the
    stored entries (shape is metadata in the edge-table model).  One
    elementwise filter, no shuffle."""

    def fn(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        keep = (s < np.uint64(nrows)) & (d < np.uint64(ncols))
        return t.filter(pa.array(keep))

    return _ds(edges).map_batches(fn, batch_format="pyarrow")


def resize_vector(vec, size: int):
    """``v.resize(size)`` — truncate entries at or beyond ``size``."""

    def fn(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        return t.filter(pa.array(v < np.uint64(size)))

    return _ds(vec).map_batches(fn, batch_format="pyarrow")


def reposition(vec, offset: int):
    """Shift indices by a constant (reference vector.py:1695)."""

    def fn(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        with np.errstate(over="ignore"):
            v = v + np.uint64(offset)
        return pa.table({"v": v, "val": t["val"]})

    return _ds(vec).map_batches(fn, batch_format="pyarrow")


# (apply_positional lives in the apply/select section above — one
# definition covering rowindex/columnindex/index with thunk shift)


# ----------------------------------------------------- matrix ewise ops ----


def _empty_edges(dtype) -> pa.Table:
    return pa.table({"src": pa.array([], pa.uint64()),
                     "dst": pa.array([], pa.uint64()),
                     "w": pa.array(np.empty(0, dtype))})


def ewise_add_matrix(a, b, op_name: str = "plus",
                     num_buckets: int = _DEFAULT_BUCKETS):
    """Edge-table UNION: op where the (src,dst) cell exists in both,
    passthrough otherwise — graph overlay (reference matrix.py:1912)."""
    return _ewise(a, b, op_name, how="union", key=("src", "dst"), val="w",
                  num_buckets=num_buckets)


def ewise_mult_matrix(a, b, op_name: str = "times",
                      num_buckets: int = _DEFAULT_BUCKETS):
    """Edge-table INTERSECTION — graph conjunction (reference matrix.py:1980)."""
    return _ewise(a, b, op_name, how="mult", key=("src", "dst"), val="w",
                  num_buckets=num_buckets)


def ewise_union_matrix(a, b, op_name: str, left_default, right_default,
                       num_buckets: int = _DEFAULT_BUCKETS):
    """Edge-table union with fill defaults (reference matrix.py:2044)."""
    return _ewise(a, b, op_name, how="fill", key=("src", "dst"), val="w",
                  defaults=(left_default, right_default),
                  num_buckets=num_buckets)


# ------------------------------------------------------ composite aggs ----


def vector_agg(x, names: list[str], col: str = "val") -> dict:
    """Composite whole-vector aggregators (reference core/operator/agg.py:
    290-680): count/mean/argmin/argmax/first_index/last_index, population/
    sample variance + stddev, the L0/L1/L2/Linf norms, and the long tail
    — geometric_mean, harmonic_mean, logaddexp/logaddexp2 (max-shifted,
    numerically stable), peak_to_peak, sum_of_inverses, exists,
    bitwise_all/bitwise_any (integer inputs only).

    One distributed pass: every batch emits a constant-size partial row
    (count, sum, sum of squares, sum/max of |x|, min/max with their
    argmin/argmax indices, min/max index, sum of logs/inverses,
    max-shifted exp sums, AND/OR folds), the driver combines the tiny
    partials — the partial+final shape SURVEY.md §2.2 sketches for mean.
    Ties in argmin/argmax break to the smallest index (deterministic).
    """
    ds = _ds(x)
    sch = ds.schema()
    atype = dict(zip(sch.names, sch.types)).get(col)
    is_int = atype is not None and pa.types.is_integer(atype)

    def partial(t: pa.Table) -> pa.Table:
        raw = np.asarray(t[col].to_numpy(zero_copy_only=False))
        a = raw.astype(np.float64)
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        if len(a) == 0:
            return pa.table({"n": pa.array([], pa.int64())})
        # deterministic arg ties: smallest index among equal values
        imin = np.lexsort((v, a))[0]
        imax = np.lexsort((v, -a))[0]
        ifirst = int(np.argmin(v))  # stored order = ascending index
        ilast = int(np.argmax(v))
        mx = float(a.max())
        with np.errstate(divide="ignore", invalid="ignore"):
            sumlog = float(np.log(a).sum())
            suminv = float((1.0 / a).sum())
            sexp = float(np.exp(a - mx).sum())
            sexp2 = float(np.exp2(a - mx).sum())
        iview = raw.astype(np.int64) if is_int else np.zeros(1, np.int64)
        return pa.table({
            "n": pa.array([len(a)], pa.int64()),
            "sum": pa.array([float(a.sum())]),
            "sumsq": pa.array([float((a * a).sum())]),
            "sumabs": pa.array([float(np.abs(a).sum())]),
            "maxabs": pa.array([float(np.abs(a).max())]),
            "nnz": pa.array([int((a != 0).sum())], pa.int64()),
            "minval": pa.array([float(a[imin])]),
            "minarg": pa.array([int(v[imin])], pa.uint64()),
            "maxval": pa.array([float(a[imax])]),
            "maxarg": pa.array([int(v[imax])], pa.uint64()),
            "minidx": pa.array([int(v.min())], pa.uint64()),
            "maxidx": pa.array([int(v.max())], pa.uint64()),
            "firstval": pa.array([float(a[ifirst])]),
            "lastval": pa.array([float(a[ilast])]),
            "sumlog": pa.array([sumlog]),
            "suminv": pa.array([suminv]),
            "sexp": pa.array([sexp]),
            "sexp2": pa.array([sexp2]),
            "band": pa.array([int(np.bitwise_and.reduce(iview))], pa.int64()),
            "bor": pa.array([int(np.bitwise_or.reduce(iview))], pa.int64()),
        })

    rows = [r for r in ds.map_batches(partial, batch_format="pyarrow").take_all()
            if r.get("sum") is not None]
    out: dict[str, object] = {}
    if not rows:
        return {name: None for name in names}
    n = sum(r["n"] for r in rows)
    s = float(sum(r["sum"] for r in rows))
    sumsq = float(sum(r["sumsq"] for r in rows))
    sumabs = float(sum(r["sumabs"] for r in rows))
    maxabs = max(r["maxabs"] for r in rows)
    nnz = sum(r["nnz"] for r in rows)
    mean = s / n
    best_min = min(rows, key=lambda r: (r["minval"], r["minarg"]))
    best_max = min(rows, key=lambda r: (-r["maxval"], r["maxarg"]))
    for name in names:
        if name == "count":
            out[name] = int(n)
        elif name == "mean":
            out[name] = mean
        elif name == "argmin":
            out[name] = int(best_min["minarg"])
        elif name == "argmax":
            out[name] = int(best_max["maxarg"])
        elif name == "min":
            out[name] = float(best_min["minval"])
        elif name == "max":
            out[name] = float(best_max["maxval"])
        elif name == "first_index":
            out[name] = int(min(r["minidx"] for r in rows))
        elif name == "last_index":
            out[name] = int(max(r["maxidx"] for r in rows))
        elif name == "first":
            # stored-order positional first/last (reference agg.py:570-680
            # ss.first/ss.last): the VALUE at the smallest/largest stored
            # index — combine by picking the partial holding the global
            # first/last index
            out[name] = float(min(rows, key=lambda r: r["minidx"])["firstval"])
        elif name == "last":
            out[name] = float(max(rows, key=lambda r: r["maxidx"])["lastval"])
        elif name == "varp":
            out[name] = max(sumsq / n - mean * mean, 0.0)
        elif name == "vars":
            out[name] = (max(sumsq - n * mean * mean, 0.0) / (n - 1)) if n > 1 else 0.0
        elif name == "stdp":
            out[name] = float(np.sqrt(max(sumsq / n - mean * mean, 0.0)))
        elif name == "stds":
            out[name] = float(np.sqrt(max(sumsq - n * mean * mean, 0.0) / (n - 1))) if n > 1 else 0.0
        elif name == "L0norm":
            out[name] = int(nnz)
        elif name == "L1norm":
            out[name] = sumabs
        elif name == "L2norm":
            out[name] = float(np.sqrt(sumsq))
        elif name == "Linfnorm":
            out[name] = float(maxabs)
        elif name == "geometric_mean":
            out[name] = float(np.exp(sum(r["sumlog"] for r in rows) / n))
        elif name == "harmonic_mean":
            out[name] = float(n / sum(r["suminv"] for r in rows))
        elif name == "sum_of_inverses":
            out[name] = float(sum(r["suminv"] for r in rows))
        elif name == "peak_to_peak":
            out[name] = float(best_max["maxval"] - best_min["minval"])
        elif name == "exists":
            out[name] = 1
        elif name in ("logaddexp", "logaddexp2"):
            # max-shifted stable combine of the per-batch partials
            M = max(r["maxval"] for r in rows)
            if name == "logaddexp":
                tot = sum(r["sexp"] * float(np.exp(r["maxval"] - M)) for r in rows)
                out[name] = float(M + np.log(tot))
            else:
                tot = sum(r["sexp2"] * float(np.exp2(r["maxval"] - M)) for r in rows)
                out[name] = float(M + np.log2(tot))
        elif name in ("bitwise_all", "bitwise_any"):
            if not is_int:
                raise ValueError(f"{name}: column {col!r} is not integral")
            if name == "bitwise_all":
                out[name] = int(np.bitwise_and.reduce(
                    np.array([r["band"] for r in rows], np.int64)))
            else:
                out[name] = int(np.bitwise_or.reduce(
                    np.array([r["bor"] for r in rows], np.int64)))
        else:
            raise KeyError(name)
    return out


# --------------------------------------------------- kronecker / power ----


def kronecker(a, b, op_name: str = "times", *, b_nrows: int | None = None,
              b_ncols: int | None = None):
    """A.kron(B): C[i*rB + k, j*cB + l] = A[i,j] ⊗ B[k,l]
    (reference core/matrix.py:2253).

    B is the broadcast small side (``ray.put`` of its COO arrays once; a
    kronecker product where BOTH factors are huge is quadratic output and
    not a thing to compute): each batch of A emits the vectorized outer
    product against all of B. ``b_nrows/b_ncols`` default to B's max
    index + 1.
    """
    import ray

    op = BINARY[op_name]
    bt = b if isinstance(b, pa.Table) else to_table(_ds(b), sort_by=None)
    bs = np.asarray(bt["src"].to_numpy(zero_copy_only=False), np.uint64)
    bd = np.asarray(bt["dst"].to_numpy(zero_copy_only=False), np.uint64)
    bw = (np.asarray(bt["w"].to_numpy(zero_copy_only=False))
          if "w" in bt.column_names else np.ones(len(bs)))
    rB = np.uint64(b_nrows if b_nrows is not None
                   else (int(bs.max()) + 1 if len(bs) else 0))
    cB = np.uint64(b_ncols if b_ncols is not None
                   else (int(bd.max()) + 1 if len(bd) else 0))
    bref = ray.put((bs, bd, bw))
    out_dt = _op_result_dtype(op, np.result_type(
        _val_dtype_of(a, "w") if not isinstance(a, pa.Table) or "w" in a.column_names
        else np.float64, bw.dtype))

    def kron(t: pa.Table) -> pa.Table:
        s2, d2, w2 = ray.get(bref)
        s1 = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d1 = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        w1 = (np.asarray(t["w"].to_numpy(zero_copy_only=False))
              if "w" in t.column_names else np.ones(len(s1)))
        if len(s1) == 0 or len(s2) == 0:
            return _empty_edges(out_dt)
        with np.errstate(over="ignore"):
            src = (np.repeat(s1, len(s2)) * rB + np.tile(s2, len(s1)))
            dst = (np.repeat(d1, len(d2)) * cB + np.tile(d2, len(d1)))
        w = np.asarray(op(np.repeat(w1, len(w2)), np.tile(w2, len(w1))), out_dt)
        return pa.table({"src": src, "dst": dst, "w": w})

    return _ds(a).map_batches(kron, batch_format="pyarrow")


def power(edges, n: int, semiring: str = "plus_times",
          num_buckets: int = _DEFAULT_BUCKETS):
    """A.power(n) — n-th semiring matrix power by repeated squaring
    (reference core/matrix.py:2754). n >= 1."""
    if n < 1:
        raise ValueError("power requires n >= 1")
    base = _ds(edges).materialize()
    result = None
    sq = base
    k = n
    while k:
        if k & 1:
            result = sq if result is None else mxm(result, sq, semiring).materialize()
        k >>= 1
        if k:
            sq = mxm(sq, sq, semiring).materialize()
    return result


# --------------------------------------------- element-level convenience ----
# (reference core/matrix.py:283-313 / core/vector.py __getitem__ /
# __setitem__ / __delitem__ on single entries — the convenience layer a
# reference user reaches for first. Thin wrappers over the distributed
# select/merge primitives; the get is a driver round-trip by nature and
# meant for driver-sized probes, not hot loops.)


def vector_get(vec, i, default=None):
    """v[i] -> scalar (or ``default`` when the entry is absent)."""
    i = np.uint64(i)

    def pick(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        return t.filter(pa.array(v == i))

    rows = _ds(vec).map_batches(pick, batch_format="pyarrow").take_all()
    if not rows:
        return default
    if len(rows) > 1:
        raise ValueError(f"vector_get: duplicate entries at index {int(i)}")
    return rows[0]["val"]


def vector_set(vec, i, value):
    """v[i] = value — single-entry write (new entry wins; merge shape)."""
    dt = _val_dtype_of(vec)
    upd = pa.table({"v": np.array([i], np.uint64),
                    "val": np.array([value], dt)})
    return merge(vec, upd)


def vector_del(vec, i):
    """del v[i] — drop one entry (stateless filter, no shuffle)."""
    i = np.uint64(i)

    def drop(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"].to_numpy(zero_copy_only=False), np.uint64)
        return t.filter(pa.array(v != i))

    return _ds(vec).map_batches(drop, batch_format="pyarrow")


def matrix_get(edges, i, j, default=None):
    """A[i, j] -> scalar (or ``default`` when the entry is absent)."""
    i, j = np.uint64(i), np.uint64(j)

    def pick(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        return t.filter(pa.array((s == i) & (d == j)))

    rows = _ds(edges).map_batches(pick, batch_format="pyarrow").take_all()
    if not rows:
        return default
    if len(rows) > 1:
        raise ValueError(f"matrix_get: duplicate entries at ({int(i)}, {int(j)})")
    return rows[0]["w"]


def matrix_set(edges, i, j, value):
    """A[i, j] = value — single-entry write via merge_matrix."""
    upd = pa.table({"src": np.array([i], np.uint64),
                    "dst": np.array([j], np.uint64),
                    "w": np.array([value], np.float64)})
    return merge_matrix(edges, upd)


def matrix_del(edges, i, j):
    """del A[i, j] — drop one entry (stateless filter, no shuffle)."""
    i, j = np.uint64(i), np.uint64(j)

    def drop(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        return t.filter(pa.array(~((s == i) & (d == j))))

    return _ds(edges).map_batches(drop, batch_format="pyarrow")


def mxm_update(c_edges, a_edges, b_edges, semiring: str = "plus_times",
               *, mask=None, complement: bool = False,
               value_mask: bool = False, accum: str | None = None,
               replace: bool = False, mode: str = "auto",
               stats: dict | None = None,
               num_buckets: int = _DEFAULT_BUCKETS):
    """The reference's central matrix update idiom
    ``C(mask, accum, replace) << A.mxm(B)`` (core/base.py:192-260 applied
    to a MatrixExpression) as one composition: the masked product runs in
    the mode-selected mxm (the mask prunes INSIDE the product — dot mode
    never materializes unmasked C), then the GrB masked-write truth table
    lands it into C via merge_matrix. The same mask governs both steps,
    which is exactly the reference semantics: T = A@B computed under the
    mask, then C(M, accum, replace) << T."""
    prod = mxm(a_edges, b_edges, semiring, num_buckets,
               mask=mask, complement=complement, value_mask=value_mask,
               mode=mode, stats=stats)
    return merge_matrix(c_edges, prod, mask=mask, complement=complement,
                        value_mask=value_mask, accum=accum, replace=replace,
                        num_buckets=num_buckets)


def contract(edges, mapping, *, agg: str = "plus", keep_count: bool = True):
    """Vertex contraction (quotient graph): relabel every endpoint through
    a vectorized ``mapping(ids) -> ids`` and dup-reduce the resulting
    multi-edges with ``agg`` — the host-graph collapse of a Common-Crawl
    url graph (urls -> hosts) and the coarsening step of multilevel
    partitioners. Reference analog: ``Matrix.from_coo(map(r), map(c), v,
    dup_op=agg)`` over ``A.to_coo()`` (matrix.py:643-698); re-expressed
    here as one map_batches relabel + combiner-first grouped reduce.

    Scale shape: contraction shrinks the keyspace (hosts << urls), so each
    batch is pre-combined locally (lexsort + reduceat on a fused
    ``src*2^32+dst`` key when ids fit 32 bits, else a structured sort) —
    the (src, dst)-keyed co-group then moves one row per distinct
    contracted edge per batch, never the raw edge stream, and finishes
    with the same reduceat per bucket (never Ray's native
    ``groupby().aggregate``, which returns full-range uint64 ids as
    pickled objects — see :func:`salted_aggregate`). Self-loops created
    by the contraction are kept (standard quotient-graph semantics; drop
    with :func:`select` ``"offdiag"`` after).
    """
    red = {"plus": np.add, "min": np.minimum, "max": np.maximum}[agg]

    def combine(s, d, w, m):
        order = np.lexsort((d, s))
        s, d, w, m = s[order], d[order], w[order], m[order]
        new = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])]
        starts = np.flatnonzero(new)
        return s[starts], d[starts], red.reduceat(w, starts), np.add.reduceat(m, starts)

    def relabel_combine(t: pa.Table) -> dict:
        s = mapping(_col(t, "src", np.uint64)).astype(np.uint64)
        d = mapping(_col(t, "dst", np.uint64)).astype(np.uint64)
        w = (_col(t, "w", np.float64) if "w" in t.column_names
             else np.ones(len(s)))
        if len(s) and max(s.max(), d.max()) < (1 << 32):
            key = (s << np.uint64(32)) | d
            order = np.argsort(key, kind="stable")
            k, sw = key[order], w[order]
            starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
            ks = k[starts]
            out_s, out_d = ks >> np.uint64(32), ks & np.uint64(0xFFFFFFFF)
            out_w = red.reduceat(sw, starts)
            cnt = np.diff(np.r_[starts, len(k)]).astype(np.int64)
        else:  # full-range ids: structured lexsort, same combine
            out_s, out_d, out_w, cnt = combine(s, d, w, np.ones(len(s), np.int64))
        return {"src": out_s, "dst": out_d, "w": out_w, "m": cnt}

    def final(g: dict) -> pa.Table:
        s, d, w, m = combine(g["src"], g["dst"], g["w"], g["m"])
        out = {"src": s, "dst": d, "w": w}
        if keep_count:
            out["m"] = m
        return pa.table(out)

    return _cogroup([(edges, relabel_combine)], final, key=("src", "dst"))
