import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from raygraph.datapipe import dedup, media, similarity, text, windows

SF = "/root/testdata/sf0.001"


def _docs():
    return rd.read_parquet(f"{SF}/documents.parquet")


# ------------------------------------------------------------------- text ----


def test_token_counter_and_quality():
    out = text.analyze_documents(_docs()).to_pandas()
    assert (out["n_tokens"] >= out["n_ws_tokens"]).all()
    assert out["quality"].between(0, 1).all()
    assert set(out["pred_lang"]) <= {"en", "de", "fr", "und"}
    # fingerprints: identical text -> identical fingerprint, deterministic
    fp1 = text.rolling_fingerprint(["hello world", "hello world", "x"])
    assert fp1[0] == fp1[1] != fp1[2]


_ONE_CPU_ANALYZERS = """
import sys
root, docs_path = sys.argv[1], sys.argv[2]
sys.path.insert(0, root)
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

pq.write_table(pa.table({"doc_id": list(range(64)),
                         "text": [f"the cat and the dog {i}" for i in range(64)]}),
               docs_path)
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", runtime_env={"env_vars": {"PYTHONPATH": root}})
rd.DataContext.get_current().enable_progress_bars = False
from raygraph.datapipe import text

docs = rd.read_parquet(docs_path)
assert len(text.analyze_documents(docs).to_pandas()) == 64
assert len(text.doc_features(docs).to_pandas()) == 64
ray.shutdown()
"""


def test_text_analyzers_finish_on_one_cpu(tmp_path):
    # an actor pool's first actor would hold the only CPU while the read
    # task feeding it waits for one; plain tasks share it
    import os
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_ANALYZERS, root,
         str(tmp_path / "docs.parquet")],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        _, err = p.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)  # the child's Ray processes too
        p.communicate()
        pytest.fail("text analyzers made no progress on 1 CPU in 120 s")
    assert p.returncode == 0, err[-2000:]


# ------------------------------------------------------------------ dedup ----


def test_exact_dedup_with_planted_duplicates():
    base = _docs().to_pandas()
    dup = base.head(5).copy()
    dup["doc_id"] = dup["doc_id"] + 100_000  # duplicates with new ids
    docs = rd.from_pandas(pd.concat([base, dup], ignore_index=True))
    out = dedup.exact_dedup(docs).to_pandas()
    assert out["n_dups"].sum() == len(base) + 5
    dups = out[out["n_dups"] >= 2]
    assert len(dups) >= 5
    # keeper is always the min doc_id (the original)
    assert (dups["keep_id"] < 100_000).all()


def test_minhash_lsh_finds_planted_near_dups():
    base = _docs().to_pandas().head(60)
    near = base.head(4).copy()
    near["doc_id"] = near["doc_id"] + 100_000
    near["text"] = near["text"] + " tiny suffix"
    docs = rd.from_pandas(pd.concat([base, near], ignore_index=True))
    pairs = dedup.minhash_lsh_pairs(docs, jaccard_threshold=0.5).to_pandas()
    found = {(int(min(a, b)), int(max(a, b))) for a, b in zip(pairs["a"], pairs["b"])}
    for i in range(4):
        want = (int(base["doc_id"][i]), int(base["doc_id"][i]) + 100_000)
        assert want in found
    # clusters via connected components keep the min id
    ids = rd.from_pandas(pd.concat([base, near])[["doc_id"]])
    clusters = dedup.dedup_clusters(rd.from_pandas(pairs), ids, num_parts=4)
    cl = dict(zip(clusters["v"].to_pylist(), clusters["keep_id"].to_pylist()))
    for i in range(4):
        assert cl[int(base["doc_id"][i]) + 100_000] == int(base["doc_id"][i])


def test_simhash_near_dups():
    base = _docs().to_pandas().head(40)
    near = base.head(3).copy()
    near["doc_id"] = near["doc_id"] + 100_000
    docs = rd.from_pandas(pd.concat([base, near], ignore_index=True))
    pairs = dedup.simhash_pairs(docs, max_hamming=3).to_pandas()
    found = {(int(min(a, b)), int(max(a, b))) for a, b in zip(pairs["a"], pairs["b"])}
    for i in range(3):
        assert (int(base["doc_id"][i]), int(base["doc_id"][i]) + 100_000) in found


def test_ngram_jaccard():
    j = dedup.ngram_jaccard(["a b c d e", "a b c d e"], ["a b c d e", "x y z w q"])
    assert j[0] == 1.0 and j[1] == 0.0


# -------------------------------------------------------------- similarity ----


def test_knn_cosine_exact_matches_numpy():
    emb = rd.read_parquet(f"{SF}/embeddings.parquet")
    df = emb.to_pandas()
    M = np.stack([np.asarray(e, np.float64) for e in df["embedding"]])
    queries = M[:3]
    got = similarity.knn_cosine(emb, queries, k=5).to_pandas()
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    Qn = queries / np.maximum(np.linalg.norm(queries, axis=1, keepdims=True), 1e-12)
    sims = Mn @ Qn.T
    for qi in range(3):
        s = sims[:, qi]
        order = np.lexsort((df["vec_id"].to_numpy(), -s))[:5]
        want = df["vec_id"].to_numpy()[order].tolist()
        mine = got[got["query_id"] == qi].sort_values("rank")["vec_id"].tolist()
        assert mine == want


def test_knn_lsh_self_recall():
    emb = rd.read_parquet(f"{SF}/embeddings.parquet")
    df = emb.to_pandas()
    M = np.stack([np.asarray(e, np.float64) for e in df["embedding"]])
    got = similarity.knn_cosine_lsh(emb, M[:5], k=3).to_pandas()
    # a vector's own bucket always matches its own query -> self in top-k
    for qi in range(5):
        mine = got[got["query_id"] == qi]
        assert int(df["vec_id"][qi]) in set(mine["vec_id"])


def test_knn_ivf_self_recall_and_full_probe_exactness():
    emb = rd.read_parquet(f"{SF}/embeddings.parquet")
    df = emb.to_pandas()
    M = np.stack([np.asarray(e, np.float64) for e in df["embedding"]])
    # self-recall: a query vector's own inverted list is always probed first
    got = similarity.knn_cosine_ivf(emb, M[:5], k=3, nlist=8, nprobe=2).to_pandas()
    for qi in range(5):
        assert int(df["vec_id"][qi]) in set(got[got["query_id"] == qi]["vec_id"])
    # probing ALL lists degenerates to exact knn (same tie rule)
    ivf_all = similarity.knn_cosine_ivf(emb, M[:3], k=5, nlist=4, nprobe=4).to_pandas()
    exact = similarity.knn_cosine(emb, M[:3], k=5).to_pandas()
    for qi in range(3):
        a = ivf_all[ivf_all["query_id"] == qi].sort_values("rank")["vec_id"].tolist()
        b = exact[exact["query_id"] == qi].sort_values("rank")["vec_id"].tolist()
        assert a == b


def test_embedding_near_dups_finds_clones():
    df = rd.read_parquet(f"{SF}/embeddings.parquet").to_pandas().head(50)
    clone = df.head(2).copy()
    clone["vec_id"] = clone["vec_id"] + 100_000
    emb = rd.from_pandas(pd.concat([df, clone], ignore_index=True))
    pairs = similarity.embedding_near_dups(emb, threshold=0.999).to_pandas()
    found = {(int(min(a, b)), int(max(a, b))) for a, b in zip(pairs["a"], pairs["b"])}
    for i in range(2):
        assert (int(df["vec_id"][i]), int(df["vec_id"][i]) + 100_000) in found


# ---------------------------------------------------------------- windows ----


def test_tumbling_window_matches_pandas():
    ev = rd.read_parquet(f"{SF}/events.parquet")
    got = windows.tumbling_window(ev, key="event_type", window_s=3600).to_pandas()
    df = ev.to_pandas()
    df["window"] = (df["ts"].astype("datetime64[s]").astype("int64") // 3600) * 3600
    want = df.groupby(["event_type", "window"]).agg(
        sum_value=("value", "sum"), n=("value", "size")
    ).reset_index()
    m = got.merge(want, on=["event_type", "window"], suffixes=("", "_w"))
    assert len(m) == len(want) == len(got)
    np.testing.assert_allclose(m["sum_value"], m["sum_value_w"])
    assert (m["n"] == m["n_w"]).all()


def test_asof_join_matches_pandas():
    ev = rd.read_parquet(f"{SF}/events.parquet")
    df = ev.to_pandas()
    left = df[["user_id", "ts", "value"]].copy()
    right = df[["user_id", "ts", "value"]].copy()
    right["ts"] = (right["ts"] - pd.Timedelta(seconds=30)).astype("datetime64[us]")
    right = right.rename(columns={"value": "snapshot"})
    got = windows.asof_join(
        rd.from_pandas(left), rd.from_pandas(right.rename(columns={"snapshot": "value"})),
        key="user_id", num_buckets=8,
    ).to_pandas()
    want = pd.merge_asof(
        left.sort_values("ts"), right.sort_values("ts"), on="ts", by="user_id"
    )
    gm = got.sort_values(["user_id", "ts"]).reset_index(drop=True)
    wm = want.sort_values(["user_id", "ts"]).reset_index(drop=True)
    assert len(gm) == len(wm)
    np.testing.assert_allclose(
        gm["value_r"].fillna(-1).to_numpy(), wm["snapshot"].fillna(-1).to_numpy()
    )


# ------------------------------------------------------------------ media ----


def test_media_plumbing():
    tbl = media.synth_media_table(64)
    ds = rd.from_arrow(tbl)
    feats = media.decode_images(ds, concurrency=2).to_pandas()
    assert len(feats) == 64
    assert all(len(f) == 16 for f in feats["feature"])
    # deterministic: same payload -> same feature
    again = media.decode_images(rd.from_arrow(tbl), concurrency=1).to_pandas()
    f1 = np.stack([np.asarray(x) for x in feats.sort_values("media_id")["feature"]])
    f2 = np.stack([np.asarray(x) for x in again.sort_values("media_id")["feature"]])
    np.testing.assert_array_equal(f1, f2)
    frames = media.sample_frames(ds.limit(8)).to_pandas()
    assert (frames.groupby("media_id").size() >= 1).all()


def test_media_real_codec_gate_raises():
    """fake=False now decodes for REAL (pure-numpy PPM parser); bytes in
    an unsupported format fail loudly rather than via a stub gate."""
    import pytest

    dec = media.ImageDecoder(fake=False)
    with pytest.raises(ValueError, match="PGM/PPM"):
        dec.decode(b"xx", 4, 4)


def test_media_resize_and_audio_plumbing():
    import pytest

    tbl = media.synth_media_table(48, seed=9)
    ds = rd.from_arrow(tbl)
    resized = media.resize_images(ds, max_side=32, concurrency=2).to_pandas()
    assert len(resized) == 48
    assert (resized["meta_width"] <= 32).all() and (resized["meta_height"] <= 32).all()
    # aspect ratio preserved to rounding
    orig = tbl.to_pandas()
    big = orig["meta_width"] > orig["meta_height"]
    assert (resized.loc[big.values, "meta_width"] >= 31).all()  # int truncation
    au = media.audio_features(ds, feature_dim=12, concurrency=2).to_pandas()
    assert len(au) == 48 and all(len(f) == 12 for f in au["feature"])
    # deterministic across runs/partitionings
    au2 = media.audio_features(rd.from_arrow(tbl).repartition(5)).to_pandas()
    m1 = dict(zip(au["media_id"], au["feature"]))
    m2 = dict(zip(au2["media_id"], au2["feature"]))
    assert all(list(m1[k]) == list(m2[k]) for k in m1)
    # real resizer on non-PPM synth payloads fails loudly, not silently
    with pytest.raises(ValueError, match="PGM/PPM"):
        media.ImageResizer(fake=False)(tbl)


# --------------------------------------------------------------- sampling ----

from raygraph.datapipe import sampling


def test_sample_per_group_deterministic_and_partition_invariant():
    import hashlib

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
    out = sampling.sample_per_group(docs, group_col="lang", n=3).to_pandas()
    # oracle: rank by (md5, id) within each lang over the full table
    df = docs.to_pandas()
    df["h"] = [hashlib.md5(str(int(i)).encode()).hexdigest() for i in df["doc_id"]]
    want = (df.sort_values(["h", "doc_id"]).groupby("lang").head(3))
    w = set(zip(want["lang"], want["doc_id"]))
    g = set(zip(out["lang"], out["doc_id"]))
    assert g == w
    # repartitioning must not change the sample
    out2 = sampling.sample_per_group(
        docs.repartition(7), group_col="lang", n=3).to_pandas()
    assert set(zip(out2["lang"], out2["doc_id"])) == w


def test_column_quantiles_exact():
    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["n_chars"])
    t = sampling.column_quantiles(docs, col="n_chars", pcts=(25, 50, 75, 100))
    got = dict(zip(t["pct"].to_pylist(), t["v"].to_pylist()))
    v = np.sort(rd.read_parquet(f"{SF}/documents.parquet").to_pandas()["n_chars"].to_numpy())
    n = len(v)
    for p in (25, 50, 75, 100):
        thresh = (p * n + 99) // 100
        assert got[p] == int(v[thresh - 1])  # smallest value with cum >= thresh


def test_ivf_refine_matches_duckdb_integer_lloyd():
    # the integer Lloyd step must be bit-reproducible in SQL: same
    # assignment (int dot DESC, cid ASC) and same floor-divided means
    import duckdb

    from raygraph.datapipe.similarity import _ivf_centroids, _ivf_refine, _quantize

    emb = rd.read_parquet(f"{SF}/embeddings.parquet")
    cids, C = _ivf_centroids(emb, 4, "vec_id", "embedding")
    order = np.argsort(cids)
    cids, Cq = cids[order], _quantize(C[order])
    got = _ivf_refine(emb, Cq, id_col="vec_id", emb_col="embedding")
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{SF}/embeddings.parquet')"
    )
    df = con.execute("""
    WITH ev AS (SELECT vec_id, CAST(floor(x*1048576.0) AS BIGINT) AS xq, ord-1 AS d
                FROM (SELECT vec_id, embedding AS l FROM embeddings),
                LATERAL (SELECT unnest(l) AS x, generate_subscripts(l,1) AS ord) u),
    cent AS (SELECT vec_id AS cid FROM embeddings
             ORDER BY md5(CAST(vec_id AS VARCHAR)), vec_id LIMIT 4),
    cq0 AS (SELECT c.cid, ev.d, ev.xq FROM cent c JOIN ev ON ev.vec_id = c.cid),
    dots AS (SELECT ev.vec_id, cq0.cid, sum(ev.xq * cq0.xq) AS dot
             FROM ev JOIN cq0 ON cq0.d = ev.d GROUP BY 1, 2),
    assign AS (SELECT vec_id, cid FROM (
        SELECT vec_id, cid, row_number() OVER (PARTITION BY vec_id
               ORDER BY dot DESC, cid ASC) AS rn FROM dots) WHERE rn = 1),
    sums AS (SELECT a.cid, ev.d, sum(ev.xq) AS s, count(*) AS cnt
             FROM assign a JOIN ev ON ev.vec_id = a.vec_id GROUP BY 1, 2)
    SELECT cid, d, (s - ((s % cnt) + cnt) % cnt) // cnt AS xq
    FROM sums ORDER BY cid, d
    """).df()
    want = Cq.copy()
    touched = np.zeros(len(cids), bool)
    cpos = {int(c): i for i, c in enumerate(cids)}
    for cid, d, xq in zip(df["cid"], df["d"], df["xq"]):
        want[cpos[int(cid)], int(d)] = int(xq)
        touched[cpos[int(cid)]] = True
    np.testing.assert_array_equal(got, want)
    assert touched.any()


def test_repeated_ngrams_finds_planted_span():
    import numpy as np

    from raygraph.util import mix64

    base = _docs().to_pandas().head(30)
    span = "alpha bravo charlie delta echo foxtrot golf hotel"  # 8 tokens
    d1 = base.iloc[0].copy()
    d2 = base.iloc[1].copy()
    d1["text"] = d1["text"] + " " + span
    d2["text"] = span + " " + d2["text"]
    base.iloc[0], base.iloc[1] = d1, d2
    docs = rd.from_pandas(base)
    out = dedup.repeated_ngrams(docs, n=8, min_docs=2).to_pandas()
    # independent recomputation of the planted span's gram key (the
    # mix64 chain over per-token Horner code-point hashes)
    hs = dedup._token_hashes(span.split())
    g = mix64(hs[:1])
    for j in range(1, 8):
        g = mix64(g ^ hs[j:j + 1])
    want = f"{int(g[0]):016x}"
    row = out[out["gram"] == want]
    assert len(row) == 1 and int(row["n_docs"].iloc[0]) >= 2
    # partition-invariant
    out2 = dedup.repeated_ngrams(docs.repartition(5), n=8, min_docs=2).to_pandas()
    assert set(out["gram"]) == set(out2["gram"])


def test_ngram_scrub_coverage_and_spans():
    import pandas as pd

    span = "alpha bravo charlie delta echo foxtrot golf hotel"  # 8 tokens
    filler = " ".join(f"u{i}" for i in range(10))
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            span + " " + filler + " " + span,   # two disjoint spans
            "lead " + span + " tail",           # one span mid-doc
            " ".join(f"z{i}" for i in range(14)),  # clean doc, disjoint vocab
            "",                                  # empty -> dropped
        ],
    }))
    out = dedup.ngram_scrub(docs, n=8, min_docs=2).to_pandas()
    out = out.set_index("doc_id").sort_index()
    assert list(out.index) == [1, 2, 3]
    # doc 1: 8 + 10 + 8 tokens, both planted spans covered, 2 spans
    assert out.loc[1, "n_tok"] == 26
    assert out.loc[1, "n_covered"] == 16
    assert out.loc[1, "n_spans"] == 2
    assert out.loc[1, "keep_tok"] == 10
    # doc 2: the span is covered, lead/tail survive
    assert out.loc[2, "n_tok"] == 10
    assert out.loc[2, "n_covered"] == 8
    assert out.loc[2, "n_spans"] == 1
    # doc 3: untouched
    assert out.loc[3, "n_covered"] == 0 and out.loc[3, "n_spans"] == 0
    assert out.loc[3, "keep_tok"] == out.loc[3, "n_tok"]
    # partition-invariant
    out2 = dedup.ngram_scrub(docs.repartition(4), n=8, min_docs=2).to_pandas()
    assert out2.sort_values("doc_id").reset_index(drop=True).equals(
        out.reset_index().sort_values("doc_id").reset_index(drop=True))


def test_media_real_codecs_round_trip():
    """Pure-numpy public-format codecs (VERDICT r3 next #5): PPM/PGM and
    WAV PCM16 must round-trip bit-exactly; RAWV frame container too."""
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (21, 17, 3), dtype=np.uint8)
    assert (media.decode_ppm(media.encode_ppm(img)) == img).all()
    gray = rng.integers(0, 256, (7, 9), dtype=np.uint8)
    assert (media.decode_ppm(media.encode_ppm(gray)) == gray).all()
    # netpbm comment + whitespace tolerance
    p = b"P5\n# cmt\n 3 2\n255\n" + bytes(range(6))
    assert media.decode_ppm(p).shape == (2, 3)
    s = (np.arange(777) * 13 % 2048 - 1024).astype(np.int16)
    rate, s2 = media.decode_wav(media.encode_wav(s, 16000))
    assert rate == 16000 and (s2 == s).all()
    frames = [img, img[::-1].copy(), img[:, ::-1].copy()]
    back = media.decode_rawv(media.encode_rawv(frames))
    assert len(back) == 3 and all((a == b).all() for a, b in zip(frames, back))


def test_media_real_decode_stages():
    """fake=False now decodes for real: image features are the actual
    per-channel stats, resize subsamples real pixels, audio features are
    real per-frame RMS, frame sampling walks the real container."""
    import ray.data as rd

    # image: constant-value image has mean == value, std == 0
    img = np.full((10, 8, 3), 55, np.uint8)
    t = pa.table({
        "media_id": pa.array([0], pa.int64()),
        "kind": pa.array(["image"]),
        "payload": pa.array([media.encode_ppm(img)], pa.binary()),
        "meta_width": pa.array([8], pa.int32()),
        "meta_height": pa.array([10], pa.int32()),
        "meta_duration_ms": pa.array([0], pa.int32()),
    }, schema=media.MEDIA_SCHEMA)
    dec = media.ImageDecoder(feature_dim=8, fake=False)(t)
    f = np.asarray(dec["feature"][0].as_py())
    assert np.allclose(f[:3], 55.0) and np.allclose(f[3:6], 0.0)

    # resize: real subsample halves the payload dims
    rz = media.ImageResizer(max_side=5, fake=False)(t)
    px = media.decode_ppm(rz["payload"][0].as_py())
    assert px.shape == (5, 4, 3)
    assert (px == 55).all()

    # audio: constant PCM -> every RMS frame equals |value|
    s = np.full(400, -300, np.int16)
    ta = pa.table({
        "media_id": pa.array([1], pa.int64()),
        "kind": pa.array(["audio"]),
        "payload": pa.array([media.encode_wav(s, 8000)], pa.binary()),
        "meta_width": pa.array([0], pa.int32()),
        "meta_height": pa.array([0], pa.int32()),
        "meta_duration_ms": pa.array([50], pa.int32()),
    }, schema=media.MEDIA_SCHEMA)
    af = media.AudioFeaturizer(feature_dim=4, fake=False)(ta)
    assert np.allclose(np.asarray(af["feature"][0].as_py()), 300.0)

    # video: RAWV container frame sampling hits distinct real frames
    frames = [np.full((4, 4, 3), v, np.uint8) for v in (10, 200)]
    tv = pa.table({
        "media_id": pa.array([2], pa.int64()),
        "kind": pa.array(["video"]),
        "payload": pa.array([media.encode_rawv(frames)], pa.binary()),
        "meta_width": pa.array([4], pa.int32()),
        "meta_height": pa.array([4], pa.int32()),
        "meta_duration_ms": pa.array([2000], pa.int32()),
    }, schema=media.MEDIA_SCHEMA)
    fs = media.FrameSampler(every_ms=1000, feature_dim=4, fake=False)(tv)
    means = [np.asarray(x)[0] for x in fs["feature"].to_pylist()]
    assert means == [10.0, 200.0]

    # end-to-end actor-pool stage over the deterministic synth table
    ds = rd.from_arrow(media.synth_real_media_table(12))
    out = media.media_features(ds, concurrency=(1, 2)).to_pandas()
    assert len(out) == 12
    img_rows = out[out["kind"] == "image"]
    assert (img_rows["n_units"] == img_rows["width"] * img_rows["height"]).all()


def test_range_join_agg_vs_brute_force():
    """Interval join: per-left count/sum of same-key right rows within
    [ts-before, ts+after]; replication ×3 never double-counts (every
    (l,r) pair is evaluated only in the left's time bucket)."""
    import pandas as pd
    import pyarrow as pa

    from raygraph.datapipe.windows import range_join_agg

    rng = np.random.default_rng(17)
    n = 600
    base = np.datetime64("2024-01-01", "us")
    ts = base + rng.integers(0, 3600_000_000, size=n).astype("timedelta64[us]")
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 12, size=n).astype(np.int64),
        "ts": ts, "value": np.round(rng.random(n), 6)})
    t = pa.Table.from_pandas(df, preserve_index=False)
    out = range_join_agg(rd.from_arrow(t), rd.from_arrow(t), key="user_id",
                         id_col="event_id", before=120.0, after=60.0,
                         exclude_self=True, num_buckets=7)
    got = {}
    for b in out.iter_batches(batch_size=None, batch_format="pyarrow"):
        for i, nn, sv in zip(b["ident"].to_pylist(), b["n_near"].to_pylist(),
                             b["sum_near"].to_pylist()):
            assert i not in got  # each left emitted at most once
            got[i] = (nn, round(sv, 6))
    tsus = df["ts"].astype("int64").to_numpy()
    want = {}
    for i in range(n):
        m = ((df["user_id"].to_numpy() == df["user_id"][i])
             & (tsus >= tsus[i] - 120_000_000)
             & (tsus <= tsus[i] + 60_000_000)
             & (df["event_id"].to_numpy() != i))
        if m.any():
            want[i] = (int(m.sum()), round(float(df["value"][m].sum()), 6))
    assert got == want


def test_vocab_topk_matches_counter():
    import collections
    import re

    texts = ["the cat sat on the mat", "The dog! the CAT?", "",
             "mat mat mat under_score 42 42", "zz top zz top zz"]
    want = collections.Counter()
    for s in texts:
        want.update(t for t in re.split(r"\W+", s.lower()) if t)
    # (count desc, token asc) total order, cut at k
    order = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:4]

    ds = rd.from_arrow(pa.table({"text": texts}))
    out = text.vocab_topk(ds, k=4).take_all()
    assert [(r["token"], r["cnt"]) for r in out] == order


def test_tfidf_topk_matches_brute_force():
    import collections
    import math
    import re

    texts = {1: "apple banana apple cherry", 2: "banana banana date",
             3: "apple date date date egg egg", 4: ""}
    N = len(texts)
    tf = {d: collections.Counter(t for t in re.split(r"\W+", s.lower()) if t)
          for d, s in texts.items()}
    df = collections.Counter(t for c in tf.values() for t in c)
    want = []
    for d in sorted(tf):
        ranked = sorted(tf[d].items(), key=lambda kv: (-kv[1], df[kv[0]], kv[0]))[:2]
        for t, f in ranked:
            want.append((d, t, round(f * math.log(N / df[t]), 6)))

    ds = rd.from_arrow(pa.table({
        "doc_id": list(texts), "text": list(texts.values())}))
    out = text.tfidf_topk(ds, k=2).take_all()
    got = sorted((r["doc_id"], r["token"], r["tfidf"]) for r in out)
    assert got == sorted(want)


def test_pack_sequences_matches_cumsum():
    texts = ["a b c", "", "d e", "f g h i j", "k", "l m n"]
    ns = [3, 0, 2, 5, 1, 3]
    starts = np.cumsum([0] + ns[:-1])
    B = 4
    ds = rd.from_arrow(pa.table({"doc_id": list(range(10, 16)),
                                 "text": texts}))
    out = sorted(text.pack_sequences(ds, budget=B).take_all(),
                 key=lambda r: r["doc_id"])
    assert [r["n_tokens"] for r in out] == ns
    assert [r["seq_id"] for r in out] == [int(s) // B for s in starts]
    assert [r["seq_offset"] for r in out] == [int(s) % B for s in starts]


def test_group_centroids_matches_numpy():
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(40, 6)).astype(np.float32)
    labels = rng.integers(0, 3, 40)
    ds = rd.from_arrow(pa.table({
        "label": labels.astype(np.int64),
        "embedding": pa.array(list(vecs.astype(np.float64)),
                              pa.list_(pa.float32()))}))
    out = similarity.group_centroids(ds).take_all()
    for r in out:
        want = vecs[labels == r["label"]].astype(np.float64).mean(axis=0)
        assert abs(r["centroid"] - want[r["dim"]]) < 1e-9


def test_skipgram_pairs_matches_counter():
    import collections

    texts = ["a b c a b", "  c  a ", "", None, "x", "a a a a"]
    want = collections.Counter()
    for s in texts:
        toks = (s or "").split()
        for d in (1, 2, 3):
            want.update(zip(toks[:-d] if d else toks, toks[d:]))
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(texts))),
                                 "text": texts}))
    out = text.skipgram_pairs(ds, window=3).take_all()
    got = {(r["tok_a"], r["tok_b"]): r["n"] for r in out}
    assert got == dict(want)
    # sorted output contract
    keys = [(r["tok_a"], r["tok_b"]) for r in out]
    assert keys == sorted(keys)


def test_skipgram_min_count_filters():
    texts = ["p q p q p q", "p q r"]
    ds = rd.from_arrow(pa.table({"doc_id": [0, 1], "text": texts}))
    out = text.skipgram_pairs(ds, window=1, min_count=3).take_all()
    assert [(r["tok_a"], r["tok_b"], r["n"]) for r in out] == [("p", "q", 4)]


def test_redact_sequential_counts_and_text():
    texts = ["mail me at bob@example.com or see https://x.io/a?b=1 now",
             "nothing here", None,
             "two mails: a@b.co c.d@e-f.org and wordiness galore"]
    ds = rd.from_arrow(pa.table({"doc_id": [0, 1, 2, 3], "text": texts}))
    out = {r["doc_id"]: r for r in text.redact(ds).take_all()}
    assert out[0]["n_email"] == 1 and out[0]["n_url"] == 1
    assert out[0]["text"] == "mail me at <EMAIL> or see <URL> now"
    assert out[1]["n_email"] == 0 and out[1]["text"] == "nothing here"
    assert out[2]["text"] == ""
    assert out[3]["n_email"] == 2
    assert "<EMAIL>" in out[3]["text"] and "a@b.co" not in out[3]["text"]


def test_redact_patterns_apply_sequentially():
    # pattern k counts/matches the text AFTER patterns < k replaced —
    # placeholders introduced earlier ARE visible to later patterns
    ds = rd.from_arrow(pa.table({"doc_id": [0], "text": ["zap zap zip"]}))
    out = text.redact(ds, [("zap", r"zap", "zip"),
                           ("zip", r"zip", "X")]).take_all()[0]
    assert out["n_zap"] == 2 and out["n_zip"] == 3
    assert out["text"] == "X X X"


def test_hll_registers_and_estimate_accuracy():
    from raygraph.datapipe.sampling import hll_estimate, hll_registers
    from raygraph.util import mix64

    n = 20_000
    vals = np.arange(n, dtype=np.int64) * 7 + 3
    ds = rd.from_arrow(pa.table({"user_id": vals}))
    regs = pa.concat_tables(
        b for b in hll_registers(ds, col="user_id", p=10).iter_batches(
            batch_size=None, batch_format="pyarrow"))

    # brute-force registers
    h = mix64(vals.astype(np.uint64))
    reg = (h >> np.uint64(54)).astype(np.int64)
    w = h & np.uint64((1 << 54) - 1)
    want = {}
    for r, x in zip(reg, w):
        bl = int(x).bit_length()
        rank = 54 - bl + 1
        want[int(r)] = max(want.get(int(r), 0), rank)
    got = dict(zip(regs["register"].to_pylist(), regs["maxrank"].to_pylist()))
    assert got == want

    est = hll_estimate(regs, p=10)
    assert abs(est - n) / n < 0.05  # ~1.04/sqrt(1024) expected error


def test_hll_registers_merge_invariance():
    from raygraph.datapipe.sampling import hll_registers

    vals = np.arange(5000, dtype=np.int64)
    one = rd.from_arrow(pa.table({"user_id": vals}))
    # same values split across many small blocks must merge identically
    many = rd.from_arrow(pa.table({"user_id": vals})).repartition(17)
    t1 = [(r["register"], r["maxrank"])
          for r in hll_registers(one, col="user_id").take_all()]
    t2 = [(r["register"], r["maxrank"])
          for r in hll_registers(many, col="user_id").take_all()]
    assert t1 == t2


def test_cms_counters_and_estimates():
    import collections

    from raygraph.datapipe.sampling import cms_counters, cms_estimate

    texts = ["spark merge join " * 20, "merge join", "window " * 7, None, ""]
    true = collections.Counter(w for s in texts for w in (s or "").split())
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(texts))),
                                 "text": texts}))
    cells = pa.concat_tables(
        b for b in cms_counters(ds).iter_batches(batch_size=None,
                                                 batch_format="pyarrow"))
    # total mass per row equals the token count
    import numpy as np2
    rows = np2.asarray(cells["row"].to_numpy(zero_copy_only=False))
    cnts = np2.asarray(cells["count"].to_numpy(zero_copy_only=False))
    n_tok = sum(true.values())
    for r in range(4):
        assert cnts[rows == r].sum() == n_tok
    # CMS never underestimates; with 5 distinct tokens in 4x1024 it is exact
    est = cms_estimate(cells, list(true))
    assert est == dict(true)


def test_feature_hash_counts_and_signs():
    import collections

    from raygraph.datapipe.dedup import _token_hashes
    from raygraph.datapipe.text import feature_hash, _FH_SIGN
    from raygraph.util import mix64

    texts = ["a b a c", "", None, "b b b"]
    ds = rd.from_arrow(pa.table({"doc_id": [0, 1, 2, 3], "text": texts}))
    got = {(r["doc_id"], r["feature"]): (r["count"], r["signed"])
           for r in feature_hash(ds, dim=64).take_all()}

    want = collections.defaultdict(lambda: [0, 0])
    for did, s in enumerate(texts):
        for tok in (s or "").split():
            h = _token_hashes([tok])
            f = int(mix64(h)[0]) % 64
            sg = 1 if (int(mix64(h ^ _FH_SIGN)[0]) >> 63) == 1 else -1
            want[(did, f)][0] += 1
            want[(did, f)][1] += sg
    assert got == {k: tuple(v) for k, v in want.items()}


def test_sessionize_matches_pandas():
    ev = rd.read_parquet(f"{SF}/events.parquet")
    got = windows.sessionize(ev, gap_s=900).to_pandas().sort_values(
        ["user_id", "session_start_us"]).reset_index(drop=True)

    df = ev.to_pandas().sort_values(["user_id", "ts"])
    us = df["ts"].astype("datetime64[us]").astype("int64")
    brk = (df["user_id"].ne(df["user_id"].shift())
           | (us - us.shift() > 900_000_000))
    df = df.assign(us=us, sid=brk.cumsum())
    want = df.groupby(["user_id", "sid"]).agg(
        session_start_us=("us", "min"), n_events=("us", "size"),
        dur=("us", lambda x: x.max() - x.min()),
        sum_value=("value", "sum")).reset_index().sort_values(
        ["user_id", "session_start_us"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert (got["user_id"].to_numpy() == want["user_id"].to_numpy()).all()
    assert (got["session_start_us"].to_numpy()
            == want["session_start_us"].to_numpy()).all()
    assert (got["n_events"].to_numpy() == want["n_events"].to_numpy()).all()
    assert (got["duration_us"].to_numpy() == want["dur"].to_numpy()).all()
    np.testing.assert_allclose(got["sum_value"], np.round(want["sum_value"], 6),
                               atol=1e-6)


def test_lm_bigram_score_matches_brute_force():
    import collections
    import math

    texts = ["a b a b c", "a b", "c c c", "", "zz"]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(texts))),
                                 "text": texts}))
    got = {r["doc_id"]: (r["n_bigrams"], r["avg_logprob"])
           for r in text.lm_bigram_score(ds).take_all()}

    bg = collections.Counter()
    pf = collections.Counter()
    for s in texts:
        toks = (s or "").split()
        for a, b in zip(toks[:-1], toks[1:]):
            bg[(a, b)] += 1
            pf[a] += 1
    for did, s in enumerate(texts):
        toks = (s or "").split()
        pairs = list(zip(toks[:-1], toks[1:]))
        if pairs:
            avg = sum(math.log(bg[p] / pf[p[0]]) for p in pairs) / len(pairs)
        else:
            avg = 0.0
        assert got[did] == (len(pairs), round(avg, 6)), did


def test_lm_bigram_score_broadcast_bound():
    ds = rd.from_arrow(pa.table({"doc_id": [0], "text": ["a b c d e"]}))
    import pytest as _pt
    with _pt.raises(ValueError):
        text.lm_bigram_score(ds, max_table=2).take_all()


def test_dedup_apply_keeps_one_row_per_content():
    base = _docs().to_pandas()[["doc_id", "lang", "text"]]
    dup = base.head(7).copy()
    dup["doc_id"] = dup["doc_id"] + 100_000
    docs = rd.from_pandas(pd.concat([base, dup], ignore_index=True))
    out = dedup.dedup_apply(docs).to_pandas().sort_values("doc_id")
    # one canonical row per distinct text, min-id winner, counts conserved
    assert len(out) == base["text"].nunique()
    assert out["n_dups"].sum() == len(base) + 7
    winners = (pd.concat([base, dup]).groupby("text")["doc_id"].min()
               .sort_values().to_numpy())
    assert np.array_equal(np.sort(out["doc_id"].to_numpy()), np.sort(winners))


def test_dim_stats_matches_numpy_moments():
    emb = rd.read_parquet(f"{SF}/embeddings.parquet", columns=["embedding"])
    out = similarity.dim_stats(emb).to_pandas().sort_values("dim")
    M = np.stack(pd.read_parquet(f"{SF}/embeddings.parquet")["embedding"]
                 .to_numpy()).astype(np.float64)
    assert len(out) == M.shape[1]
    assert (out["n"] == M.shape[0]).all()
    np.testing.assert_allclose(out["mean"], M.mean(axis=0), atol=1e-9)
    np.testing.assert_allclose(out["std"], M.std(axis=0), atol=1e-7)
    np.testing.assert_allclose(out["min_v"], M.min(axis=0), atol=0)
    np.testing.assert_allclose(out["max_v"], M.max(axis=0), atol=0)


def test_normalize_and_quantize_embeddings():
    emb = rd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    out = similarity.normalize_embeddings(emb).to_pandas()
    M = np.stack(out["embedding"].to_numpy())
    np.testing.assert_allclose(np.linalg.norm(M, axis=1), 1.0, atol=1e-9)

    q = similarity.quantize_embeddings(emb).to_pandas()
    C = np.stack(q["codes"].to_numpy())
    assert C.dtype == np.int8
    assert np.abs(C).max() == 127  # max-magnitude component maps to ±127
    # dequantized reconstruction stays within half a quantization step
    raw = np.stack(pd.read_parquet(f"{SF}/embeddings.parquet")["embedding"]
                   .to_numpy()).astype(np.float64)
    recon = C * q["scale"].to_numpy()[:, None]
    assert np.abs(recon - raw).max() <= (q["scale"].to_numpy().max() / 2) + 1e-12


def test_pq_codes_are_valid_and_deterministic():
    emb = rd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    out = similarity.pq_codes(emb, nsub=4, ncent=8).to_pandas()
    n_vec = 500
    assert len(out) == n_vec * 4
    assert set(out["sub"]) == {0, 1, 2, 3}
    assert out["code"].nunique() <= 8  # codes come from the 8 seed ids
    # every seed encodes to ITSELF in every subspace (distance 0)
    seeds = set(out["code"])
    own = out[out["vec_id"].isin(seeds)]
    same = own[own["vec_id"] == own["code"]]
    assert len(same) == len(seeds) * 4
    # deterministic under repartitioning
    out2 = similarity.pq_codes(
        rd.read_parquet(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"]).repartition(9),
        nsub=4, ncent=8).to_pandas()
    a = out.sort_values(["vec_id", "sub"]).reset_index(drop=True)
    b = out2.sort_values(["vec_id", "sub"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_random_projection_jl_property():
    emb = rd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    out = similarity.random_projection(emb, out_dim=16).to_pandas()
    assert len(out) == 500 * 16
    # exact reproduction of the direct numpy construction
    raw = pd.read_parquet(f"{SF}/embeddings.parquet")
    M = np.floor(np.stack(raw["embedding"].to_numpy()).astype(np.float64)
                 * 1048576.0).astype(np.int64)
    S = similarity._md5_sign_planes(16, 64)
    want = (M @ S.T).astype(np.float64) / (np.sqrt(16) * 1048576.0)
    got = (out.sort_values(["vec_id", "dim"])["val"]
           .to_numpy().reshape(500, 16))
    np.testing.assert_allclose(
        got, want[np.argsort(raw["vec_id"].to_numpy())], atol=0)
    # JL property: projected pairwise sq-distances concentrate around true
    X = np.stack(raw.sort_values("vec_id")["embedding"].to_numpy()).astype(np.float64)
    Y = got
    i, j = np.arange(0, 100), np.arange(100, 200)
    dt = ((X[i] - X[j]) ** 2).sum(1)
    dp = ((Y[i] - Y[j]) ** 2).sum(1)
    ratio = dp / dt
    assert 0.4 < np.median(ratio) < 1.6


def test_knn_pq_adc_recall_vs_exact():
    raw = pd.read_parquet(f"{SF}/embeddings.parquet").sort_values("vec_id")
    ids = raw["vec_id"].to_numpy()[:5].astype(np.int64)
    Q = np.stack(raw["embedding"].to_numpy()[:5]).astype(np.float64)
    emb = rd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    out = similarity.knn_pq_adc(emb, Q, k=10, nsub=4, ncent=16,
                                query_ids=ids).to_pandas()
    assert len(out) == 50
    # per-query: ranks 1..10, adist non-decreasing, self is rank 1 only if
    # its own PQ cell is nearest — but self adist must be the MIN possible
    # for its own codes, so self always appears in the top-10 here
    for qid, g in out.groupby("query_id"):
        assert list(g.sort_values("rank")["rank"]) == list(range(1, 11))
        assert (np.diff(g.sort_values("rank")["adist"].to_numpy()) >= 0).all()
    # ADC recall@10 vs exact L2 top-10 on this corpus is well above chance
    X = np.stack(raw["embedding"].to_numpy()).astype(np.float64)
    vid = raw["vec_id"].to_numpy().astype(np.int64)
    hits = 0
    for i, qid in enumerate(ids):
        d = ((X - Q[i]) ** 2).sum(1)
        exact = set(vid[np.lexsort((vid, d))[:10]])
        approx = set(out[out.query_id == qid]["vec_id"])
        hits += len(exact & approx)
    # 16-cell codebook on ~orthogonal random vectors is deliberately
    # coarse; chance recall@10 is 10/500 = 0.02 — require >= 5x chance
    assert hits / 50 >= 0.1


def test_pmi_collocations_brute_force():
    import collections
    import math

    base = _docs().to_pandas()
    out = text.pmi_collocations(
        rd.from_pandas(base[["doc_id", "text"]]), min_count=3, k=20
    ).to_pandas()
    uni: collections.Counter = collections.Counter()
    bg: collections.Counter = collections.Counter()
    for s in base["text"]:
        toks = (s or "").split()
        uni.update(toks)
        bg.update(zip(toks, toks[1:]))
    N = sum(bg.values())
    rows = [(a, b, n, round(math.log((float(N) * n) / (uni[a] * uni[b])), 6))
            for (a, b), n in bg.items() if n >= 3]
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    want = rows[:20]
    got = list(zip(out["tok_a"], out["tok_b"], out["n"], out["pmi"]))
    assert [(a, b, n) for a, b, n, _ in got] == [(a, b, n) for a, b, n, _ in want]
    np.testing.assert_allclose([p for *_, p in got], [p for *_, p in want],
                               atol=2e-6)


def test_bm25_matches_brute_force():
    base = _docs().to_pandas()
    q = ["customer", "order"]
    out = text.bm25_search(rd.from_pandas(base[["doc_id", "text"]]),
                           q, k=8).to_pandas()
    # brute force
    toks = [(s or "").split() for s in base["text"]]
    N = len(toks)
    avgdl = sum(len(t) for t in toks) / N
    df = {t: sum(1 for d in toks if t in d) for t in q}
    scores = {}
    for did, d in zip(base["doc_id"], toks):
        s = 0.0
        for t in sorted(q):
            tf = d.count(t)
            if tf:
                idf = np.log(1.0 + (N - df[t] + 0.5) / (df[t] + 0.5))
                s += idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * len(d) / avgdl))
        if s > 0:
            scores[int(did)] = round(s, 6)
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    got = list(zip(out["doc_id"], out["score"]))
    assert [d for d, _ in got] == [d for d, _ in want]
    np.testing.assert_allclose([s for _, s in got], [s for _, s in want],
                               atol=2e-6)


def test_funnel_strict_order():
    from raygraph.datapipe.windows import funnel

    # u1 completes all three; u2 view->purchase (no click) stops at 1;
    # u3's click precedes its view -> stops at 1; u4 click-only -> 0;
    # u5 view,click same ts (not strictly after) -> stops at 1
    rows = [
        (1, "2026-01-01T00:00:00", "view"),
        (1, "2026-01-01T00:01:00", "click"),
        (1, "2026-01-01T00:02:00", "purchase"),
        (2, "2026-01-01T00:00:00", "view"),
        (2, "2026-01-01T00:01:00", "purchase"),
        (3, "2026-01-01T00:01:00", "view"),
        (3, "2026-01-01T00:00:00", "click"),
        (4, "2026-01-01T00:00:00", "click"),
        (5, "2026-01-01T00:00:00", "view"),
        (5, "2026-01-01T00:00:00", "click"),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([np.datetime64(r[1], "us") for r in rows],
                       pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    out = funnel(rd.from_arrow(t)).to_pydict()
    assert out["step"] == [1, 2, 3]
    assert out["event_type"] == ["view", "click", "purchase"]
    assert out["n_users"] == [4, 1, 1]


def test_doc_repetition_counts():
    from raygraph.datapipe.dedup import doc_repetition

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["a b a b a",      # grams: aba, bab, aba -> 2 of 3 dup
                 "x y z w",        # all grams unique
                 "q r"],           # < 3 tokens -> skipped
    })
    out = doc_repetition(rd.from_arrow(t), n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(out["doc_id"]) == [1, 2]
    assert list(out["n_grams"]) == [3, 2]
    assert list(out["n_dup"]) == [2, 0]
    assert list(out["dup_ppm"]) == [666666, 0]


def test_doc_entropy_values():
    from raygraph.datapipe.text import doc_entropy

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["a a a a",        # entropy 0
                 "a b c d",        # entropy ln(4)
                 ""],              # empty -> skipped
    })
    out = doc_entropy(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(out["doc_id"]) == [1, 2]
    assert list(out["n_tokens"]) == [4, 4]
    assert list(out["n_distinct"]) == [1, 4]
    np.testing.assert_allclose(out["entropy"], [0.0, np.log(4)], atol=1e-6)


def test_hard_negatives_picks_cross_label_max():
    from raygraph.datapipe.similarity import hard_negatives

    t = pa.table({
        "vec_id": pa.array([1, 2, 3, 4], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0],
                               [1.0, 0.05]],
                              pa.list_(pa.float32())),
        "label": pa.array([0, 0, 1, 1], pa.int32()),
    })
    out = hard_negatives(rd.from_arrow(t)).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    got = dict(zip(out["vec_id"], out["neg_id"]))
    # 1's nearest cross-label is 4 (not same-label 2); 3's is 4 too? no:
    # 3=[0,1] vs label-0 candidates {1,2}: sim(3,2) > sim(3,1) -> 2
    assert got[1] == 4
    assert got[2] == 4
    assert got[3] == 2
    assert got[4] == 1


def test_hard_negatives_rejects_an_oversized_corpus_before_fetching_it(
        monkeypatch):
    """The 20,000-vector bound is read from block metadata: an oversized
    corpus raises before any of its blocks is pulled to the driver."""
    import ray

    from raygraph.datapipe.similarity import hard_negatives

    n = 20_001
    t = pa.table({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(np.ones(2 * n, np.float32)), 2).cast(
            pa.list_(pa.float32())),
        "label": np.zeros(n, np.int32),
    })
    ds = rd.from_arrow(t)
    fetched = []
    real_get = ray.get

    def get(refs, *a, **kw):
        out = real_get(refs, *a, **kw)
        for x in (out if isinstance(out, list) else [out]):
            if isinstance(x, pa.Table):
                fetched.append(x.num_rows)
        return out

    monkeypatch.setattr(ray, "get", get)
    with pytest.raises(ValueError, match="20001 vectors"):
        hard_negatives(ds)
    assert fetched == []


def test_cohort_retention_triangle():
    from raygraph.datapipe.windows import cohort_retention

    wk = 604800
    base = np.datetime64("2026-01-01T00:00:00", "us")
    rows = [
        (1, 0), (1, wk + 5), (1, wk + 6),   # cohort c, offsets {0,1}
        (2, 3), (2, 2 * wk),                # offsets {0,1}: 2wk-3s < 2 periods
                                            # (offsets anchor at the user's
                                            # OWN first event, not calendar)
        (3, wk), (3, wk + 1),               # cohort c+1ish, offset {0}
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([base + np.timedelta64(r[1] * 1_000_000, "us")
                        for r in rows], pa.timestamp("us")),
    })
    out = cohort_retention(rd.from_arrow(t)).to_pandas() \
        .sort_values(["cohort", "week_offset"]).reset_index(drop=True)
    c0 = int(base.astype(np.int64) // (wk * 1_000_000))
    got = {(r.cohort, r.week_offset): r.n_users for r in out.itertuples()}
    # users 1,2 share the first-event period; user 3 starts one week in
    c3 = int((base.astype(np.int64) + wk * 1_000_000) // (wk * 1_000_000))
    assert got[(c0, 0)] == 2
    assert got[(c0, 1)] == 2
    assert (c0, 2) not in got
    assert got[(c3, 0)] == 1


def test_funnel_matches_bruteforce_random():
    from raygraph.datapipe.windows import funnel

    rng = np.random.default_rng(99)
    n = 400
    users = rng.integers(0, 40, n)
    tss = rng.integers(0, 10_000, n)
    steps = ("view", "click", "purchase")
    types = np.array(steps + ("error",))[rng.integers(0, 4, n)]
    base = np.datetime64("2026-01-01", "us")
    t = pa.table({
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array([base + np.timedelta64(int(x) * 1_000_000, "us")
                        for x in tss], pa.timestamp("us")),
        "event_type": pa.array(types.tolist(), pa.string()),
    })
    out = funnel(rd.from_arrow(t), steps=steps).to_pydict()

    # brute force: greedy earliest strictly-after match per user
    import collections
    ev = collections.defaultdict(list)
    for u, s, et in zip(users, tss, types):
        ev[u].append((int(s), et))
    counts = [0, 0, 0]
    for u, rows in ev.items():
        rows.sort()
        cur = -1
        stage = 0
        for i, step in enumerate(steps):
            cand = [s for s, et in rows if et == step and s > cur]
            if not cand:
                break
            cur = min(cand)
            stage = i + 1
        for i in range(stage):
            counts[i] += 1
    assert out["n_users"] == counts


def test_weighted_sample_prefers_heavy_rows():
    from raygraph.datapipe.sampling import weighted_sample

    # one row carries ~all the weight: it must always be in the sample
    ids = np.arange(200, dtype=np.int64)
    w = np.ones(200)
    w[137] = 1e9
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "n_chars": pa.array(w, pa.float64())})
    out = weighted_sample(rd.from_arrow(t), n=10)
    assert 137 in set(out["doc_id"].to_pylist())
    assert out.num_rows == 10
    # deterministic: same input -> same sample
    out2 = weighted_sample(rd.from_arrow(t), n=10)
    assert out["doc_id"].to_pylist() == out2["doc_id"].to_pylist()


def test_event_transitions_counts():
    from raygraph.datapipe.windows import event_transitions

    base = np.datetime64("2026-01-01", "us")
    rows = [  # u1: a->b->a ; u2: b->b ; ties broken by event_id
        (1, 1, 0, "a"), (2, 1, 1, "b"), (3, 1, 2, "a"),
        (4, 2, 0, "b"), (5, 2, 0, "b"),
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([base + np.timedelta64(r[2] * 1_000_000, "us")
                        for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })
    out = event_transitions(rd.from_arrow(t)).to_pandas()
    got = {(r.from_type, r.to_type): r.n for r in out.itertuples()}
    assert got == {("a", "b"): 1, ("b", "a"): 1, ("b", "b"): 1}


def test_funnel_empty_and_dup_steps():
    from raygraph.datapipe.windows import funnel

    t = pa.table({
        "user_id": pa.array([1], pa.int64()),
        "ts": pa.array([np.datetime64("2026-01-01", "us")],
                       pa.timestamp("us")),
        "event_type": pa.array(["error"], pa.string()),
    })
    out = funnel(rd.from_arrow(t)).to_pydict()  # no matching events
    assert out["n_users"] == [0, 0, 0]
    import pytest as _pt
    with _pt.raises(ValueError):
        funnel(rd.from_arrow(t), steps=("view", "click", "view"))


def test_weighted_sample_all_nonpositive():
    from raygraph.datapipe.sampling import weighted_sample

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "n_chars": pa.array([0.0, -1.0], pa.float64())})
    out = weighted_sample(rd.from_arrow(t), n=5)
    assert out.num_rows == 0
