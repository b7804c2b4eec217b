import numpy as np
import pyarrow as pa
import ray.data as rd

from raygraph.extract import HtmlExtractor, extract_pages, links_table
from raygraph.synth import gen_rows, pages_table, url_of


def test_generator_deterministic_under_batching():
    full = gen_rows(np.arange(50), 50, 10, seed=42)
    a = gen_rows(np.arange(0, 20), 50, 10, seed=42)
    b = gen_rows(np.arange(20, 50), 50, 10, seed=42)
    assert pa.concat_tables([a, b]).equals(full)


def test_extract_byte_identical_text():
    """The per-row invariant (BASELINE.json input_hint): extracted text ==
    ground-truth text column, byte-for-byte per url."""
    pages = pages_table(200, pages_per_site=20, seed=42)
    ex = HtmlExtractor()(pages)
    assert ex["url"].to_pylist() == pages["url"].to_pylist()
    got = ex["extracted_text"].to_pylist()
    want = pages["text"].to_pylist()
    for g, w in zip(got, want):
        assert g.encode() == w.encode()


def test_extract_dataset_anti_join_empty():
    pages = pages_table(120, pages_per_site=30, seed=7)
    ds = rd.from_arrow(pages)
    out = extract_pages(ds, batch_size=32)
    tbl = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow", batch_size=None)]
    )
    truth = dict(zip(pages["url"].to_pylist(), pages["text"].to_pylist()))
    mism = [u for u, t in zip(tbl["url"].to_pylist(), tbl["extracted_text"].to_pylist())
            if truth[u] != t]
    assert mism == []
    assert tbl.num_rows == 120


def test_outlinks_and_hubs():
    pages = pages_table(300, pages_per_site=50, seed=42)
    ex = HtmlExtractor()(pages)
    links = [l for row in ex["outlinks"].to_pylist() for l in row]
    assert len(links) > 300  # average out-degree > 1
    known = {url_of(r, 50) for r in range(300)}
    unknown = [l for l in links if l not in known]
    assert 0 < len(unknown) < len(links) * 0.05  # ~1% unknown urls
    # power-law: most-linked page gets far more than average
    from collections import Counter

    c = Counter(l for l in links if l in known)
    assert c.most_common(1)[0][1] > 5 * (len(links) / 300)


def test_links_table_hashes():
    pages = pages_table(60, pages_per_site=30, seed=42)
    ds = rd.from_arrow(pages)
    links = links_table(extract_pages(ds, batch_size=64))
    tbl = links.take_all()
    n_links = sum(len(r) for r in HtmlExtractor()(pages)["outlinks"].to_pylist())
    assert len(tbl) == n_links
