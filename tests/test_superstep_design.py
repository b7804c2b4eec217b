"""Structural guard: the fused engine has ONE superstep driver.

Every fused algorithm submits its tasks through ``fused.wave`` (the only
place that sets ``num_returns`` and routes the W×W group packets) and
loops through ``fused.drive``; algorithm modules hold step bodies, not
task plumbing or single-partition special cases. A superstep is one task
per group, however many partitions the graph has."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1] / "raygraph"


def _functions_containing(tree, pred):
    """Names of the outermost top-level functions whose body has a node
    satisfying ``pred``."""
    return {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
            and any(pred(n) for n in ast.walk(f))}


def test_algorithms_have_no_task_plumbing_or_single_partition_forks():
    fork = re.compile(r"\b(P|num_parts)\s*(==|>|!=|<=)\s*1\b")
    for path in sorted((ROOT / "algorithms").glob("*.py")):
        src = path.read_text()
        assert "num_returns" not in src, f"{path.name}: num_returns outside fused.wave"
        assert not fork.search(src), f"{path.name}: P == 1 / P > 1 branch"


def test_fused_builds_packet_transpose_only_in_wave():
    src = (ROOT / "fused.py").read_text()
    assert not re.search(r"\b(P|num_parts)\s*(==|>|!=|<=)\s*1\b", src)
    tree = ast.parse(src)

    def is_remote_call(n):  # task submission ``f.remote(...)``, not ``ray.remote``
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "remote"
                and not (isinstance(n.func.value, ast.Name) and n.func.value.id == "ray"))

    def sets_num_returns(n):
        return isinstance(n, ast.keyword) and n.arg == "num_returns"

    # task submission: wave, plus the one-off block-cache construction
    assert _functions_containing(tree, is_remote_call) <= {"wave", "_cached_blocks"}
    assert _functions_containing(tree, sets_num_returns) == {"_task"}
    # the P×P ref matrix (a list of per-destination lists) lives in wave only
    assert "packets_by_q" not in src and "next_packets" not in src


def test_pagerank_superstep_submits_one_task_per_group(monkeypatch):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    import raygraph.fused as F
    from raygraph.graph import build_graph

    from raygraph.util import mix64

    src = np.arange(400, dtype=np.uint64)
    edges = pa.table({"src": src, "dst": mix64(src) % np.uint64(400)})
    g = build_graph(rd.from_arrow(edges), num_parts=32, binarize=True)
    W = 2
    monkeypatch.setattr(F, "_n_groups", lambda P: min(W, P))
    F.block_cache(g)  # built once, outside the superstep count
    submitted = []

    class Counted:
        def __init__(self, task):
            self.task = task

        def remote(self, *args):
            submitted.append(args)
            return self.task.remote(*args)

    real = F._task
    monkeypatch.setattr(F, "_task", lambda *shape: Counted(real(*shape)))
    steps = 4
    _, info = F.pagerank_fused(g, tol=0.0, itermax=steps)
    assert info["iters"] == steps and info["groups"] == W
    # the seed scatter plus one wave per superstep, each at most W tasks
    assert len(submitted) <= W * (steps + 1)
