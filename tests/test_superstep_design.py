"""Structural guard: the fused engine has ONE superstep driver.

Every fused algorithm submits its tasks through ``fused.wave`` (the only
place that sets ``num_returns`` and builds the P×P packet-ref transpose)
and loops through ``fused.drive``; algorithm modules hold step bodies,
not task plumbing or single-partition special cases."""

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
