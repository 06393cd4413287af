"""Self-tests of the benchmark: span arithmetic, wrappers, and a tiny run of each workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_hand_built_tree():
    # 0 A [0, 10]
    #   1 B [1, 4]
    #     2 E [2, 3]
    #   3 C [5, 9]
    #     4 D [6, 8]
    # 5 B [11, 12]   second root, same name as span 1
    names = ["A", "B", "E", "C", "D", "B"]
    parents = [-1, 0, 1, 0, 3, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 8.0, 12.0]
    calls, own = spans.self_times(names, parents, starts, ends)
    assert dict(calls) == {"A": 1, "B": 2, "E": 1, "C": 1, "D": 1}
    assert own == pytest.approx({"A": 3.0, "B": 3.0, "E": 1.0, "C": 2.0, "D": 2.0})
    # Self times partition the root spans' durations.
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)


class _Owner:
    @staticmethod
    def leaf(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Owner.leaf(x) + _Owner.leaf(x)


def test_tracer_wraps_counts_and_restores():
    leaf, outer = _Owner.leaf, _Owner.outer
    tracer = spans.Tracer()
    seen = []
    tracer.install([
        (_Owner, "leaf", "leaf", lambda t, args, result: seen.append((args, result))),
        (_Owner, "outer", "outer", None),
    ])
    try:
        assert tracer.call("op", _Owner.outer, 1) == 4
    finally:
        tracer.uninstall()
    tracer.fold()
    assert _Owner.leaf is leaf and _Owner.outer is outer
    assert seen == [((1,), 2), ((1,), 2)]
    assert dict(tracer.calls) == {"op": 1, "outer": 1, "leaf": 2}
    assert tracer.edges[("outer", "leaf")] == 2 and tracer.edges[("op", "outer")] == 1
    assert all(seconds >= 0.0 for seconds in tracer.self_s.values())


def _run(argv: list[str]) -> tuple[dict, str]:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert run.main(argv) == 0
    text = stdout.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(monkeypatch, workload, trace):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_OPS", 2)
    monkeypatch.setattr(workloads, "BATCH_RUNS", 2)
    result, text = _run(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                         "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert "failed_op_ratio" in text and "output_sha256" in text and "nproc=" in text


def test_digest_repeats_for_a_seed(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_OPS", 2)
    argv = ["--workload", "style_sweep", "--seed", "5", "--seconds", "0.01"]
    digests = []
    for _ in range(2):
        _, text = _run(argv)
        digests.append(next(line for line in text.splitlines() if line.startswith("output_sha256")))
    assert digests[0] == digests[1]


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = [name for layer in layer_map["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "paper_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
