"""evomerge benchmark: run one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 25 --trace 0

Run from anywhere; the benchmark measures the evomerge sources in the
``src/`` directory next to its own.  It prints a readable report (every
metric with its unit and sample count, the environment, the output digest)
and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` wraps each layer's call
sites, reports the per-layer metrics, and replays the same operations
untraced to report the tracing overhead.  The full report is also written to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``.

Exit codes: 0 with a result, 1 on an unexpected error, 2 when the evomerge
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 7

#: A run always completes at least this many operations.
MIN_OPS = 10

#: Leading operations whose outputs the run digest covers.
SHA_OPS = 8

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import evomerge
from evomerge.config import load_scenario
for path in sys.argv[2:]:
    load_scenario(path)
print(time.perf_counter() - t0)
"""


@dataclass
class Pass:
    """Timings and failures of one sequence of operations."""

    times: list[float] = field(default_factory=list)  # seconds, passed ops only
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def run_ops(wl, tally, *, seconds=None, count=None, tracer=None, digest=None) -> Pass:
    """Run operations 0, 1, ... for ``seconds`` (at least MIN_OPS of them), or ``count`` of them."""
    done = Pass()
    start = time.perf_counter()
    k = 0
    while (done.attempted < count if count is not None
           else done.attempted < MIN_OPS or time.perf_counter() - start < seconds):
        done.attempted += 1
        try:
            t0 = time.perf_counter()
            out = wl.op(k) if tracer is None else tracer.call("op", wl.op, k)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.fold()
            text = wl.check(k, out, tally)
        except Exception as exc:  # a failed operation is counted; the run goes on
            done.fail(f"op {k}", exc)
        else:
            done.times.append(elapsed)
            if digest is not None and k < SHA_OPS:
                digest.update(text.encode())
        k += 1
    return done


def measure_setup(paths: list[Path]) -> list[float]:
    """Seconds to import evomerge and parse ``paths``, once per fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def end_to_end(wl, main: Pass, setup: list[float]) -> dict[str, dict]:
    times_ms = sorted(t * 1e3 for t in main.times)
    n = len(times_ms)
    rank = max(1, math.ceil(wl.tail_pct / 100.0 * n))
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "n": len(setup)},
        "op_p50_ms": {"value": statistics.median(times_ms), "unit": "ms", "n": n},
        "op_tail_ms": {"value": times_ms[rank - 1], "unit": "ms", "n": n,
                       "percentile": wl.tail_pct, "beyond": n - rank},
        "ops_per_s": {"value": n / sum(main.times), "unit": "1/s", "n": n},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "n": 1},
    }


def per_layer(tracer, n: int, tally, extra: dict, overhead_s: float, overhead_pct: float) -> dict[str, dict]:
    def metric(value, unit):
        return {"value": value, "unit": unit, "n": n}

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer, with_calls in (
        ("config.load_scenario", True),
        ("payoff.build_matrix", True),
        ("payoff.matrix_at", True),
        ("egt.solve_ess", True),
        ("estimation.interval", True),
        ("baselines.policy", True),
        ("traffic.step_kinematics", True),
        ("traffic.idm_accel", True),
        ("traffic.check_collision", True),
        ("runner.run", False),
        ("runner.estimation_bench", False),
        ("metrics.compute_metrics", False),
        ("metrics.trace_csv", False),
        ("cli.main", False),
    ):
        if with_calls:
            out[f"{layer}.calls"] = metric(tracer.calls[layer] / n, "count/op")
        out[f"{layer}.self_s"] = metric(tracer.self_s[layer] / n, "s/op")
    intervals = tracer.calls["estimation.interval"]
    evals = tracer.edges[("estimation.interval", "payoff.matrix_at")]
    out["estimation.interval.evals_per_call"] = metric(ratio(evals, intervals), "count/call")
    out["estimation.interval.stale"] = metric(tracer.counts["estimation.interval.stale"] / n, "count/op")
    updates = tracer.calls["estimation.update"]
    out["estimation.update.calls"] = metric(updates / n, "count/op")
    out["estimation.update.moved_ratio"] = metric(
        ratio(tracer.counts["estimation.update.moved"], updates), "ratio")
    out["runner.decisions"] = metric(tally.decisions / n, "count/op")
    out["runner.steps"] = metric(tally.steps / n, "count/op")
    attempts = tracer.calls["runner.lane_change"]
    out["runner.lane_change.attempts"] = metric(attempts / n, "count/op")
    out["runner.lane_change.ok_ratio"] = metric(
        ratio(tracer.counts["runner.lane_change.ok"], attempts), "ratio")
    out["metrics.trace_bytes"] = metric(tally.trace_bytes / n, "bytes/op")
    for name, unit in (("metrics.jobs2_speedup", "ratio"), ("batch_jobs2_runs_per_s", "1/s")):
        out[name] = extra.get(name, metric(0.0, unit))
    out["tracing.overhead_s"] = metric(overhead_s, "s/op")
    out["tracing.overhead_pct"] = metric(overhead_pct, "%")
    return out


def outcomes(tally, passes: list[Pass]) -> dict[str, dict]:
    """Outcome metrics: printed and recorded, not part of the JSON result."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    out = {"failed_op_ratio": {"value": failed / attempted, "unit": "ratio", "n": attempted}}
    if tally.runs:
        out["collision_pct"] = {"value": 100.0 * tally.collided / tally.runs, "unit": "%", "n": tally.runs}
        out["merge_completion_pct"] = {"value": 100.0 * tally.merged / tally.runs, "unit": "%",
                                       "n": tally.runs}
    if tally.beliefs:
        out["belief_miss_pct"] = {"value": 100.0 * tally.beliefs_missed / tally.beliefs, "unit": "%",
                                  "n": tally.beliefs}
    if tally.est_errors:
        out["est_max_error"] = {"value": max(tally.est_errors), "unit": "omega",
                                "n": len(tally.est_errors)}
    return out


def describe(name: str, m: dict) -> str:
    extra = "".join(f" {key}={m[key]}" for key in ("percentile", "beyond") if key in m)
    return f"{name:<40} {m['value']:>14.6g} {m['unit']:<10} n={m['n']}{extra}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evomerge" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        sys.stderr.write(f"perfbench: no evomerge sources under {SRC}\n")
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Imported here: the sources are only importable once SRC is on the path.
    import evomerge
    import spans
    import workloads

    if Path(evomerge.__file__).resolve().parent != SRC / "evomerge":
        sys.stderr.write(f"perfbench: imported evomerge from {evomerge.__file__}, not {SRC}\n")
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        setup = [] if args.trace else measure_setup(wl.scenario_paths)
        tally = workloads.Tally()
        digest = hashlib.sha256()
        passes: list[Pass] = []
        with wl:
            wl.load()
            passes.append(run_ops(wl, workloads.Tally(), count=1))  # warm-up
            if args.trace:
                tracer = spans.Tracer()
                tracer.install(workloads.trace_targets())
                try:
                    tracer.call("setup", wl.load)
                    tracer.fold()
                    main_pass = run_ops(wl, tally, seconds=args.seconds, tracer=tracer, digest=digest)
                finally:
                    tracer.uninstall()
                replay = run_ops(wl, workloads.Tally(), count=main_pass.attempted)
                passes += [main_pass, replay]
            else:
                main_pass = run_ops(wl, tally, seconds=args.seconds, digest=digest)
                passes.append(main_pass)
            checks = Pass()
            for label, check in wl.final_checks():
                checks.attempted += 1
                try:
                    ok, text = check()
                except Exception as exc:  # counted as a failed check
                    checks.fail(label, exc)
                    continue
                digest.update(text.encode())
                if not ok:
                    checks.fail(label, AssertionError("outputs differ"))
            passes.append(checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not main_pass.times:
        sys.stderr.write("perfbench: every timed operation failed\n" + "\n".join(main_pass.errors) + "\n")
        return 1
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    extras = wl.extra_metrics()
    info = outcomes(tally, passes)
    if args.trace:
        traced_s, untraced_s = sum(main_pass.times), sum(replay.times)
        n = main_pass.attempted
        reported = per_layer(tracer, n, tally, extras,
                             (traced_s - untraced_s) / n, 100.0 * (traced_s / untraced_s - 1.0))
    else:
        reported = end_to_end(wl, main_pass, setup)
        info.update(extras)
    env = environment(args)
    sha = digest.hexdigest()

    print(f"evomerge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    for name, m in {**reported, **info}.items():
        print(describe(name, m))
    print(f"output_sha256 {sha} (first {SHA_OPS} operations and the final checks)")
    errors = [e for p in passes for e in p.errors]
    for error in errors[:20]:
        print(f"FAILED {error}")

    record = {"env": env, "metrics": reported, "outcomes": info, "output_sha256": sha,
              "attempted": attempted, "failed": failed, "errors": errors,
              "op_ms": [t * 1e3 for t in main_pass.times]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
