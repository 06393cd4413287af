"""Benchmark workloads: seeded inputs, timed operations and output checks.

Each workload turns the benchmark seed into its inputs.  ``op(k)`` is the
k-th timed operation; ``check(k, out, tally)`` verifies its outputs outside
the timed region, adds what they show to a ``Tally`` and returns the text
the run digest covers.  Operations call evomerge through module attributes,
so a traced run sees the wrappers ``trace_targets`` lists.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import evomerge.cli as cli
import evomerge.config as config
import evomerge.estimation as estimation
import evomerge.metrics as metrics
import evomerge.payoff as payoff
import evomerge.runner as runner
from evomerge.baselines import Policy

#: Slack on belief containment, as in the estimation testbench.
BELIEF_TOL = 1e-9

#: Estimation error the style sweep accepts for one true style.
MAX_EST_ERROR = 0.05


class CheckFailed(Exception):
    """An operation's outputs are wrong; the operation counts as failed."""


@dataclass
class Tally:
    """What the checked outputs of a run's operations show."""

    runs: int = 0  # closed-loop scenario runs
    collided: int = 0
    merged: int = 0  # runs whose lane change completed
    beliefs: int = 0  # final opponent beliefs
    beliefs_missed: int = 0  # ... whose [k_l, k_u] excludes the true style
    decisions: int = 0
    steps: int = 0
    trace_bytes: int = 0
    est_errors: list[float] = field(default_factory=list)

    def add_belief(self, lo: float, hi: float, truth: float) -> None:
        self.beliefs += 1
        if not lo - BELIEF_TOL <= truth <= hi + BELIEF_TOL:
            self.beliefs_missed += 1

    def add_run(self, trace: runner.SimTrace) -> None:
        self.runs += 1
        self.collided += bool(trace.collisions)
        self.merged += trace.lane_change_time is not None
        self.decisions += len(trace.decisions)
        self.steps += round(trace.duration / trace.dt)
        final: dict[str, tuple[float, float]] = {}
        for d in trace.decisions:  # chronological, so the last one wins
            if d.opponent is not None and d.k_l is not None and d.k_u is not None:
                final[d.opponent] = (d.k_l, d.k_u)
        for vid, (lo, hi) in final.items():
            self.add_belief(lo, hi, trace.true_styles[vid])


class Workload:
    """Seeded inputs plus the operation and check one workload repeats."""

    name = ""
    #: Tail percentile, fixed so that it means the same on every commit: a
    #: high one of 50/75/90/95/99 that leaves at least ten samples beyond it
    #: in a 30 s run of the seed code (paper_mix p75: ~20 beyond; post_merge
    #: p90: ~16; style_sweep p90: ~33, because its p95, with ~16 beyond,
    #: spread 0.15 across seeds against p90's 0.11).
    tail_pct = 90.0

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.run_base = self.rng.randrange(1_000_000)
        self.scenario_paths: list[Path] = []
        self.cfgs: list[runner.SimConfig] = []

    def __enter__(self) -> "Workload":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def load(self) -> None:
        self.cfgs = [config.load_scenario(p) for p in self.scenario_paths]

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out, tally: Tally) -> str:
        raise NotImplementedError

    def final_checks(self) -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
        """Untimed whole-run checks as (label, fn returning (ok, digest text))."""
        return []

    def extra_metrics(self) -> dict[str, dict]:
        """Metrics the final checks measured, as {name: {value, unit, n}}."""
        return {}


def _report_for(trace: runner.SimTrace) -> metrics.MetricsReport:
    try:
        return metrics.compute_metrics(trace)
    except ValueError as exc:
        raise CheckFailed(f"MetricsReport rejected: {exc}") from exc


# --------------------------------------------------------------------------
# paper_mix: the paper's case study, three scenarios x three policies


COMBOS = [(index, policy) for index in range(3) for policy in Policy]

#: Seeds per (scenario, policy) in the serial-versus-jobs=2 batch check.
BATCH_RUNS = 6


class PaperMix(Workload):
    """Nine case-study runs per op: scenario1-3 under egt, nash and stackelberg.

    Each run has its own seed and is followed by compute_metrics.  Single
    runs take either ~40 ms or 120-270 ms, depending on how many
    stability-interval scans their decisions trigger, so the median of single
    runs sits in the gap between the two modes; the sum of nine does not.
    """

    name = "paper_mix"
    tail_pct = 75.0

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        super().__init__(root, seed, workdir)
        self.batch_base = self.rng.randrange(1_000_000)
        self.scenario_paths = [root / "scenarios" / f"scenario{i}.cfg" for i in (1, 2, 3)]
        self.batch_serial_s = 0.0
        self.batch_jobs2_s = 0.0
        self.batch_runs = 0

    def op(self, k: int):
        runs = []
        for j, (index, policy) in enumerate(COMBOS):
            seed = self.run_base + len(COMBOS) * k + j
            trace = runner.run_scenario(replace(self.cfgs[index], seed=seed), policy)
            runs.append((trace, _report_for(trace)))
        return runs

    def check(self, k: int, out, tally: Tally) -> str:
        for trace, _ in out:
            tally.add_run(trace)
        return "".join(metrics.run_report_text(report, trace) for trace, report in out)

    def final_checks(self):
        return [(f"batch scenario{index + 1}/{policy.value} serial == jobs2",
                 lambda index=index, policy=policy: self._batch_check(index, policy))
                for index, policy in COMBOS]

    def _batch_check(self, index: int, policy: Policy) -> tuple[bool, str]:
        cfg = self.cfgs[index]
        t0 = time.perf_counter()
        serial = metrics.run_batch(cfg, BATCH_RUNS, self.batch_base, policy, jobs=1)
        t1 = time.perf_counter()
        pooled = metrics.run_batch(cfg, BATCH_RUNS, self.batch_base, policy, jobs=2)
        t2 = time.perf_counter()
        self.batch_serial_s += t1 - t0
        self.batch_jobs2_s += t2 - t1
        self.batch_runs += BATCH_RUNS
        text = metrics.batch_summary_text(serial)
        ok = text == metrics.batch_summary_text(pooled) and not serial.failed_seeds
        return ok, text

    def extra_metrics(self) -> dict[str, dict]:
        if not self.batch_jobs2_s:
            return {}
        return {
            "batch_jobs2_runs_per_s": {"value": self.batch_runs / self.batch_jobs2_s,
                                       "unit": "1/s", "n": self.batch_runs},
            "metrics.jobs2_speedup": {"value": self.batch_serial_s / self.batch_jobs2_s,
                                      "unit": "ratio", "n": self.batch_runs},
        }


# --------------------------------------------------------------------------
# post_merge: long-horizon runs through the command line, trace written


#: Horizon of the generated scenario files, long enough for every run to
#: complete its lane change and drive on behind it.
POST_MERGE_DURATION = 120.0


class PostMerge(Workload):
    """In-process ``evomerge run --trace`` on 120 s copies of scenario1-3, EGT."""

    name = "post_merge"

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        super().__init__(root, seed, workdir)
        self.out = workdir / "runs"
        self.out.mkdir(parents=True, exist_ok=True)
        for i in (1, 2, 3):
            text = (root / "scenarios" / f"scenario{i}.cfg").read_text()
            text, n = re.subn(r"(?m)^duration\s*=.*$", f"duration = {POST_MERGE_DURATION}", text)
            if n != 1:
                raise ValueError(f"scenario{i}.cfg: expected one duration line, found {n}")
            path = workdir / f"scenario{i}_{POST_MERGE_DURATION:g}s.cfg"
            path.write_text(text)
            self.scenario_paths.append(path)
        self.traces: list[runner.SimTrace] = []
        self._run_scenario = cli.run_scenario

    def __enter__(self) -> "PostMerge":
        # Keep each run's trace object for the closed-loop estimator check;
        # the files the command writes hold no true styles.
        def capture(cfg, policy=Policy.EGT):
            trace = self._run_scenario(cfg, policy)
            self.traces.append(trace)
            return trace

        cli.run_scenario = capture
        return self

    def __exit__(self, *exc) -> None:
        cli.run_scenario = self._run_scenario

    def op(self, k: int):
        seed = self.run_base + k
        argv = ["run", "--scenario", str(self.scenario_paths[k % 3]), "--seed", str(seed),
                "--policy", "egt", "--out", str(self.out), "--trace"]
        self.traces.clear()
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(argv)
        return code, seed, stdout.getvalue()

    def check(self, k: int, out, tally: Tally) -> str:
        code, seed, stdout = out
        if code != 0:
            raise CheckFailed(f"cli.main exited {code}")
        report_path = self.out / f"run_egt_seed{seed}.txt"
        trace_path = self.out / f"trace_egt_seed{seed}.csv"
        try:
            report = report_path.read_text()
            csv = trace_path.read_text()
        finally:
            report_path.unlink(missing_ok=True)
            trace_path.unlink(missing_ok=True)
        if report != stdout:
            raise CheckFailed("run report file differs from the printed report")
        if not csv.startswith(metrics.TRACE_HEADER + "\n"):
            raise CheckFailed("trace CSV lacks its header")
        if len(self.traces) != 1:
            raise CheckFailed(f"expected one scenario run, saw {len(self.traces)}")
        trace = self.traces.pop()
        if ("collided=true" in report.splitlines()) != bool(trace.collisions):
            raise CheckFailed("report's collided flag disagrees with the trace")
        tally.add_run(trace)
        tally.trace_bytes += len(csv)
        return report + csv


# --------------------------------------------------------------------------
# style_sweep: open-loop estimation bench at seeded true styles


class StyleSweep(Workload):
    """run_estimation_bench on scenarios/estimation.cfg at true styles in [0.05, 0.95]."""

    name = "style_sweep"

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        super().__init__(root, seed, workdir)
        self.scenario_paths = [root / "scenarios" / "estimation.cfg"]
        self.omegas: list[float] = []

    def omega(self, k: int) -> float:
        while len(self.omegas) <= k:
            self.omegas.append(self.rng.uniform(0.05, 0.95))
        return self.omegas[k]

    def op(self, k: int):
        return runner.run_estimation_bench(self.cfgs[0], true_omega=self.omega(k),
                                           seed=self.run_base + k)

    def check(self, k: int, out, tally: Tally) -> str:
        truth = self.omega(k)
        tally.add_belief(out.belief.k_l, out.belief.k_u, truth)
        tally.est_errors.append(out.error)
        if not out.contained:
            raise CheckFailed(f"true style {truth!r} left the belief interval")
        if out.error > MAX_EST_ERROR:
            raise CheckFailed(f"estimation error {out.error!r} > {MAX_EST_ERROR} at {truth!r}")
        return "".join(
            f"{metrics.fmt(r.t)},{metrics.fmt(r.k_l)},{metrics.fmt(r.k_u)},"
            f"{metrics.fmt(r.omega_hat)},{r.predicted_q!r},{r.accelerated},{r.updated}\n"
            for r in out.rounds
        )


WORKLOADS = {cls.name: cls for cls in (PaperMix, PostMerge, StyleSweep)}


# --------------------------------------------------------------------------
# Traced call sites


def _count_stale(tracer, args, result) -> None:
    tracer.counts["estimation.interval.stale"] += result.stale


def _count_moved(tracer, args, result) -> None:
    tracer.counts["estimation.update.moved"] += result != args[0]


def _count_lane_change(tracer, args, result) -> None:
    tracer.counts["runner.lane_change.ok"] += result[1]


def trace_targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, layer, observer) for every call site the traced run wraps."""
    return [
        (config, "load_scenario", "config.load_scenario", None),
        (cli, "load_scenario", "config.load_scenario", None),
        (runner, "build_matrix", "payoff.build_matrix", None),
        (payoff.CellTable, "matrix_at", "payoff.matrix_at", None),
        (runner, "solve_ess", "egt.solve_ess", None),
        (estimation, "solve_ess", "egt.solve_ess", None),
        (estimation, "ess_stability_interval", "estimation.interval", _count_stale),
        (runner, "update_belief", "estimation.update", _count_moved),
        (runner, "select_nash", "baselines.policy", None),
        (runner, "stackelberg", "baselines.policy", None),
        (runner, "step_kinematics", "traffic.step_kinematics", None),
        (runner, "idm_accel", "traffic.idm_accel", None),
        (runner, "check_collision", "traffic.check_collision", None),
        (runner, "execute_lane_change", "runner.lane_change", _count_lane_change),
        (runner, "run_scenario", "runner.run", None),
        (cli, "run_scenario", "runner.run", None),
        (runner, "run_estimation_bench", "runner.estimation_bench", None),
        (metrics, "compute_metrics", "metrics.compute_metrics", None),
        (cli, "compute_metrics", "metrics.compute_metrics", None),
        (metrics, "trace_csv", "metrics.trace_csv", None),
        (cli, "main", "cli.main", None),
    ]
