"""Trajectory quality metrics, batch execution, and trace persistence.

Jerk (first differences of recorded acceleration), the terminal speed of the
platoon's probe vehicle, the collision flag, and capped time-to-collision
samples together quantify how much the merge disturbs main-road traffic.
Batches aggregate seeded runs deterministically in seed order regardless of
execution interleaving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Optional

from .baselines import Policy
from .runner import AV_ID, DecisionRecord, SimConfig, SimTrace, run_scenario
from .traffic import Lane, body_gap


#: TTC samples are capped here; uncapped samples from barely-closing pairs
#: would otherwise dominate every mean.
TTC_CAP = 10.0

#: Id of the platoon vehicle whose terminal speed probes downstream impact.
TERMINAL_PROBE_ID = "MV5"


@dataclass(frozen=True, slots=True)
class MetricsReport:
    mean_jerk: float
    max_jerk: float
    terminal_speed_mv5: float
    collided: bool
    mean_ttc: float
    ttc_undefined_dominant: bool  # no closing sample ever occurred
    seed: int

    def __post_init__(self) -> None:
        if self.mean_jerk > self.max_jerk + 1e-12:
            raise ValueError("mean jerk cannot exceed max jerk")
        for name in ("mean_jerk", "max_jerk", "terminal_speed_mv5", "mean_ttc"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"metric {name} is not finite")
        if not 0.0 < self.mean_ttc <= TTC_CAP:
            raise ValueError(f"mean_ttc outside (0, {TTC_CAP}]: {self.mean_ttc}")


def compute_metrics(trace: SimTrace) -> MetricsReport:
    """Metrics of one completed trace.

    Jerk pools first differences of recorded acceleration over all main-road
    vehicles.  TTC is sampled at every step from the lane change on, for
    every main-road vehicle behind the merging vehicle, whenever the
    follower is closing; samples are capped.  Traces shorter than two steps
    per vehicle cannot be differenced and are rejected.
    """
    mv_ids = [vid for vid in trace.s if vid != AV_ID]
    if not mv_ids:
        raise ValueError("trace contains no main-road vehicles")

    jerks: list[float] = []
    for vid in mv_ids:
        accel = trace.a[vid]
        if len(accel) < 2:
            raise ValueError(f"trace for {vid} has fewer than 2 steps; cannot difference")
        jerks.extend(abs(cur - prev) / trace.dt for prev, cur in zip(accel, accel[1:]))

    probe = TERMINAL_PROBE_ID if TERMINAL_PROBE_ID in trace.v else mv_ids[-1]
    terminal_speed = trace.v[probe][-1]

    ttc_samples: list[float] = []
    if trace.lane_change_time is not None:
        av_s, av_v = trace.s[AV_ID], trace.v[AV_ID]
        for vid in mv_ids:
            s, v = trace.s[vid], trace.v[vid]
            for k in range(trace.merge_step, len(trace.t)):
                closing = v[k] - av_v[k]
                gap = body_gap(s[k], av_s[k])  # positive only behind the merging vehicle
                if closing > 0.0 and gap > 0.0:
                    ttc_samples.append(min(gap / closing, TTC_CAP))

    undefined = not ttc_samples
    mean_ttc = TTC_CAP if undefined else sum(ttc_samples) / len(ttc_samples)

    return MetricsReport(
        mean_jerk=sum(jerks) / len(jerks),
        max_jerk=max(jerks),
        terminal_speed_mv5=terminal_speed,
        collided=bool(trace.collisions),
        mean_ttc=mean_ttc,
        ttc_undefined_dominant=undefined,
        seed=trace.seed,
    )


@dataclass(frozen=True, slots=True)
class BatchSummary:
    n_runs: int
    policy: Policy
    base_seed: int
    collision_rate: float  # percent of runs with a collision
    mean_jerk_mean: float
    mean_jerk_std: float
    max_jerk_mean: float
    max_jerk_std: float
    terminal_speed_mean: float
    terminal_speed_std: float
    mean_ttc_mean: float
    mean_ttc_std: float
    failures: tuple[tuple[int, str], ...]  # (seed, reason) of each failed run, in seed order
    reports: tuple[MetricsReport, ...]

    @property
    def failed_seeds(self) -> tuple[int, ...]:
        return tuple(seed for seed, _ in self.failures)


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def _one_run(args: tuple[SimConfig, int, Policy]) -> tuple[int, Optional[MetricsReport], Optional[str]]:
    cfg, seed, policy = args
    try:
        trace = run_scenario(replace(cfg, seed=seed), policy)
        return seed, compute_metrics(trace), None
    except ValueError as exc:  # a run's own checks failed: recorded, the batch goes on
        return seed, None, f"{type(exc).__name__}: {exc}"


def run_batch(
    cfg: SimConfig,
    n: int,
    base_seed: int,
    policy: Policy = Policy.EGT,
    jobs: int = 1,
) -> BatchSummary:
    """Run seeds base_seed..base_seed+n-1 and aggregate in seed order."""
    if n < 1:
        raise ValueError("batch needs at least one run")
    if jobs < 1:
        raise ValueError(f"batch needs at least one job, got {jobs}")
    tasks = [(cfg, base_seed + i, policy) for i in range(n)]
    if jobs > 1:
        # Imported here: it pulls in multiprocessing, which no serial run needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_one_run, tasks))
    else:
        raw = [_one_run(task) for task in tasks]
    raw.sort(key=lambda item: item[0])

    reports = [rep for _, rep, _ in raw if rep is not None]
    failures = tuple((seed, reason) for seed, rep, reason in raw if rep is None)
    if not reports:
        seed, reason = failures[0]
        raise RuntimeError(f"every run in the batch failed; seed {seed}: {reason}")

    collisions = sum(1 for r in reports if r.collided)
    mj = _mean_std([r.mean_jerk for r in reports])
    xj = _mean_std([r.max_jerk for r in reports])
    ts = _mean_std([r.terminal_speed_mv5 for r in reports])
    tt = _mean_std([r.mean_ttc for r in reports])
    return BatchSummary(
        n_runs=n,
        policy=policy,
        base_seed=base_seed,
        collision_rate=100.0 * collisions / len(reports),
        mean_jerk_mean=mj[0], mean_jerk_std=mj[1],
        max_jerk_mean=xj[0], max_jerk_std=xj[1],
        terminal_speed_mean=ts[0], terminal_speed_std=ts[1],
        mean_ttc_mean=tt[0], mean_ttc_std=tt[1],
        failures=failures,
        reports=tuple(reports),
    )


# --------------------------------------------------------------------------
# Serialization: 9 significant digits everywhere so repeated runs are
# byte-identical.


def fmt(x: float) -> str:
    return f"{x:.9g}"


TRACE_HEADER = "t,id,lane,s,v,a,decision,p_star,q_star,k_l,k_u,omega_hat"


def _decision_fields(d: DecisionRecord) -> str:
    return ",".join([
        f"{d.maneuver.value}[{d.opponent or ''}]",
        fmt(d.p_star) if d.p_star is not None else "",
        fmt(d.q_star) if d.q_star is not None else "",
        fmt(d.k_l) if d.k_l is not None else "",
        fmt(d.k_u) if d.k_u is not None else "",
        fmt(d.omega_hat) if d.omega_hat is not None else "",
    ])


_NO_DECISION = ",,,,,"


def trace_csv(trace: SimTrace) -> str:
    """Render one run as CSV; decision fields fill only the AV's decision rows.

    One step's rows share a %-format with each main-road vehicle's id and
    lane filled in, so every row is formatted once, column values feed it
    straight from the trace, and each step time is formatted once.  The
    merging vehicle reads ramp before its lane-change step, main from it on.
    """
    decisions = {d.t: _decision_fields(d) for d in trace.decisions}
    stamps = [fmt(t) for t in trace.t]
    merged = trace.merge_step
    step_format = ""
    columns: list = []
    for vid in trace.s:
        if vid == AV_ID:
            step_format += f"%s,{AV_ID},%s,%.9g,%.9g,%.9g,%s\n"
            lanes = [Lane.RAMP.value] * merged + [Lane.MAIN.value] * (len(stamps) - merged)
            columns += [stamps, lanes, trace.s[vid], trace.v[vid], trace.a[vid],
                        [decisions.get(t, _NO_DECISION) for t in trace.t]]
        else:
            step_format += f"%s,{vid.replace('%', '%%')},{Lane.MAIN.value},%.9g,%.9g,%.9g,{_NO_DECISION}\n"
            columns += [stamps, trace.s[vid], trace.v[vid], trace.a[vid]]
    body = step_format * len(trace.t) % tuple(chain.from_iterable(zip(*columns)))
    return f"{TRACE_HEADER}\n{body}"


def write_trace(trace: SimTrace, path: str | Path) -> None:
    Path(path).write_text(trace_csv(trace))


def run_report_text(report: MetricsReport, trace: SimTrace) -> str:
    lines = [
        f"seed={report.seed}",
        f"policy={trace.policy.value}",
        f"mean_jerk={fmt(report.mean_jerk)}",
        f"max_jerk={fmt(report.max_jerk)}",
        f"terminal_speed_mv5={fmt(report.terminal_speed_mv5)}",
        f"collided={'true' if report.collided else 'false'}",
        f"mean_ttc={fmt(report.mean_ttc)}",
        f"ttc_undefined_dominant={'true' if report.ttc_undefined_dominant else 'false'}",
        f"final_order={'>'.join(trace.final_order)}",
        f"av_front={trace.av_front or ''}",
        f"av_rear={trace.av_rear or ''}",
        f"lane_change_time={fmt(trace.lane_change_time) if trace.lane_change_time is not None else ''}",
    ]
    return "\n".join(lines) + "\n"


def batch_summary_text(summary: BatchSummary) -> str:
    lines = [
        f"n_runs={summary.n_runs}",
        f"policy={summary.policy.value}",
        f"base_seed={summary.base_seed}",
        f"collision_rate={fmt(summary.collision_rate)}",
        f"mean_jerk_mean={fmt(summary.mean_jerk_mean)}",
        f"mean_jerk_std={fmt(summary.mean_jerk_std)}",
        f"max_jerk_mean={fmt(summary.max_jerk_mean)}",
        f"max_jerk_std={fmt(summary.max_jerk_std)}",
        f"terminal_speed_mean={fmt(summary.terminal_speed_mean)}",
        f"terminal_speed_std={fmt(summary.terminal_speed_std)}",
        f"mean_ttc_mean={fmt(summary.mean_ttc_mean)}",
        f"mean_ttc_std={fmt(summary.mean_ttc_std)}",
        f"failed_seeds={','.join(str(s) for s in summary.failed_seeds)}",
    ]
    lines += [f"failure_{seed}={' '.join(reason.splitlines())}" for seed, reason in summary.failures]
    return "\n".join(lines) + "\n"
