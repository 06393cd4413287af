from pathlib import Path

import pytest

from evomerge import SimConfig
from evomerge.baselines import Policy
from evomerge.metrics import (
    TTC_CAP,
    batch_summary_text,
    compute_metrics,
    run_batch,
    trace_csv,
)
from evomerge.runner import AvSpec, HeadwaySpec, SimTrace, VehicleSpec


def synthetic_trace(columns, dt=0.1, collisions=(), lane_change_time=None):
    """A trace from {vid: (s, v, a)} columns of one common length."""
    trace = SimTrace(seed=0, policy=Policy.EGT, dt=dt, duration=dt * 3,
                     lane_change_time=lane_change_time)
    n = len(next(iter(columns.values()))[0])
    trace.t = [round(k * dt, 9) for k in range(n)]
    for vid, (s, v, a) in columns.items():
        trace.s[vid], trace.v[vid], trace.a[vid] = s, v, a
    trace.collisions = list(collisions)
    return trace


def columns_for(vid, accels, s0=0.0, v=10.0, dt=0.1):
    n = len(accels)
    return {vid: ([s0 + k * v * dt for k in range(n)], [v] * n, list(accels))}


def test_constant_acceleration_means_zero_jerk():
    trace = synthetic_trace(columns_for("MV1", [0.7, 0.7, 0.7, 0.7]))
    report = compute_metrics(trace)
    assert report.mean_jerk == 0.0
    assert report.max_jerk == 0.0


def test_three_step_jerk_arithmetic():
    trace = synthetic_trace(columns_for("MV1", [0.0, 0.1, 0.3]))
    report = compute_metrics(trace)
    assert report.mean_jerk == pytest.approx(1.5)
    assert report.max_jerk == pytest.approx(2.0)


def test_ttc_ratio_definition():
    # follower 50 m of clear gap behind the merged vehicle, closing at 10 m/s
    n = 3
    av = ([1000.0] * n, [10.0] * n, [0.0] * n)
    mv = ([945.0] * n, [20.0] * n, [0.0] * n)
    trace = synthetic_trace({"AV": av, "MV1": mv}, lane_change_time=0.0)
    report = compute_metrics(trace)
    assert report.mean_ttc == pytest.approx(5.0)
    assert not report.ttc_undefined_dominant


def test_ttc_sampled_only_from_the_lane_change_on():
    # the follower closes at 10 m/s throughout; before the change (t < 0.2) its
    # 15 m gap would read TTC 1.5, after it the 50 m gap reads 5.0
    av = ([1000.0] * 4, [10.0] * 4, [0.0] * 4)
    mv = ([980.0, 980.0, 945.0, 945.0], [20.0] * 4, [0.0] * 4)
    trace = synthetic_trace({"AV": av, "MV1": mv}, lane_change_time=0.2)
    assert compute_metrics(trace).mean_ttc == pytest.approx(5.0)
    trace.lane_change_time = 0.0
    assert compute_metrics(trace).mean_ttc == pytest.approx(3.25)
    trace.lane_change_time = None
    assert compute_metrics(trace).ttc_undefined_dominant


def test_ttc_undefined_dominant_when_never_closing():
    trace = synthetic_trace(columns_for("MV1", [0.0, 0.0, 0.0]))
    report = compute_metrics(trace)
    assert report.ttc_undefined_dominant
    assert report.mean_ttc == TTC_CAP


def test_short_trace_rejected():
    trace = synthetic_trace(columns_for("MV1", [0.0]))
    with pytest.raises(ValueError):
        compute_metrics(trace)


def test_collision_flag_comes_from_trace():
    trace = synthetic_trace(columns_for("MV1", [0.0, 0.0]), collisions=[(0.1, "a", "b")])
    assert compute_metrics(trace).collided


def scenario_config():
    vehicles = (
        VehicleSpec("MV1", 173.2, 10.0, HeadwaySpec("fixed", 2.0)),
        VehicleSpec("MV2", 147.4, 10.0, HeadwaySpec("fixed", 2.0)),
        VehicleSpec("MV3", 121.6, 10.0, HeadwaySpec("normal", 1.0, 0.5)),
        VehicleSpec("MV4", 85.5, 10.0, HeadwaySpec("fixed", 1.0)),
        VehicleSpec("MV5", 70.0, 10.0, HeadwaySpec("fixed", 2.0)),
    )
    return SimConfig(vehicles=vehicles, av=AvSpec(100.0, 10.0, 0.5))


def test_batch_of_one_equals_single_report():
    cfg = scenario_config()
    summary = run_batch(cfg, n=1, base_seed=7)
    assert summary.n_runs == 1
    report = summary.reports[0]
    assert summary.mean_jerk_mean == report.mean_jerk
    assert summary.mean_jerk_std == 0.0
    assert summary.terminal_speed_std == 0.0


def test_batch_is_deterministic():
    cfg = scenario_config()
    a = batch_summary_text(run_batch(cfg, n=6, base_seed=0))
    b = batch_summary_text(run_batch(cfg, n=6, base_seed=0))
    assert a == b


def test_batch_parallel_matches_serial():
    cfg = scenario_config()
    serial = batch_summary_text(run_batch(cfg, n=6, base_seed=0, jobs=1))
    parallel = batch_summary_text(run_batch(cfg, n=6, base_seed=0, jobs=3))
    assert serial == parallel


def test_batch_aggregation_matches_arithmetic_means():
    cfg = scenario_config()
    summary = run_batch(cfg, n=8, base_seed=0)
    reports = summary.reports
    mean = sum(r.mean_jerk for r in reports) / len(reports)
    assert abs(summary.mean_jerk_mean - mean) <= 1e-12
    mean_ttc = sum(r.mean_ttc for r in reports) / len(reports)
    assert abs(summary.mean_ttc_mean - mean_ttc) <= 1e-12


def test_batch_requires_at_least_one_run():
    with pytest.raises(ValueError):
        run_batch(scenario_config(), n=0, base_seed=0)


@pytest.mark.parametrize("jobs", [0, -3])
def test_batch_requires_at_least_one_job(jobs):
    with pytest.raises(ValueError):
        run_batch(scenario_config(), n=1, base_seed=0, jobs=jobs)


@pytest.mark.parametrize("n, jobs, workers", [(2, 64, 2), (5, 3, 3)])
def test_batch_pool_has_no_more_workers_than_runs(monkeypatch, n, jobs, workers):
    import concurrent.futures

    started = []

    class InlinePool:
        """Records the worker count a pool would fork and runs the tasks in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    summary = run_batch(scenario_config(), n=n, base_seed=0, jobs=jobs)
    assert started == [workers]
    assert summary == run_batch(scenario_config(), n=n, base_seed=0)


def test_batch_records_failed_runs_without_crashing(monkeypatch):
    import evomerge.metrics as metrics_mod

    real = metrics_mod.run_scenario

    def flaky(cfg, policy):
        if cfg.seed == 2:
            raise ValueError("synthetic failure")
        return real(cfg, policy)

    monkeypatch.setattr(metrics_mod, "run_scenario", flaky)
    summary = run_batch(scenario_config(), n=4, base_seed=0)
    assert summary.failed_seeds == (2,)
    assert summary.failures == ((2, "ValueError: synthetic failure"),)
    assert len(summary.reports) + len(summary.failed_seeds) == summary.n_runs
    assert 0.0 <= summary.collision_rate <= 100.0
    lines = batch_summary_text(summary).splitlines()
    assert lines[-2:] == ["failed_seeds=2", "failure_2=ValueError: synthetic failure"]


def test_batch_failure_reasons_are_single_lines(monkeypatch):
    import evomerge.metrics as metrics_mod

    real = metrics_mod.run_scenario

    def flaky(cfg, policy):
        if cfg.seed == 1:
            raise ValueError("synthetic failure\nsecond line")
        return real(cfg, policy)

    monkeypatch.setattr(metrics_mod, "run_scenario", flaky)
    text = batch_summary_text(run_batch(scenario_config(), n=2, base_seed=0))
    assert text.splitlines()[-1] == "failure_1=ValueError: synthetic failure second line"


def test_all_failed_batch_names_the_first_reason(monkeypatch):
    import evomerge.metrics as metrics_mod

    def broken(cfg, policy):
        raise ValueError(f"synthetic failure at seed {cfg.seed}")

    monkeypatch.setattr(metrics_mod, "run_scenario", broken)
    with pytest.raises(RuntimeError, match="seed 3: ValueError: synthetic failure at seed 3"):
        run_batch(scenario_config(), n=2, base_seed=3)


def test_batch_lets_programming_errors_propagate(monkeypatch):
    import evomerge.metrics as metrics_mod

    real = metrics_mod.run_scenario

    def buggy(cfg, policy):
        if cfg.seed == 2:
            raise TypeError("synthetic bug")
        return real(cfg, policy)

    monkeypatch.setattr(metrics_mod, "run_scenario", buggy)
    with pytest.raises(TypeError, match="synthetic bug"):
        run_batch(scenario_config(), n=4, base_seed=0, jobs=1)


def test_trace_csv_shape():
    from evomerge.runner import run_scenario

    cfg = scenario_config()
    text = trace_csv(run_scenario(cfg))
    lines = text.splitlines()
    assert lines[0] == "t,id,lane,s,v,a,decision,p_star,q_star,k_l,k_u,omega_hat"
    assert len(lines) == 1 + cfg.n_steps * 6
    assert all(line.count(",") == 11 for line in lines)


def test_trace_csv_rows_from_columns():
    from evomerge.runner import DecisionRecord, ManeuverKind

    av = ([195.0, 196.25], [12.5, 12.5], [0.0, -0.5])
    mv = ([180.0, 181.0], [10.0, 10.0], [0.1, 0.2])
    trace = synthetic_trace({"AV": av, "MV1": mv}, lane_change_time=0.1)
    trace.decisions = [DecisionRecord(
        t=0.1, opponent="MV1", p_star=0.0, q_star=1.0, maneuver=ManeuverKind.MERGE_AHEAD,
        k_l=0.25, k_u=0.75,
    )]
    assert trace_csv(trace).splitlines() == [
        "t,id,lane,s,v,a,decision,p_star,q_star,k_l,k_u,omega_hat",
        "0,AV,ramp,195,12.5,0,,,,,,",
        "0,MV1,main,180,10,0.1,,,,,,",
        "0.1,AV,main,196.25,12.5,-0.5,merge_ahead[MV1],0,1,0.25,0.75,0.5",
        "0.1,MV1,main,181,10,0.2,,,,,,",
    ]


def test_trace_csv_lane_column_follows_lane_change_time():
    from dataclasses import replace

    from evomerge.config import load_scenario
    from evomerge.runner import run_scenario

    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    cfg = replace(load_scenario(scenarios / "scenario1.cfg"), seed=2, duration=60.0)
    trace = run_scenario(cfg)
    assert trace.lane_change_time is not None
    rows = [line.split(",") for line in trace_csv(trace).splitlines()[1:]]
    av_lanes = [(float(row[0]), row[2]) for row in rows if row[1] == "AV"]
    assert len(av_lanes) == cfg.n_steps
    assert all(lane == ("ramp" if t < trace.lane_change_time else "main") for t, lane in av_lanes)
    assert {lane for _, lane in av_lanes} == {"ramp", "main"}
    assert all(row[2] == "main" for row in rows if row[1] != "AV")
