from pathlib import Path

import pytest

from evomerge.cli import main
from evomerge.config import ConfigError, load_scenario, parse_scenario
from evomerge.runner import MAX_STEPS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
[sim]
duration = 10.0

[av]
d = 100.0
v = 10.0

[vehicle]
id = MV1
lane = main
d = 120.0
v = 10.0
headway = fixed:2.0
"""


def test_shipped_scenario_parses():
    cfg = load_scenario(SCENARIOS / "scenario1.cfg")
    assert len(cfg.vehicles) == 5
    assert cfg.vehicles[2].vid == "MV3"
    assert cfg.vehicles[2].headway.kind == "normal"
    assert cfg.vehicles[2].headway.value == 1.0
    assert cfg.vehicles[2].headway.sigma == 0.5
    assert cfg.av.dist_to_merge == 100.0
    assert cfg.headway_t == 2.0


def test_minimal_scenario_with_defaults():
    cfg = parse_scenario(MINIMAL)
    assert cfg.duration == 10.0
    assert cfg.dt == 0.1
    assert cfg.decision_period == 1.0
    assert cfg.av.omega == 0.5  # no omega line: the AvSpec default
    assert cfg.vehicles[0].headway.kind == "fixed"


def test_every_sim_field_is_a_key():
    cfg = parse_scenario(MINIMAL.replace(
        "duration = 10.0", "duration = 10.0\ndt = 0.05\ndecision_period = 0.5\nheadway_t = 1.5"))
    assert (cfg.dt, cfg.decision_period, cfg.headway_t) == (0.05, 0.5, 1.5)


def test_av_must_start_before_the_ramp_end():
    assert parse_scenario(MINIMAL.replace("d = 100.0", "d = -60.0")).av.dist_to_merge == -60.0
    with pytest.raises(ConfigError, match="ramp ends"):
        parse_scenario(MINIMAL.replace("d = 100.0", "d = -60.5"))


def test_comments_and_blank_lines_ignored():
    cfg = parse_scenario("# top\n" + MINIMAL + "\n# tail comment\n")
    assert cfg.vehicles[0].vid == "MV1"


def test_unknown_key_rejected():
    # Former [sim] keys whose values are now code constants, and the seed,
    # which only the command line sets, are unknown keys too.
    for key in ("speed_limit", "flow_speed", "speed_slack", "reaction_deadband",
                "jerk_limit", "probe_accel", "probe_periods", "seed"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_scenario(MINIMAL.replace("duration = 10.0", f"duration = 10.0\n{key} = 3"))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_scenario(MINIMAL + "\n[pedestrian]\nd = 1\n")


def test_duplicate_key_rejected():
    bad = MINIMAL.replace("v = 10.0\nheadway", "v = 10.0\nv = 9.0\nheadway")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_scenario(bad)


def test_missing_vehicle_fields_rejected():
    with pytest.raises(ConfigError, match="missing key"):
        parse_scenario("[vehicle]\nid = MV1\nd = 10\nv = 10\n")


def test_bad_headway_rejected():
    with pytest.raises(ConfigError, match="headway"):
        parse_scenario(MINIMAL.replace("fixed:2.0", "gamma:2.0"))
    with pytest.raises(ConfigError, match="headway"):
        parse_scenario(MINIMAL.replace("fixed:2.0", "normal:2.0"))


def test_no_vehicles_rejected():
    with pytest.raises(ConfigError, match="no \\[vehicle\\]"):
        parse_scenario("[sim]\nduration = 10.0\n")


def test_key_before_section_rejected():
    with pytest.raises(ConfigError, match="before any section"):
        parse_scenario("duration = 10\n" + MINIMAL)


def test_ramp_vehicle_rejected():
    with pytest.raises(ConfigError, match="main-lane"):
        parse_scenario(MINIMAL.replace("lane = main", "lane = ramp"))


def test_invalid_sim_values_surface_as_config_errors():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL.replace("duration = 10.0", "duration = -1.0"))


def test_run_length_is_capped_at_config_time():
    with pytest.raises(ConfigError, match=f"at most {MAX_STEPS} steps"):
        parse_scenario(MINIMAL.replace("duration = 10.0", "duration = 1e9"))


@pytest.mark.parametrize("key", ["duration", "dt", "decision_period"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_times_are_config_errors(key, value):
    sim = "\n".join(f"{k} = {v}" for k, v in {"duration": "10.0", key: value}.items())
    with pytest.raises(ConfigError, match="positive and finite"):
        parse_scenario(MINIMAL.replace("duration = 10.0", sim))


def test_run_length_cap_admits_max_steps():
    cfg = parse_scenario(MINIMAL.replace("duration = 10.0", f"duration = {MAX_STEPS * 0.1}"))
    assert cfg.n_steps == MAX_STEPS


# -- CLI ----------------------------------------------------------------------


def test_cli_run_writes_report_and_trace(tmp_path):
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", str(SCENARIOS / "scenario1.cfg"),
        "--seed", "3", "--policy", "egt", "--out", str(out), "--trace",
    ])
    assert code == 0
    assert (out / "run_egt_seed3.txt").exists()
    trace_file = out / "trace_egt_seed3.csv"
    assert trace_file.exists()
    header = trace_file.read_text().splitlines()[0]
    assert header == "t,id,lane,s,v,a,decision,p_star,q_star,k_l,k_u,omega_hat"


def test_cli_batch_deterministic_files(tmp_path):
    args = [
        "batch", "--scenario", str(SCENARIOS / "scenario1.cfg"),
        "--runs", "4", "--base-seed", "0", "--policy", "nash",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "batch_nash.txt").read_bytes() == (out2 / "batch_nash.txt").read_bytes()


@pytest.mark.parametrize("flag, count", [("--runs", "0"), ("--jobs", "0"), ("--jobs", "-3")])
def test_cli_batch_rejects_counts_below_one(tmp_path, capsys, flag, count):
    args = {"--runs": "2", "--jobs": "1", flag: count}
    out = tmp_path / "o"
    code = main(["batch", "--scenario", str(SCENARIOS / "scenario1.cfg"), "--out", str(out),
                 *(item for pair in args.items() for item in pair)])
    assert code == 1
    assert f"config error: {flag} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_estimate_runs(capsys):
    code = main([
        "estimate", "--scenario", str(SCENARIOS / "estimation.cfg"),
        "--true-omega", "0.7", "--seed", "0",
    ])
    assert code == 0
    tail = capsys.readouterr().out.strip().splitlines()[-1]
    assert "true_omega=0.7" in tail
    assert "contained=true" in tail


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sim]\nnope = 1\n")
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("old, new", [
    pytest.param("headway = fixed:2.0", "headway = fixed:0", id="zero-headway"),
    pytest.param("headway = fixed:2.0", "headway = normal:1.0,-0.5", id="negative-sigma"),
    pytest.param("v = 10.0\n\n[vehicle]", "v = 10.0\nomega = 1.5\n\n[vehicle]", id="av-omega"),
    pytest.param("d = 120.0\nv = 10.0", "d = 120.0\nv = -1.0", id="negative-speed"),
    pytest.param("duration = 10.0", "duration = 0.1\ndt = 0.1\ndecision_period = 0.1", id="one-step"),
    pytest.param("duration = 10.0", "duration = 10.0\nheadway_t = 0", id="zero-headway-t"),
    pytest.param("duration = 10.0", "duration = 10.0\nheadway_t = -1", id="negative-headway-t"),
    pytest.param("duration = 10.0", "duration = 10.0\nheadway_t = nan", id="nan-headway-t"),
    # Keys whose values are now code constants: each exits 1 as an unknown key.
    pytest.param("duration = 10.0", "duration = 10.0\nflow_speed = 0", id="zero-flow-speed"),
    pytest.param("duration = 10.0", "duration = 10.0\nspeed_slack = -20", id="negative-speed-slack"),
    pytest.param("duration = 10.0", "duration = 10.0\njerk_limit = -1", id="negative-jerk-limit"),
    pytest.param("duration = 10.0", "duration = 10.0\njerk_limit = nan", id="nan-jerk-limit"),
    pytest.param("duration = 10.0", "duration = 10.0\nreaction_deadband = nan", id="nan-deadband"),
    pytest.param("duration = 10.0", "duration = 10.0\nreaction_deadband = -1", id="negative-deadband"),
    pytest.param("duration = 10.0", "duration = 10.0\nprobe_accel = nan", id="nan-probe-accel"),
    pytest.param("duration = 10.0", "duration = 10.0\nprobe_accel = 50", id="probe-beyond-authority"),
    pytest.param("duration = 10.0", "duration = 10.0\nprobe_periods = -1", id="negative-probe-periods"),
    pytest.param("duration = 10.0", "duration = 10.0\nseed = 5", id="seed-key"),
    pytest.param("d = 100.0", "d = nan", id="nan-av-d"),
    pytest.param("d = 100.0\nv = 10.0", "d = 100.0\nv = inf", id="inf-av-speed"),
    pytest.param("d = 120.0", "d = nan", id="nan-vehicle-d"),
    pytest.param("d = 120.0\nv = 10.0", "d = 120.0\nv = inf", id="inf-vehicle-speed"),
    pytest.param("headway = fixed:2.0", "headway = fixed:inf", id="inf-headway"),
    pytest.param("headway = fixed:2.0", "headway = normal:nan,0.5", id="nan-headway-mean"),
    # Ids that would break the trace CSV, the final order or the decision field.
    pytest.param("id = MV1", "id =", id="empty-id"),
    pytest.param("id = MV1", "id = MV,2", id="comma-id"),
    pytest.param("id = MV1", "id = MV>2", id="gt-id"),
    pytest.param("id = MV1", "id = MV[2", id="open-bracket-id"),
    pytest.param("id = MV1", "id = MV]2", id="close-bracket-id"),
    pytest.param("id = MV1", "id = MV 2", id="space-id"),
    pytest.param("id = MV1", "id = MV\t2", id="tab-id"),
])
def test_cli_bad_values_exit_at_config_time(tmp_path, capsys, old, new):
    assert MINIMAL.count(old) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL.replace(old, new))
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_runtime_error_exit_code(tmp_path):
    code = main([
        "estimate", "--scenario", str(SCENARIOS / "estimation.cfg"),
        "--true-omega", "1.5",
    ])
    assert code == 2
