"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evomerge import (
    PayoffMatrix,
    StrategyState,
    build_matrix,
    eigenvalues_at,
    integrate_replicator_batch,
    run_estimation_bench,
    run_scenario,
    solve_ess,
)
from evomerge.baselines import Policy
from evomerge.config import load_scenario
from evomerge.egt import PURE_POINTS
from evomerge.metrics import batch_summary_text, compute_metrics, run_batch, trace_csv
from evomerge.traffic import FREE_ROAD_GAP, IDMParams, VehicleState, idm_accel, step_kinematics
from evomerge.runner import Lane

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: stability classification vs trajectory oracle ---------------


def _sample_matrices(n: int, rng: np.random.Generator) -> list[PayoffMatrix]:
    """Uniform [-10, 10] entries; near-degenerate draws are resampled.

    The trajectory oracle runs 50 s at dt = 0.01, which resolves contraction
    and escape only for eigenvalue magnitudes of roughly 0.05 and up; draws
    with any pure-point eigenvalue inside that band (a sub-percent sliver of
    the space) are replaced, matching the solver's own treatment of
    near-zero eigenvalues as non-strict.
    """
    out: list[PayoffMatrix] = []
    while len(out) < n:
        m = PayoffMatrix(*rng.uniform(-10.0, 10.0, size=8))
        lams = [abs(x) for pt in PURE_POINTS for x in eigenvalues_at(m, pt)]
        if min(lams) >= 0.05:
            out.append(m)
    return out


def _perturbed_starts(point: StrategyState, rng: np.random.Generator, n: int = 100) -> np.ndarray:
    """n starts within radius 0.01 of the point, axis extremes included."""
    center = np.array([point.p, point.q])
    axes = center + np.array([[0.01, 0.0], [-0.01, 0.0], [0.0, 0.01], [0.0, -0.01]])
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n - 4)
    radii = 0.01 * np.sqrt(rng.uniform(0.0, 1.0, size=n - 4))
    disc = center + np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return np.clip(np.vstack([axes, disc]), 0.0, 1.0)


class _MegaBatch:
    """All point checks of all matrices, integrated as one flat RK4 batch.

    Row-wise payoff-gap coefficients reproduce the replicator field of each
    row's own matrix; the scheme and per-step clamp are identical to
    integrate_replicator_batch, and the test cross-checks that equivalence on a
    subsample before trusting the verdicts.
    """

    def __init__(self):
        self.rows_p: list[np.ndarray] = []
        self.rows_q: list[np.ndarray] = []
        self.coeff: list[tuple[float, float, float, float]] = []
        self.target: list[tuple[float, float]] = []
        self.point_id: list[np.ndarray] = []
        self.modes: list[str] = []  # per point: "attract" | "escape"
        self.cases: list[tuple[PayoffMatrix, np.ndarray, StrategyState]] = []

    def add(self, m: PayoffMatrix, point: StrategyState, starts: np.ndarray, mode: str) -> int:
        pid = len(self.modes)
        self.modes.append(mode)
        n = len(starts)
        self.rows_p.append(starts[:, 0])
        self.rows_q.append(starts[:, 1])
        du1, dud = m.u12 - m.u22, (m.u11 - m.u21) - (m.u12 - m.u22)
        dv1, dvd = m.v21 - m.v22, (m.v11 - m.v12) - (m.v21 - m.v22)
        self.coeff.append((du1, dud, dv1, dvd))
        self.target.append((point.p, point.q))
        self.point_id.append(np.full(n, pid, dtype=np.int64))
        if pid % 371 == 0:
            self.cases.append((m, starts.copy(), point))
        return pid

    def run(self, dt: float = 0.01, total_steps: int = 5000, chunk: int = 250) -> list[bool]:
        n_points = len(self.modes)
        confirmed = [False] * n_points
        attract = np.array([mode == "attract" for mode in self.modes])

        p = np.concatenate(self.rows_p)
        q = np.concatenate(self.rows_q)
        pid = np.concatenate(self.point_id)
        per_row = np.array(self.coeff)
        du1, dud, dv1, dvd = (per_row[pid, k] for k in range(4))
        tgt = np.array(self.target)
        tp, tq = tgt[pid, 0], tgt[pid, 1]

        def rhs(pp, qq):
            return pp * (1.0 - pp) * (du1 + qq * dud), qq * (1.0 - qq) * (dv1 + pp * dvd)

        done = 0
        while done < total_steps and len(p):
            for _ in range(chunk):
                k1p, k1q = rhs(p, q)
                k2p, k2q = rhs(p + 0.5 * dt * k1p, q + 0.5 * dt * k1q)
                k3p, k3q = rhs(p + 0.5 * dt * k2p, q + 0.5 * dt * k2q)
                k4p, k4q = rhs(p + dt * k3p, q + dt * k3q)
                p = np.clip(p + dt * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0, 0.0, 1.0)
                q = np.clip(q + dt * (k1q + 2 * k2q + 2 * k3q + k4q) / 6.0, 0.0, 1.0)
            done += chunk

            dist = np.maximum(np.abs(p - tp), np.abs(q - tq))
            final = done >= total_steps
            tol = 1e-3 if final else 1e-4
            far_counts = np.bincount(pid[dist > tol], minlength=n_points)
            esc_counts = np.bincount(pid[dist > 0.02], minlength=n_points)
            settled = np.zeros(n_points, dtype=bool)
            for point in range(n_points):
                if confirmed[point]:
                    continue
                if attract[point] and far_counts[point] == 0:
                    confirmed[point] = True
                    settled[point] = True
                elif not attract[point] and esc_counts[point] > 0:
                    confirmed[point] = True
                    settled[point] = True
            keep = ~settled[pid]
            p, q, pid = p[keep], q[keep], pid[keep]
            du1, dud, dv1, dvd = du1[keep], dud[keep], dv1[keep], dvd[keep]
            tp, tq = tp[keep], tq[keep]
        return confirmed

    def verify_scheme_equivalence(self) -> float:
        """Max deviation between this integrator and the library batch twin."""
        worst = 0.0
        for m, starts, _ in self.cases[:4]:
            single = _MegaBatch()
            single.add(m, StrategyState(0.0, 0.0), starts, "escape")
            p = np.concatenate(single.rows_p)
            q = np.concatenate(single.rows_q)
            du1, dud, dv1, dvd = single.coeff[0]
            dt = 0.01
            for _ in range(400):
                def rhs(pp, qq):
                    return (pp * (1.0 - pp) * (du1 + qq * dud),
                            qq * (1.0 - qq) * (dv1 + pp * dvd))
                k1p, k1q = rhs(p, q)
                k2p, k2q = rhs(p + 0.5 * dt * k1p, q + 0.5 * dt * k1q)
                k3p, k3q = rhs(p + 0.5 * dt * k2p, q + 0.5 * dt * k2q)
                k4p, k4q = rhs(p + dt * k3p, q + dt * k3q)
                p = np.clip(p + dt * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0, 0.0, 1.0)
                q = np.clip(q + dt * (k1q + 2 * k2q + 2 * k3q + k4q) / 6.0, 0.0, 1.0)
            reference = integrate_replicator_batch(m, starts, 0.01, 400)
            worst = max(worst, float(np.abs(np.stack([p, q], axis=1) - reference).max()))
        return worst


def test_criterion_1_ess_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(20260801)
    matrices = _sample_matrices(1000, rng)

    batch = _MegaBatch()
    expectations: list[str] = []
    for m in matrices:
        report = solve_ess(m)
        stable = set(report.stable_points)
        for point in PURE_POINTS:
            lam = eigenvalues_at(m, point)
            starts = _perturbed_starts(point, rng)
            if point in stable:
                batch.add(m, point, starts, "attract")
                expectations.append("attract")
            elif max(lam) > 1e-6:
                batch.add(m, point, starts, "escape")
                expectations.append("escape")

    scheme_err = batch.verify_scheme_equivalence()
    confirmed = batch.run()
    disagreements = confirmed.count(False)
    stable_checked = expectations.count("attract")
    unstable_checked = expectations.count("escape")
    elapsed = time.time() - started
    _report(
        "criterion 1 (stability vs trajectories)",
        disagreements == 0 and scheme_err < 1e-9 and elapsed < 60.0,
        f"{len(matrices)} matrices, {stable_checked} attractors and "
        f"{unstable_checked} escapes checked, {disagreements} disagreements, "
        f"integrator twin deviation {scheme_err:.1e}, {elapsed:.1f}s (< 60s)",
    )


# -- criterion 2: worked-matrix regression ------------------------------------


def test_criterion_2_worked_matrix_regression(worked_ctx):
    from evomerge import AvMove, MvMove, StrategyPair, cell_costs

    cells = {
        (AvMove.MERGE, MvMove.YIELD): (4.000, 5.000),
        (AvMove.YIELD, MvMove.ACCELERATE): (6.154, 5.469),
        (AvMove.MERGE, MvMove.ACCELERATE): (6.222, 7.691),
    }
    ok = True
    details = []
    for (av, mv), (j_av, j_mv) in cells.items():
        got = cell_costs(worked_ctx, StrategyPair(av, mv))
        ok &= abs(got.j_av - j_av) <= 1e-3 and abs(got.j_mv - j_mv) <= 1e-3
        details.append(f"({got.j_av:.3f},{got.j_mv:.3f})")

    report = solve_ess(build_matrix(worked_ctx))
    lam = eigenvalues_at(build_matrix(worked_ctx), StrategyState(0.0, 1.0))
    ok &= report.ess == StrategyState(0.0, 1.0)
    ok &= abs(lam[0] - (-2.710)) <= 1e-3 and abs(lam[1] - (-2.691)) <= 1e-3
    _report(
        "criterion 2 (worked-matrix regression)",
        ok,
        f"cells {' '.join(details)}, ess=({report.ess.p:.0f},{report.ess.q:.0f}), "
        f"eigenvalues ({lam[0]:.4f}, {lam[1]:.4f})",
    )


# -- criterion 3: style-estimation convergence ---------------------------------


def test_criterion_3_style_estimation_convergence():
    started = time.time()
    cfg = load_scenario(SCENARIOS / "estimation.cfg")
    worst_err = 0.0
    worst_updates = 0
    contained = True
    for w10 in range(1, 10):
        result = run_estimation_bench(cfg, true_omega=w10 / 10, seed=0)
        worst_err = max(worst_err, result.error)
        worst_updates = max(worst_updates, result.n_updates)
        contained &= result.contained
    elapsed = time.time() - started
    _report(
        "criterion 3 (style-estimation convergence)",
        worst_err <= 0.05 and worst_updates <= 10 and contained and elapsed < 5.0,
        f"worst error {worst_err:.4f} (<= 0.05), worst updates {worst_updates} (<= 10), "
        f"containment {'held' if contained else 'violated'}, {elapsed:.2f}s (< 5s)",
    )


# -- criterion 4: scenario qualitative reproduction ----------------------------


def _sweep(path: Path, predicate, seeds: int = 50) -> float:
    cfg = load_scenario(path)
    hits = 0
    for seed in range(seeds):
        trace = run_scenario(replace(cfg, seed=seed))
        hits += bool(predicate(trace))
    return hits / seeds


def test_criterion_4_scenario_outcomes():
    rate1 = _sweep(SCENARIOS / "scenario1.cfg", lambda t: t.av_rear == "MV2")
    rate2 = _sweep(SCENARIOS / "scenario2.cfg", lambda t: t.av_rear == "MV3")

    def rear_portion(trace):
        order = list(trace.final_order)
        return order.index("AV") > order.index("MV3")

    rate3 = _sweep(SCENARIOS / "scenario3.cfg", rear_portion)
    ok = rate1 >= 0.6 and rate2 >= 0.6 and rate3 >= 0.6
    _report(
        "criterion 4 (scenario outcomes, 50 seeds each)",
        ok,
        f"setting I ahead-of-MV2 {rate1:.0%}, setting II ahead-of-MV3 {rate2:.0%}, "
        f"setting III rear-portion {rate3:.0%} (each >= 60%)",
    )


# -- criteria 5 and 6: safety and metric bands on the 100-run batch ------------


@pytest.fixture(scope="module")
def scenario1_batch():
    cfg = load_scenario(SCENARIOS / "scenario1.cfg")
    started = time.time()
    summary = run_batch(cfg, n=100, base_seed=0, policy=Policy.EGT)
    return summary, time.time() - started


def test_criterion_5_collision_free_batch(scenario1_batch):
    summary, elapsed = scenario1_batch
    ok = summary.collision_rate == 0.0 and not summary.failed_seeds and elapsed < 120.0
    _report(
        "criterion 5 (100-run safety)",
        ok,
        f"collision rate {summary.collision_rate:.1f}% (= 0), "
        f"{len(summary.failed_seeds)} failed runs, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_6_metric_bands(scenario1_batch):
    summary, _ = scenario1_batch
    max_jerk = max(r.max_jerk for r in summary.reports)
    ok = (
        summary.mean_jerk_mean <= 0.5
        and max_jerk <= 1.5
        and summary.terminal_speed_mean >= 8.0
        and summary.mean_ttc_mean >= 4.0
    )
    _report(
        "criterion 6 (metric sanity bands)",
        ok,
        f"mean jerk {summary.mean_jerk_mean:.3f} (<= 0.5), max jerk {max_jerk:.3f} (<= 1.5), "
        f"terminal speed {summary.terminal_speed_mean:.2f} (>= 8.0), "
        f"mean TTC {summary.mean_ttc_mean:.2f} (>= 4.0)",
    )


# -- criterion 7: kinematics and car-following exactness -----------------------


def test_criterion_7_kinematics_exactness():
    dt, n, u = 0.1, 100, 0.73
    state = VehicleState(vid="x", lane=Lane.MAIN, s=12.5, v=8.0)
    for _ in range(n):
        state = step_kinematics(state, u, dt)
    v_exact = 8.0 + n * dt * u
    s_exact = 12.5 + n * dt * 8.0 + dt * dt * u * (n * (n - 1) / 2)
    kin_ok = abs(state.v - v_exact) <= 1e-9 and abs(state.s - s_exact) <= 1e-9

    p = IDMParams(v0=15.0, T=1.5, a_max=1.5, b=2.0, s0=2.0, delta=4.0)
    v = 10.0
    gap = (p.s0 + v * p.T) / (1.0 - (v / p.v0) ** p.delta) ** 0.5
    residual = abs(idm_accel(p, v, gap, 0.0))
    _report(
        "criterion 7 (kinematics exactness)",
        kin_ok and residual < 1e-6,
        f"closed-form error s {abs(state.s - s_exact):.2e}, v {abs(state.v - v_exact):.2e} "
        f"(<= 1e-9); car-following equilibrium residual {residual:.2e} (< 1e-6)",
    )


# -- criterion 8: byte-identical determinism -----------------------------------


def test_criterion_8_determinism():
    cfg = replace(load_scenario(SCENARIOS / "scenario1.cfg"), seed=11)
    csv_a = trace_csv(run_scenario(cfg))
    csv_b = trace_csv(run_scenario(cfg))
    batch_cfg = load_scenario(SCENARIOS / "scenario1.cfg")
    text_serial = batch_summary_text(run_batch(batch_cfg, n=8, base_seed=0, jobs=1))
    text_parallel = batch_summary_text(run_batch(batch_cfg, n=8, base_seed=0, jobs=4))
    ok = csv_a == csv_b and text_serial == text_parallel
    _report(
        "criterion 8 (byte-identical determinism)",
        ok,
        f"trace repeat identical: {csv_a == csv_b}; "
        f"batch serial vs 4-way parallel identical: {text_serial == text_parallel}",
    )
