"""Shared fixtures and the independent scalar oracle.

The oracle transcribes the cost formulas directly, without
touching the package's implementation, so the worked-context tests check
the real code path against an independent derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from evomerge import AgentView, GameContext

T_FLOOR = 0.5


@dataclass(frozen=True)
class OracleCell:
    j_av: float
    j_mv: float
    t_av: float
    t_mv: float
    a_av: float
    a_mv: float


def oracle_arrival(d_opp: float, v_opp: float, headway: float, yields: bool) -> float:
    t = d_opp / v_opp + (headway if yields else -headway)
    if not yields and t <= T_FLOOR:
        return T_FLOOR
    return t


def oracle_cell(
    d_av: float, v_av: float, d_mv: float, v_mv: float,
    headway: float, w_av: float, w_mv: float,
    av_yields: bool, mv_yields: bool,
) -> OracleCell:
    conflict = 1.0 if av_yields == mv_yields else 0.0
    t_av = oracle_arrival(d_mv, v_mv, headway, av_yields)
    t_mv = oracle_arrival(d_av, v_av, headway, mv_yields)
    a_av = 2.0 * (d_av - v_av * t_av) / t_av**2
    a_mv = 2.0 * (d_mv - v_mv * t_mv) / t_mv**2
    safety = abs(a_av + a_mv)
    return OracleCell(
        j_av=w_av * t_av + (1 - w_av) * a_av**2 + conflict * safety,
        j_mv=w_mv * t_mv + (1 - w_mv) * a_mv**2 + conflict * safety,
        t_av=t_av, t_mv=t_mv, a_av=a_av, a_mv=a_mv,
    )


WORKED = dict(d_av=80.0, v_av=10.0, d_mv=100.0, v_mv=10.0, headway=2.0, w_av=0.5, w_mv=0.5)


@pytest.fixture
def worked_ctx() -> GameContext:
    return GameContext(
        av=AgentView(WORKED["d_av"], WORKED["v_av"]),
        mv=AgentView(WORKED["d_mv"], WORKED["v_mv"]),
        av_omega=WORKED["w_av"],
        mv_omega=WORKED["w_mv"],
        headway_t=WORKED["headway"],
    )


def assert_close(actual: float, expected: float, tol: float = 1e-3) -> None:
    assert math.isfinite(actual)
    assert abs(actual - expected) <= tol, f"{actual} != {expected} +- {tol}"
