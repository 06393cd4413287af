"""Pinned output digest: traces, run reports, a batch summary and a bench result.

Refactors that claim byte-identical outputs are checked here rather than by
hand.  The digest covers the trace CSV and run report of scenario1-3 under
every policy at one seed (10 s), three 60 s EGT runs (scenario1-3, seed 2)
that complete their lane change and sample TTC behind the AV, one 10 s
scenario3 Nash run (seed 30) in which a main-road vehicle drives through the
merged AV, one 30 s scenario3 Stackelberg run (seed 8) with two tail-slot
claims and two rejected lane changes, one serial batch summary and one
estimation-bench result.  A change that alters behaviour on purpose updates
``PINNED_SHA256`` and says why.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

from evomerge.baselines import Policy
from evomerge.config import load_scenario
from evomerge.metrics import batch_summary_text, compute_metrics, fmt, run_batch, run_report_text, trace_csv
from evomerge.runner import run_estimation_bench, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PINNED_SHA256 = "8a33b7c7b8f15a85102c4053c6b1c046935477b40e84672c7913aa10bf871b1b"


def _run_text(cfg, policy: Policy) -> str:
    trace = run_scenario(cfg, policy)
    return run_report_text(compute_metrics(trace), trace) + trace_csv(trace)


def pinned_outputs() -> list[str]:
    """Every output the digest covers, in a fixed order."""
    cfgs = [load_scenario(SCENARIOS / f"scenario{i}.cfg") for i in (1, 2, 3)]
    texts = [_run_text(replace(cfg, seed=7), policy) for cfg in cfgs for policy in Policy]
    texts += [_run_text(replace(cfg, seed=2, duration=60.0), Policy.EGT) for cfg in cfgs]
    texts.append(_run_text(replace(cfgs[2], seed=30), Policy.NASH))
    texts.append(_run_text(replace(cfgs[2], seed=8, duration=30.0), Policy.STACKELBERG))
    texts.append(batch_summary_text(run_batch(cfgs[0], 4, 0, Policy.EGT)))
    bench = run_estimation_bench(load_scenario(SCENARIOS / "estimation.cfg"), 0.37, seed=0)
    texts.append("".join(
        f"{fmt(r.t)},{fmt(r.k_l)},{fmt(r.k_u)},{fmt(r.omega_hat)},{r.predicted_q!r},"
        f"{r.accelerated},{r.updated}\n" for r in bench.rounds
    ) + f"{fmt(bench.belief.omega_hat)},{bench.n_updates},{bench.contained}\n")
    return texts


def test_outputs_match_pinned_digest():
    digest = hashlib.sha256()
    for text in pinned_outputs():
        digest.update(text.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == PINNED_SHA256
