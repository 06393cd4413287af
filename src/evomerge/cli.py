"""Command-line interface.

Subcommands:
  run       one seeded scenario; writes a run report and optionally the trace
  batch     seeded batch with deterministic seed-ordered aggregation
  estimate  style-estimation testbench against a synthetic truthful driver

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .baselines import Policy
from .config import ConfigError, load_scenario
from .metrics import (
    batch_summary_text,
    compute_metrics,
    fmt,
    run_batch,
    run_report_text,
    write_trace,
)
from .runner import run_estimation_bench, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evomerge",
        description="Game-theoretic on-ramp merging simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one seeded scenario")
    run_p.add_argument("--scenario", required=True, help="scenario file")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--policy", choices=[p.value for p in Policy], default="egt")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--trace", action="store_true", help="also write the per-step CSV trace")

    batch_p = sub.add_parser("batch", help="run a seeded batch")
    batch_p.add_argument("--scenario", required=True)
    batch_p.add_argument("--runs", type=int, required=True)
    batch_p.add_argument("--base-seed", type=int, default=0)
    batch_p.add_argument("--policy", choices=[p.value for p in Policy], default="egt")
    batch_p.add_argument("--out", required=True)
    batch_p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    est_p = sub.add_parser("estimate", help="style-estimation testbench")
    est_p.add_argument("--scenario", required=True)
    est_p.add_argument("--true-omega", type=float, required=True)
    est_p.add_argument("--seed", type=int, default=0,
                       help="accepted for symmetry with run; the bench reads no seeded draw")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = replace(load_scenario(args.scenario), seed=args.seed)
    policy = Policy(args.policy)
    trace = run_scenario(cfg, policy)
    report = compute_metrics(trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{policy.value}_seed{args.seed}"
    (out / f"run_{stem}.txt").write_text(run_report_text(report, trace))
    if args.trace:
        write_trace(trace, out / f"trace_{stem}.csv")
    sys.stdout.write(run_report_text(report, trace))
    return EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    for flag, count in (("--runs", args.runs), ("--jobs", args.jobs)):
        if count < 1:
            raise ConfigError(f"{flag} must be at least 1, got {count}")
    cfg = load_scenario(args.scenario)
    policy = Policy(args.policy)
    summary = run_batch(cfg, n=args.runs, base_seed=args.base_seed,
                        policy=policy, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = batch_summary_text(summary)
    (out / f"batch_{policy.value}.txt").write_text(text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario)
    result = run_estimation_bench(cfg, true_omega=args.true_omega, seed=args.seed)
    for r in result.rounds:
        sys.stdout.write(
            f"t={fmt(r.t)} k_l={fmt(r.k_l)} k_u={fmt(r.k_u)} omega_hat={fmt(r.omega_hat)}"
            f" predicted_q={fmt(r.predicted_q) if r.predicted_q is not None else 'none'}"
            f" accelerated={'true' if r.accelerated else 'false'}"
            f" updated={'true' if r.updated else 'false'}\n"
        )
    sys.stdout.write(
        f"true_omega={fmt(result.true_omega)} omega_hat={fmt(result.belief.omega_hat)}"
        f" error={fmt(result.error)} updates={result.n_updates}"
        f" contained={'true' if result.contained else 'false'}\n"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "batch": _cmd_batch, "estimate": _cmd_estimate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"runtime failure: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
