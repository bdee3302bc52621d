"""Command-line entry points.

scsparc simulate   --config cfg.yaml --out results/ [--trials N] [--seed S]
                   [--se-mode ...] [--operator dense|dft] [--field real|complex]
scsparc se         --config cfg.yaml [--out results/]
scsparc progression --config cfg.yaml
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .harness import (
    ExperimentConfig,
    _point_se_trajectory,
    run_experiment,
    write_diagnostics_json,
    write_results_csv,
)
from .state_evolution import progression_report

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scsparc",
        description="Simulator for spatially coupled sparse superposition codes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a batch experiment")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--se-mode", choices=["online", "online_known_sigma", "offline"])
    sim.add_argument("--operator", choices=["dense", "dft"])
    sim.add_argument("--field", choices=["real", "complex"])

    se = sub.add_parser("se", help="emit state-evolution trajectories only")
    se.add_argument("--config", required=True)
    se.add_argument("--out", help="output directory (default: stdout)")

    prog = sub.add_parser("progression", help="analytic decoding-progression report")
    prog.add_argument("--config", required=True)
    return p


def _load_config(args) -> ExperimentConfig:
    overrides = dict(
        trials=getattr(args, "trials", None),
        seed=getattr(args, "seed", None),
        se_mode=getattr(args, "se_mode", None),
        operator=getattr(args, "operator", None),
        field_kind=getattr(args, "field", None),
    )
    return ExperimentConfig.from_file(args.config, **overrides)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    records = run_experiment(cfg)
    csv_path = os.path.join(args.out, "results.csv")
    json_path = os.path.join(args.out, "diagnostics.json")
    write_results_csv(records, csv_path)
    write_diagnostics_json(cfg, records, json_path)
    for r in records:
        print(
            f"snr_db={r.snr_db:g} rate_bits={r.rate_bits:g} "
            f"ser={r.ser_mean:.3g} fer={r.fer:.3g} nmse={r.nmse_mean:.3g} "
            f"iters={r.iters_mean:.1f} diverged={r.diverged_count}"
        )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _se_csv_lines(traj, params):
    nu = 1.0 / (traj.tau * math.log(params.M))
    sigma = traj.phi - params.sigma2
    cols = ["t,c,psi,tau,nu"]
    T = traj.iterations
    for t in range(T):
        for c in range(traj.psi.shape[1]):
            cols.append(
                f"{t},{c},{traj.psi[t + 1, c]:.10g},"
                f"{traj.tau[t, c]:.10g},{nu[t, c]:.10g}"
            )
    rows = ["t,r,phi,sigma"]
    for t in range(T):
        for r in range(traj.phi.shape[1]):
            rows.append(f"{t},{r},{traj.phi[t, r]:.10g},{sigma[t, r]:.10g}")
    return cols, rows


def _first_point(args):
    """The config and its first sweep point, with a warning on stderr
    when the sweep has more points than the command reports."""
    cfg = ExperimentConfig.from_file(args.config)
    if len(cfg.sweep) > 1:
        print(
            f"scsparc {args.command}: the sweep has {len(cfg.sweep)} points; "
            "only point 0 is emitted",
            file=sys.stderr,
        )
    return cfg, cfg.sweep[0]


def _cmd_se(args) -> int:
    cfg, point = _first_point(args)
    traj = _point_se_trajectory(cfg, *point)
    params, _ = cfg.code_params(*point)
    cols, rows = _se_csv_lines(traj, params)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, lines in (("se_columns.csv", cols), ("se_rows.csv", rows)):
            with open(os.path.join(args.out, name), "w") as f:
                f.write("\n".join(lines) + "\n")
        print(f"wrote SE trajectories ({traj.iterations} iterations) to {args.out}")
    else:
        print("\n".join(cols))
        print()
        print("\n".join(rows))
    return 0


def _cmd_progression(args) -> int:
    cfg, point = _first_point(args)
    params, _ = cfg.code_params(*point)
    report = progression_report(
        R=params.R, snr=params.snr, omega=cfg.omega, Lambda=cfg.Lambda, M=cfg.M
    )
    doc = dataclasses.asdict(report)
    doc = {k: (v if not isinstance(v, float) or math.isfinite(v) else str(v)) for k, v in doc.items()}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "se": _cmd_se,
        "progression": _cmd_progression,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
