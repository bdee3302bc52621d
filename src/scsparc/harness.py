"""Batch experiment driver: sweeps, trial seeding, aggregation, and output.

A config file (YAML or JSON) describes the code, the channel, and the
simulation settings. Either the snr_db list or the rate_bits list is the
sweep axis; each sweep point runs `trials` independent
encode -> channel -> decode pipelines with seeds derived deterministically
from the root seed, so reruns produce byte-identical CSV output.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .amp import AmpConfig, OfflineSeSource, OnlineSeSource, decode
from .channel import ebn0_db, snr_from_db, transmit
from .design import build_dft_design, build_gaussian_design
from .message import nmse, random_message, section_error_rate
from .params import LN2, CouplingParams, derive_code_params
from .state_evolution import SeTrajectory, run_se

__all__ = [
    "SCHEMA_VERSION",
    "CSV_COLUMNS",
    "ExperimentConfig",
    "TrialResult",
    "ResultRecord",
    "SeComparison",
    "run_trial",
    "run_experiment",
    "compare_to_se",
    "write_results_csv",
    "write_diagnostics_json",
]

SCHEMA_VERSION = "scsparc-results-v1"
CSV_COLUMNS = (
    "snr_db",
    "rate_bits",
    "trials",
    "ser_mean",
    "fer",
    "nmse_mean",
    "nmse_std",
    "iters_mean",
)
WORKERS_ENV = "SCSPARC_WORKERS"

# roles for per-trial seed derivation
_ROLE_MESSAGE, _ROLE_DESIGN, _ROLE_NOISE, _ROLE_SE = 0, 1, 2, 3

SE_MODES = ("online", "online_known_sigma", "offline")
OPERATORS = ("dense", "dft")
# the keys each config section accepts (sim's are ExperimentConfig field
# names); from_mapping rejects any other
_SECTION_KEYS = {
    "code": ("M", "L", "omega", "Lambda", "rho", "rate_bits"),
    "channel": ("snr_db", "field"),
    "sim": ("trials", "seed", "se_mode", "operator", "t_max", "mc_samples"),
}
_REQUIRED_CODE_KEYS = ("M", "L", "omega", "Lambda", "rate_bits")
# the integer settings and their least values; a float, bool or string is
# rejected at load rather than truncated or left to fail mid-sweep
_INT_MINIMA = dict(M=2, L=1, omega=1, Lambda=1, trials=1, seed=0, t_max=1, mc_samples=1)


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description. Every value is checked when the
    config is built, `coupling` (the CouplingParams of omega, Lambda and
    rho) included, so a bad value never stops a sweep part-way."""

    M: int
    L: int
    omega: int
    Lambda: int
    rho: float
    rate_bits: tuple  # sweep values
    snr_db: tuple  # sweep values
    field_kind: str = "real"
    trials: int = 10
    seed: int = 0
    se_mode: str = "online"
    operator: str = "dense"
    t_max: int = 200
    mc_samples: int = 10000

    def __post_init__(self):
        if not _finite_number(self.rho):
            raise ValueError(f"rho must be a finite number, got {self.rho!r}")
        object.__setattr__(self, "rho", float(self.rho))
        for key, least in _INT_MINIMA.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{key} must be >= {least}, got {value}")
        # not a field, so asdict (and diagnostics.json) leaves it out
        object.__setattr__(self, "coupling", CouplingParams(self.omega, self.Lambda, self.rho))
        if self.L % self.Lambda:
            raise ValueError(f"L ({self.L}) must be a multiple of Lambda ({self.Lambda})")
        if self.se_mode not in SE_MODES:
            raise ValueError(f"se_mode must be one of {SE_MODES}, got {self.se_mode!r}")
        if self.operator not in OPERATORS:
            raise ValueError(f"operator must be one of {OPERATORS}, got {self.operator!r}")
        if self.field_kind not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field_kind!r}")
        if not self.rate_bits or not all(_finite_number(r) and r > 0 for r in self.rate_bits):
            raise ValueError(f"rate_bits must list positive finite values, got {self.rate_bits}")
        if not self.snr_db or not all(_finite_number(s) for s in self.snr_db):
            raise ValueError(f"snr_db must list finite values, got {self.snr_db}")
        if len(self.rate_bits) > 1 and len(self.snr_db) > 1:
            raise ValueError("only one of rate_bits / snr_db may be a sweep list")

    @classmethod
    def from_mapping(cls, raw: dict, **overrides) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError("config must be a mapping of sections (is the file empty?)")
        for section, keys in raw.items():
            if section not in _SECTION_KEYS:
                raise ValueError(f"unknown config section {section!r}")
            if not isinstance(keys, dict):
                raise ValueError(f"config section {section!r} must be a mapping")
            unknown = sorted(set(keys) - set(_SECTION_KEYS[section]))
            if unknown:
                raise ValueError(f"unknown key(s) in config section {section!r}: {unknown}")
        code = dict(raw.get("code", {}))
        channel = dict(raw.get("channel", {}))
        sim = dict(raw.get("sim", {}))
        missing = [k for k in _REQUIRED_CODE_KEYS if k not in code]
        if missing:
            raise ValueError(f"config section 'code' is missing {missing}")
        if "snr_db" not in channel:
            raise ValueError("config section 'channel' needs snr_db")

        def listify(x):
            return tuple(x) if isinstance(x, (list, tuple)) else (x,)

        kwargs = dict(
            M=code["M"],
            L=code["L"],
            omega=code["omega"],
            Lambda=code["Lambda"],
            rho=code.get("rho", 0.0),
            rate_bits=listify(code["rate_bits"]),
            snr_db=listify(channel["snr_db"]),
            field_kind=str(channel.get("field", "real")),
        )
        kwargs.update(sim)
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path) as f:
            raw = yaml.safe_load(f)
        return cls.from_mapping(raw, **overrides)

    @property
    def sweep(self) -> list:
        """(snr_db, rate_bits) points in deterministic order."""
        if len(self.rate_bits) > 1:
            return [(self.snr_db[0], rb) for rb in self.rate_bits]
        return [(sd, self.rate_bits[0]) for sd in self.snr_db]

    def code_params(self, snr_db: float, rate_bits: float):
        sigma2 = 1.0 / snr_from_db(snr_db)
        need_even = self.field_kind == "complex" or self.operator == "dft"
        params = derive_code_params(
            rate_bits * LN2, self.M, self.coupling, self.L, sigma2, even=need_even
        )
        return params, params.base


def _trial_seed(root: int, point: int, trial: int, role: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=root, spawn_key=(point, trial, role))


@dataclass
class TrialResult:
    trial: int
    ser: float
    nmse: float
    iterations: int
    stop_reason: str
    diverged: bool
    nmse_per_block: np.ndarray | None = None


def run_trial(
    cfg: ExperimentConfig,
    point: int,
    trial: int,
    snr_db: float,
    rate_bits: float,
    se_traj: SeTrajectory | None = None,
    keep_progression: bool = False,
) -> TrialResult:
    """One encode -> channel -> decode pipeline, fully seed-determined."""
    params, W = cfg.code_params(snr_db, rate_bits)
    design_seed = _trial_seed(cfg.seed, point, trial, _ROLE_DESIGN)
    if cfg.operator == "dft":
        op = build_dft_design(params, W, design_seed)
    else:
        op = build_gaussian_design(params, W, design_seed, field=cfg.field_kind)

    beta = random_message(params.M, params.L, _trial_seed(cfg.seed, point, trial, _ROLE_MESSAGE))
    x = op.apply(beta)
    y = transmit(x, params.sigma2, _trial_seed(cfg.seed, point, trial, _ROLE_NOISE))

    if cfg.se_mode == "offline":
        if se_traj is None:
            raise ValueError("se_mode 'offline' needs a precomputed se_traj")
        se = OfflineSeSource(se_traj, W, params)
    else:
        se = OnlineSeSource(W, params, known_sigma=cfg.se_mode == "online_known_sigma")

    amp_cfg = AmpConfig(t_max=cfg.t_max)
    # decode computes the per-iteration NMSE only when it is kept
    decoded, diag = decode(op, y, se, amp_cfg, truth=beta if keep_progression else None)
    return TrialResult(
        trial=trial,
        ser=section_error_rate(decoded, beta, params.M),
        nmse=nmse(diag.beta_soft, beta, W.cols)[0],
        iterations=diag.iterations,
        stop_reason=diag.stop_reason,
        diverged=diag.diverged,
        nmse_per_block=diag.nmse_per_block,
    )


@dataclass
class ResultRecord:
    snr_db: float
    rate_bits: float
    trials: int
    ser_mean: float
    fer: float
    nmse_mean: float
    nmse_std: float
    iters_mean: float
    ber_proxy: float  # ser_mean * log2(M): section symbol errors per bit slot
    ebn0_db: float
    ebn0_convention: str
    diverged_count: int
    trial_results: list = field(default_factory=list, repr=False)
    se_traj: SeTrajectory | None = field(default=None, repr=False)


def _point_se_trajectory(cfg, snr_db, rate_bits) -> SeTrajectory:
    """The SE trajectory that offline decoding uses at one sweep point."""
    params, W = cfg.code_params(snr_db, rate_bits)
    seed = _trial_seed(cfg.seed, 0, 0, _ROLE_SE)
    return run_se(W, params, t_max=cfg.t_max, mc_samples=cfg.mc_samples, seed=seed)


def run_experiment(cfg: ExperimentConfig, keep_progression: bool = False) -> list:
    """Run all sweep points; returns one ResultRecord per point.

    Trial-level parallelism via a process pool when SCSPARC_WORKERS > 1;
    seed assignment is positional so results do not depend on scheduling.
    """
    raw = os.environ.get(WORKERS_ENV, "1")
    workers = int(raw) if raw.strip().isdecimal() else 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    records = []
    for point, (snr_db, rate_bits) in enumerate(cfg.sweep):
        se_traj = (
            _point_se_trajectory(cfg, snr_db, rate_bits)
            if cfg.se_mode == "offline"
            else None
        )
        args = [
            (cfg, point, t, snr_db, rate_bits, se_traj, keep_progression)
            for t in range(cfg.trials)
        ]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_trial_star, args))
        else:
            results = [_run_trial_star(a) for a in args]

        params, _ = cfg.code_params(snr_db, rate_bits)
        sers = np.array([r.ser for r in results])
        nmses = np.array([r.nmse for r in results])
        records.append(
            ResultRecord(
                snr_db=snr_db,
                rate_bits=rate_bits,
                trials=cfg.trials,
                ser_mean=float(sers.mean()),
                fer=float(np.mean(sers > 0)),
                nmse_mean=float(nmses.mean()),
                nmse_std=float(nmses.std()),
                iters_mean=float(np.mean([r.iterations for r in results])),
                ber_proxy=float(sers.mean() * math.log2(cfg.M)),
                ebn0_db=ebn0_db(params.R, params.snr),
                ebn0_convention="snr/(2*rate_bits)",
                diverged_count=int(sum(r.diverged for r in results)),
                trial_results=results,
                se_traj=se_traj,
            )
        )
    return records


def _run_trial_star(args):
    return run_trial(*args)


@dataclass
class SeComparison:
    deviations: np.ndarray  # (T, C) |empirical - predicted|
    max_deviation: float
    mean_deviation: float


def compare_to_se(nmse_per_block: np.ndarray, se_traj: SeTrajectory) -> SeComparison:
    """Absolute deviation of trial-averaged per-block NMSE from the
    state-evolution prediction, per (iteration, block)."""
    T, C = nmse_per_block.shape
    if C != se_traj.psi.shape[1]:
        raise ValueError("block counts do not match")
    T = min(T, se_traj.iterations)
    # psi[t+1] is the predicted NMSE of beta^{t+1}, i.e. after iteration t
    dev = np.abs(nmse_per_block[:T] - se_traj.psi[1 : T + 1])
    return SeComparison(dev, float(dev.max()), float(dev.mean()))


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def write_results_csv(records: list, out) -> None:
    """Fixed-schema CSV with a version header; byte-identical on reruns."""
    close = False
    if isinstance(out, (str, os.PathLike)):
        out = open(out, "w", newline="")
        close = True
    try:
        out.write(f"# {SCHEMA_VERSION}\n")
        out.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            row = (
                _fmt(r.snr_db),
                _fmt(r.rate_bits),
                str(r.trials),
                _fmt(r.ser_mean),
                _fmt(r.fer),
                _fmt(r.nmse_mean),
                _fmt(r.nmse_std),
                _fmt(r.iters_mean),
            )
            out.write(",".join(row) + "\n")
    finally:
        if close:
            out.close()


def write_diagnostics_json(cfg: ExperimentConfig, records: list, path: str) -> None:
    """Full per-trial diagnostics; schema versioned alongside the CSV."""
    doc = {
        "schema": SCHEMA_VERSION,
        "config": asdict(cfg),
        "points": [
            {
                "snr_db": r.snr_db,
                "rate_bits": r.rate_bits,
                "trials": r.trials,
                "ser_mean": r.ser_mean,
                "fer": r.fer,
                "ber_proxy": r.ber_proxy,
                "ber_proxy_note": "section error rate times log2(M); not a modulated BER",
                "nmse_mean": r.nmse_mean,
                "nmse_std": r.nmse_std,
                "iters_mean": r.iters_mean,
                "ebn0_db": r.ebn0_db,
                "ebn0_convention": r.ebn0_convention,
                "diverged_count": r.diverged_count,
                "trial_results": [
                    {
                        "trial": t.trial,
                        "ser": t.ser,
                        "nmse": t.nmse,
                        "iterations": t.iterations,
                        "stop_reason": t.stop_reason,
                        "diverged": t.diverged,
                    }
                    for t in r.trial_results
                ],
            }
            for r in records
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
