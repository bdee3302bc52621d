"""Closed-loop benchmark of the scsparc simulator.

One process runs one workload: batches of simulation, each started after
the previous one ended, until --seconds have passed (at least one batch).
A batch is one `run_experiment` call and, on dense_gaussian, a few
compressed-sensing (CS) trials with their state evolution. The benchmark
times calls into the package's public functions from this directory and
never edits the package. Every operation (SPARC trial, SE run, CS trial)
is checked for correctness outside the timed regions.

    python3 bench/run.py --workload offline_sweep --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1).
`--workload all` runs every workload untraced and traced, each in a fresh
process, and prints all metrics with the tracing overhead. Full reports
and spans go to .bench_out/. See bench/README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One process, one BLAS thread and no trial pool: nothing waits on
# anything else, so the benchmark records no wait time. Set before numpy
# loads; recorded in the manifest.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in THREAD_ENV:
    os.environ[_var] = BLAS_THREADS
os.environ["SCSPARC_WORKERS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "scsparc" / "__init__.py").is_file():
    sys.exit(f"bench: no scsparc package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import scsparc  # noqa: E402
from scsparc import amp, cs_amp, design, harness, state_evolution  # noqa: E402
from spans import Tracer  # noqa: E402

SNR_DB = 11.7609125906  # P/sigma2 = 15, as in configs/experiment.yaml
LLC_BYTES = 300 * 1024**2  # last-level cache of the 2-core host the bounds were set on
CHECK_TOL = dict(adjoint=1e-9, psi=1e-12, cs_mse=0.05)

# Full sizes. The mapping under "sparc" is an ExperimentConfig mapping;
# "cs" is the acceptance-criterion-9 problem. Why each was chosen, and how
# it was trimmed to fit a run, is in bench/README.md.
WORKLOADS = {
    "offline_sweep": {
        "sparc": {
            "code": {"M": 128, "L": 1024, "omega": 6, "Lambda": 32, "rho": 0.0,
                     "rate_bits": [1.0, 1.5]},
            "channel": {"snr_db": SNR_DB, "field": "complex"},
            "sim": {"trials": 1, "se_mode": "offline", "operator": "dft", "t_max": 40,
                    "mc_samples": 1000},
        },
    },
    "dense_gaussian": {
        "sparc": {
            "code": {"M": 64, "L": 512, "omega": 6, "Lambda": 32, "rho": 0.0, "rate_bits": 1.0},
            "channel": {"snr_db": SNR_DB, "field": "real"},
            "sim": {"trials": 2, "se_mode": "online", "operator": "dense"},
        },
        "cs": {"eps": 0.1, "v": 1.0, "delta": 0.3, "sigma2": 1e-3, "omega": 3, "Lambda": 8,
               "rho": 0.25, "p": 10_000, "t_max": 15, "trials": 2},
    },
}

# Tiny sizes of the same workloads: the warm-up batch and the smoke test.
TINY = {
    "offline_sweep": {"code": {"M": 16, "L": 64, "omega": 2, "Lambda": 4, "rate_bits": [0.8, 1.0]},
                      "sim": {"t_max": 20, "mc_samples": 200}},
    "dense_gaussian": {"code": {"M": 16, "L": 64, "omega": 2, "Lambda": 4},
                       "sim": {"trials": 1}},
}
TINY_CS = {"p": 800, "t_max": 10, "trials": 1}

END_TO_END_UNITS = {
    "trial_s": "s", "iter_s": "s", "setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB",
}
# Printed and saved, but not in BENCHMARK.json: each exists on only some
# workloads or can be exactly 0, and BENCHMARK.json gates only metrics
# that every workload emits and that are never 0. README.md explains.
EXTRA_UNITS = {
    "se_s": "s", "cs_trial_s": "s", "ser_mean": "ratio", "cs_mse": "1", "fail_frac": "ratio",
}
PER_LAYER_UNITS = {
    "design.build_s": "s", "design.apply_s": "s", "design.apply_calls": "count",
    "design.adjoint_s": "s", "design.adjoint_calls": "count", "design.busy_s": "s",
    "design.blocks": "count", "design.bytes_per_product": "B", "design.trial_share": "ratio",
    "amp.iterations": "count", "amp.iterate_s": "s", "amp.self_s": "s", "amp.denoise_s": "s",
    "amp.se_update_s": "s", "amp.diverged": "count", "amp.clamped": "count",
    "message.encode_s": "s", "message.nmse_s": "s", "channel.transmit_s": "s",
    "se.sample_s": "s", "se.steps": "count", "se.step_s": "s", "se.expectation_calls": "count",
    "se.expectation_s": "s", "se.busy_s": "s", "se.sweep_share": "ratio",
    "harness.self_s": "s", "harness.trials": "count",
    "cs_amp.design_s": "s", "cs_amp.decode_s": "s", "cs_amp.iter_s": "s", "cs_amp.se_s": "s",
    "cs_amp.denoise_calls": "count", "cs_amp.denoise_s": "s",
    "trace.trial_s": "s", "trace.spans": "count", "trace.span_cost_s": "s",
    "trace.overhead": "ratio",
}


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, val in over.items():
        out[key] = _merge(base[key], val) if isinstance(val, dict) else val
    return out


def workload_spec(name: str, tiny: bool = False) -> dict:
    spec = WORKLOADS[name]
    if not tiny:
        return spec
    out = {"sparc": _merge(spec["sparc"], TINY[name])}
    if "cs" in spec:
        out["cs"] = _merge(spec["cs"], TINY_CS)
    return out


def _stream(*key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(k) for k in key])


def _median(xs):
    return statistics.median(xs) if xs else None


def _by_batch(items, span=lambda it: it) -> list[list]:
    """Items grouped by the run_experiment call their span ran in."""
    out: dict = {}
    for it in items:
        out.setdefault(span(it).parent, []).append(it)
    return list(out.values())


def design_bytes(dense: bool, field: str, n_rows: int, n_cols: int, W) -> int:
    """Computed (not measured) bytes of a design operator's arrays.

    Dense: the matrix. Fast (DFT): per nonzero block a column permutation
    (int64) and phases (complex128) of cols_per_block entries, and a row
    subset (int64) of rows_per_block entries.
    """
    if dense:
        return n_rows * n_cols * (8 if field == "real" else 16)
    nnz = int(np.count_nonzero(W.entries))
    return nnz * (24 * (n_cols // W.cols) + 8 * (n_rows // W.rows))


def bytes_per_product(op) -> int:
    """Computed bytes one product reads and writes: the operator's arrays
    plus the input and output vectors, each touched once (a lower bound
    that ignores temporaries and cache misses)."""
    item = 8 if op.field == "real" else 16
    dense = op.kind == "dense_gaussian"
    return design_bytes(dense, op.field, op.n_rows, op.n_cols, op.W) + item * (op.n_rows + op.n_cols)


def adjoint_gap(op, rng) -> float:
    """|<Ax, z> - <x, A*z>| / (|Ax| |z|) for random x, z."""
    def draw(n):
        v = rng.standard_normal(n)
        return v + 1j * rng.standard_normal(n) if op.field == "complex" else v

    x, z = draw(op.n_cols), draw(op.n_rows)
    ax = op.apply(x)
    ahz = op.apply_scaled_adjoint(np.ones((op.W.rows, op.W.cols)), z)
    return float(abs(np.vdot(z, ax) - np.vdot(ahz, x)) / (np.linalg.norm(ax) * np.linalg.norm(z)))


def se_problem(psi: np.ndarray) -> str | None:
    if not np.all(np.isfinite(psi)):
        return "SE psi not finite"
    if np.any((psi < 0) | (psi > 1)):
        return "SE psi outside [0, 1]"
    if np.any(np.diff(psi, axis=0) > CHECK_TOL["psi"]):
        return "SE psi increased"
    return None


def trial_problem(op, diag, result, rng) -> str | None:
    """Why a SPARC trial's outputs are wrong, or None."""
    if diag.diverged:
        return f"decode diverged ({diag.stop_reason})"
    if not np.all(np.isfinite(diag.beta_soft)):
        return "decode estimate not finite"
    if not (math.isfinite(result.ser) and math.isfinite(result.nmse)):
        return "SER or NMSE not finite"
    # a wrong section keeps at most half its mass on the true entry
    if result.ser > 4.0 * result.nmse + 1e-12:
        return f"SER {result.ser:.4g} > 4 NMSE {result.nmse:.4g}"
    gap = adjoint_gap(op, rng)
    if not gap <= CHECK_TOL["adjoint"]:
        return f"adjoint identity gap {gap:.3g}"
    return None


class Run:
    """One workload run: probes, batches, correctness ledger and metrics."""

    def __init__(self, name: str, seed: int, trace: bool, tiny: bool = False):
        self.name = name
        self.seed = seed
        self.trace = trace
        self.spec = workload_spec(name, tiny)
        self.tracer = Tracer()
        self.batches = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sers: list[float] = []
        self.cs_mses: list[float] = []
        self._check_rng = np.random.default_rng(_stream(seed, 4))
        self._decoded = None  # (operator, diagnostics) of the trial in flight

    # -- ledger --------------------------------------------------------
    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{what}: {problem}")

    # -- probes --------------------------------------------------------
    def install(self) -> None:
        """Patch the package for this run; `Tracer.restore` undoes it.

        Untraced runs time only the trial, decode and SE boundaries, a few
        microseconds per trial. Traced runs wrap every public call below.
        """
        t = self.tracer
        t.patch(harness, "run_trial", "harness.run_trial", new_op=True, after=self._after_trial)
        t.patch(harness, "decode", "amp.decode", after=self._after_decode)
        t.patch(harness, "run_se", "se.run_se", new_op=True, after=self._after_se)
        if not self.trace:
            return
        t.patch(harness, "build_dft_design", "design.build")
        t.patch(harness, "build_gaussian_design", "design.build")
        for cls in (design.DftDesign, design.DenseGaussianDesign):
            t.patch(cls, "apply", "design.apply")
            t.patch(cls, "apply_scaled_adjoint", "design.adjoint")
        t.patch(harness, "random_message", "message.encode")
        t.patch(amp, "nmse", "message.nmse")
        t.patch(harness, "transmit", "channel.transmit")
        t.patch(amp, "amp_iterate", "amp.iterate", after=self._after_iterate)
        t.patch(amp, "eta_denoise", "amp.denoise")
        for cls in (amp.OnlineSeSource, amp.OfflineSeSource):
            t.patch(cls, "values", "amp.se_update")
        t.patch(state_evolution.SectionExpectation, "__init__", "se.sample")
        t.patch(state_evolution.SectionExpectation, "__call__", "se.expectation")
        t.patch(state_evolution, "se_step", "se.step")
        t.patch(cs_amp.BgBayesDenoiser, "__call__", "cs_amp.denoise")

    def _after_decode(self, sp, args, result):
        op, (_, diag) = args[0], result
        sp.info = {"iterations": diag.iterations, "diverged": bool(diag.diverged)}
        self._decoded = (op, diag)

    def _after_trial(self, sp, args, result):
        op, diag = self._decoded
        self._decoded = None
        with self.tracer.excluded():
            sp.info = {"blocks": int(np.count_nonzero(op.W.entries)),
                       "bytes_per_product": bytes_per_product(op)}
            self.sers.append(result.ser)
            self.record("SPARC trial", trial_problem(op, diag, result, self._check_rng))

    def _after_se(self, sp, args, traj):
        sp.info = {"steps": traj.iterations}
        with self.tracer.excluded():
            self.record("run_se", se_problem(traj.psi))

    def _after_iterate(self, sp, args, state):
        sp.info = {"clamped": bool(state.clamped)}

    # -- batches -------------------------------------------------------
    def run_batch(self) -> None:
        b = self.batches
        self.batches += 1
        cfg = harness.ExperimentConfig.from_mapping(
            self.spec["sparc"], seed=int(_stream(self.seed, b).generate_state(1)[0])
        )
        planned = len(cfg.sweep) * (cfg.trials + (cfg.se_mode == "offline"))
        before = self.attempted
        try:
            with self.tracer.span("harness.run_experiment"):
                harness.run_experiment(cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        for _ in range(planned - (self.attempted - before)):
            self.record("run_experiment", "raised before the operation finished")
        if "cs" in self.spec:
            self._cs_batch(self.spec["cs"], b)

    def _cs_batch(self, cs: dict, b: int) -> None:
        t = self.tracer
        # A seeded noise level per batch, so no two SE runs share inputs.
        sigma2 = cs["sigma2"] * (0.9 + 0.2 * np.random.default_rng(_stream(self.seed, b, 3)).random())
        Wcs = cs_amp.build_cs_base_matrix(scsparc.CouplingParams(cs["omega"], cs["Lambda"], cs["rho"]))
        rows = Wcs.shape[0]
        n = int(round(cs["delta"] * cs["p"] / rows)) * rows
        prior = cs_amp.bernoulli_gauss_prior(cs["eps"], cs["v"])
        model = cs_amp.CsModel(W=Wcs, p=cs["p"], n=n, sigma2=sigma2, prior=prior)
        den = cs_amp.BgBayesDenoiser(cs["eps"], cs["v"])
        try:
            with t.span("cs_amp.se", new_op=True):
                traj = cs_amp.run_cs_se(model, den, t_max=cs["t_max"])
            pred = float(traj.mse_pred[-1])
            self.record("run_cs_se", None if math.isfinite(pred) else "CS SE not finite")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.record("run_cs_se", "raised")
            return
        for j in range(cs["trials"]):
            try:
                with t.span("cs_amp.trial", new_op=True):
                    with t.span("cs_amp.design"):
                        A = cs_amp.cs_design_matrix(model, _stream(self.seed, b, 1, j))
                    with t.span("cs_amp.measure"):
                        rng = np.random.default_rng(_stream(self.seed, b, 2, j))
                        x = prior.sample(cs["p"], rng)
                        y = A @ x + math.sqrt(sigma2) * rng.standard_normal(n)
                    with t.span("cs_amp.decode") as sp:
                        res = cs_amp.cs_amp_decode(A, y, model, den, t_max=cs["t_max"], x_true=x)
                        sp.info = {"iterations": res.iterations}
                    del A
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.record("CS trial", "raised")
                continue
            with t.excluded():
                mse = float(res.mse_trace[-1])
                problem = None
                if not abs(mse - pred) <= CHECK_TOL["cs_mse"]:
                    problem = f"final MSE {mse:.4g} vs SE {pred:.4g}"
                self.cs_mses.append(mse)
            self.record("CS trial", problem)

    def measure(self, seconds: float) -> None:
        """Run batches until the next one would end after `seconds`."""
        self.install()
        try:
            t0 = perf_counter()
            while True:
                b0 = perf_counter()
                self.run_batch()
                now = perf_counter()
                if now - t0 + (now - b0) > seconds:
                    break
        finally:
            self.tracer.restore()

    # -- metrics -------------------------------------------------------
    def _sparc_trials(self):
        """(trial span, its decode span) pairs."""
        decodes = {sp.parent: sp for sp in self.tracer.named("amp.decode")}
        return [(sp, decodes[sp.id]) for sp in self.tracer.named("harness.run_trial")
                if sp.id in decodes]

    def _cs_trials(self):
        kids: dict = {}
        for sp in self.tracer.spans:
            if sp.name in ("cs_amp.design", "cs_amp.measure", "cs_amp.decode"):
                kids.setdefault(sp.parent, {})[sp.name] = sp
        return [(sp, kids.get(sp.id, {})) for sp in self.tracer.named("cs_amp.trial")]

    def end_to_end(self) -> dict:
        named = self.tracer.named
        # Per-batch means, then the median over batches: a sweep over two
        # rates has short and long trials, whose pooled median would fall
        # between the two groups and jump with the slowest short trial.
        batches = _by_batch(self._sparc_trials(), span=lambda td: td[0])
        cs_trials = self._cs_trials()
        setup = _median([statistics.fmean(t.duration - d.duration for t, d in b) for b in batches])
        cs_setup = _median([k["cs_amp.design"].duration + k["cs_amp.measure"].duration
                            for _, k in cs_trials if "cs_amp.measure" in k])
        if cs_setup is not None and setup is not None:
            setup += cs_setup  # one SPARC trial's set-up plus one CS trial's
        return {
            "trial_s": _median([statistics.fmean(t.duration for t, _ in b) for b in batches]),
            "iter_s": _median([sum(d.duration for _, d in b) / n for b in batches
                               if (n := sum(d.info["iterations"] for _, d in b))]),
            "setup_s": setup,
            "sweep_s": _median([sp.duration for sp in named("harness.run_experiment")]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "se_s": _median([statistics.fmean(sp.duration for sp in b)
                             for b in _by_batch(named("se.run_se"))]),
            "cs_trial_s": _median([sp.duration for sp, _ in cs_trials]),
            "ser_mean": statistics.fmean(self.sers) if self.sers else None,
            "cs_mse": statistics.fmean(self.cs_mses) if self.cs_mses else None,
            "fail_frac": self.failed / self.attempted if self.attempted else None,
        }

    def per_layer(self) -> dict:
        """Per-layer totals per batch, except where a name says otherwise."""
        tr = self.tracer
        nb = max(self.batches, 1)
        self_t = tr.self_times()
        by_id = {sp.id: sp for sp in tr.spans}

        def total(name):
            return sum(sp.duration for sp in tr.named(name)) / nb

        def count(name):
            return len(tr.named(name)) / nb

        def layer_self(layer):
            return sum(self_t[sp.id] for sp in tr.spans if sp.layer == layer) / nb

        def layer_busy(layer):
            # outermost spans of the layer, so nested ones count once
            return sum(sp.duration for sp in tr.spans if sp.layer == layer and not (
                sp.parent in by_id and by_id[sp.parent].layer == layer)) / nb

        trials = self._sparc_trials()
        trial_total = sum(t.duration for t, _ in trials)
        sweep_total = sum(sp.duration for sp in tr.named("harness.run_experiment"))
        decodes = [d.info for _, d in trials if d.info]
        clamped_ops = {sp.op for sp in tr.named("amp.iterate") if sp.info and sp.info["clamped"]}
        cs_decodes = tr.named("cs_amp.decode")
        e2e = self.end_to_end()
        cost = Tracer.span_cost()
        top = sum(sp.duration for sp in tr.spans if sp.parent is None)
        return {
            "design.build_s": total("design.build"),
            "design.apply_s": total("design.apply"),
            "design.apply_calls": count("design.apply"),
            "design.adjoint_s": total("design.adjoint"),
            "design.adjoint_calls": count("design.adjoint"),
            "design.busy_s": layer_busy("design"),
            "design.blocks": _median([t.info["blocks"] for t, _ in trials if t.info]) or 0,
            "design.bytes_per_product": _median(
                [t.info["bytes_per_product"] for t, _ in trials if t.info]) or 0,
            "design.trial_share": layer_busy("design") * nb / trial_total if trial_total else 0.0,
            "amp.iterations": count("amp.iterate"),
            "amp.iterate_s": total("amp.iterate"),
            "amp.self_s": layer_self("amp"),
            "amp.denoise_s": total("amp.denoise"),
            "amp.se_update_s": total("amp.se_update"),
            "amp.diverged": sum(d["diverged"] for d in decodes) / nb,
            "amp.clamped": len(clamped_ops) / nb,
            "message.encode_s": total("message.encode"),
            "message.nmse_s": total("message.nmse"),
            "channel.transmit_s": total("channel.transmit"),
            "se.sample_s": total("se.sample"),
            "se.steps": count("se.step"),
            "se.step_s": total("se.step"),
            "se.expectation_calls": count("se.expectation"),
            "se.expectation_s": total("se.expectation"),
            "se.busy_s": layer_busy("se"),
            "se.sweep_share": layer_busy("se") * nb / sweep_total if sweep_total else 0.0,
            "harness.self_s": layer_self("harness"),
            "harness.trials": count("harness.run_trial"),
            "cs_amp.design_s": total("cs_amp.design"),
            "cs_amp.decode_s": total("cs_amp.decode"),
            "cs_amp.iter_s": _median([sp.duration / sp.info["iterations"] for sp in cs_decodes
                                      if sp.info and sp.info["iterations"]]) or 0.0,
            "cs_amp.se_s": total("cs_amp.se"),
            "cs_amp.denoise_calls": count("cs_amp.denoise"),
            "cs_amp.denoise_s": total("cs_amp.denoise"),
            "trace.trial_s": e2e["trial_s"],
            "trace.spans": len(tr.spans) / nb,
            "trace.span_cost_s": cost,
            "trace.overhead": len(tr.spans) * cost / top if top else 0.0,
        }

    def layer_table(self) -> list[tuple[str, float, float]]:
        """(layer, self seconds per batch, spans per batch), busiest first."""
        self_t = self.tracer.self_times()
        rows: dict = {}
        for sp in self.tracer.spans:
            s, c = rows.get(sp.layer, (0.0, 0))
            rows[sp.layer] = (s + self_t[sp.id], c + 1)
        nb = max(self.batches, 1)
        return sorted(((k, s / nb, c / nb) for k, (s, c) in rows.items()), key=lambda r: -r[1])


# -- manifest ----------------------------------------------------------
def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def workload_sizes(name: str) -> dict:
    """Computed working-set sizes of the workload's largest arrays."""
    spec = workload_spec(name)
    cfg = harness.ExperimentConfig.from_mapping(spec["sparc"])
    dense = cfg.operator == "dense"
    d_bytes, se_bytes = 0, 0
    for snr_db, rate_bits in cfg.sweep:
        params, W = cfg.code_params(snr_db, rate_bits)
        field = cfg.field_kind if dense else "complex"
        n_rows = params.n if field == "real" else params.n // 2
        d_bytes = max(d_bytes, design_bytes(dense, field, n_rows, params.M * params.L, W))
        if cfg.se_mode == "offline":
            se_bytes = max(se_bytes, cfg.mc_samples * (params.M - 1) * 8)
    sizes = {"design_bytes": d_bytes, "se_sample_bytes": se_bytes, "llc_bytes": LLC_BYTES}
    if "cs" in spec:
        cs = spec["cs"]
        # the matrix plus the equally large scale array cs_design_matrix builds
        sizes["cs_design_bytes"] = 2 * int(cs["delta"] * cs["p"]) * cs["p"] * 8
    return sizes


def manifest(name: str, seed: int, seconds: float, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "scsparc_workers": os.environ["SCSPARC_WORKERS"],
        "git_commit": git_commit(),
        "sizes": workload_sizes(name),
    }


# -- entry points --------------------------------------------------------
def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> int:
    """Measure one workload and print its report; the smoke test passes
    tiny=True to run the same path at tiny sizes."""
    man = manifest(name, seed, seconds, trace)
    Run(name, seed, trace=False, tiny=True).measure(0.0)  # warm-up, discarded
    run = Run(name, seed, trace, tiny)
    run.measure(seconds)
    e2e = run.end_to_end()
    layers = run.per_layer() if trace else {}

    sizes = man["sizes"]
    print(f"# {name} seed={seed} trace={int(trace)} batches={run.batches} "
          f"nproc={man['nproc']} numpy={man['numpy']} scipy={man['scipy']} "
          f"blas={man['blas']} x{man['blas_threads']} workers={man['scsparc_workers']} "
          f"commit={man['git_commit']}")
    print("# computed sizes: " + ", ".join(
        f"{k}={v / 2**20:.1f} MiB" for k, v in sizes.items()) + " (llc = last-level cache)")
    for k, unit in {**END_TO_END_UNITS, **EXTRA_UNITS}.items():
        print(f"{k:<14} {_fmt(e2e[k]):>12} {unit}")
    if trace:
        print(f"{'layer':<10} {'self_s/batch':>13} {'spans/batch':>12}")
        for layer, s, c in run.layer_table():
            print(f"{layer:<10} {s:>13.4f} {c:>12.1f}")
        for k, v in layers.items():
            print(f"{k:<26} {_fmt(v):>12} {PER_LAYER_UNITS[k]}")
    for msg in run.failures:
        print(f"FAILED {msg}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    run.tracer.write(f"{stem}-spans.json")
    with open(f"{stem}.json", "w") as f:
        json.dump({"manifest": man, "batches": run.batches, "attempted": run.attempted,
                   "failed": run.failed, "failures": run.failures, "check_s": run.tracer.check_s,
                   "end_to_end": e2e, "per_layer": layers}, f, indent=1)
        f.write("\n")

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = layers if trace else e2e
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    reports = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit code {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            with open(OUT / f"{name}-seed{seed}-trace{trace}.json") as f:
                reports[name, trace] = json.load(f)

    def value(name, trace, section, key):
        return reports.get((name, trace), {}).get(section, {}).get(key)

    def row(label, vals):
        print(f"{label:<22}" + "".join(f"{_fmt(v):>16}" for v in vals))

    print(f"{'metric':<22}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for k, unit in {**END_TO_END_UNITS, **EXTRA_UNITS}.items():
        row(f"{k} [{unit}]", [value(w, 0, "end_to_end", k) for w in WORKLOADS])
    for k in ("design.trial_share", "se.sweep_share", "trace.spans", "trace.overhead"):
        row(k, [value(w, 1, "per_layer", k) for w in WORKLOADS])
    over = []
    for w in WORKLOADS:
        plain = value(w, 0, "end_to_end", "trial_s")
        traced = value(w, 1, "per_layer", "trace.trial_s")
        over.append(traced / plain - 1.0 if plain and traced else None)
    row("traced/untraced - 1", over)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
