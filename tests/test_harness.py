"""Experiment harness and CLI: config parsing, determinism, CSV output."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from scsparc import design
from scsparc.cli import main as cli_main
from scsparc.harness import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    ExperimentConfig,
    compare_to_se,
    run_experiment,
    run_trial,
    write_results_csv,
)
from scsparc.state_evolution import progression_report

# child processes import the package from src/, as pytest does (pyproject.toml)
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
)

SMALL = dict(
    code=dict(M=4, L=16, omega=2, Lambda=4, rho=0.0, rate_bits=1.0),
    channel=dict(snr_db=11.76),
    sim=dict(trials=3, seed=42, se_mode="online_known_sigma", operator="dense", t_max=10),
)


def small_config(**over):
    return ExperimentConfig.from_mapping(SMALL, **over)


def csv_bytes(records):
    buf = io.StringIO()
    write_results_csv(records, buf)
    return buf.getvalue().encode()


def test_config_parsing_and_overrides():
    cfg = small_config()
    assert cfg.M == 4 and cfg.trials == 3
    assert cfg.sweep == [(11.76, 1.0)]
    cfg2 = small_config(trials=5, se_mode="online")
    assert cfg2.trials == 5 and cfg2.se_mode == "online"


def test_config_rejects_double_sweep():
    raw = dict(SMALL)
    raw["code"] = dict(raw["code"], rate_bits=[1.0, 1.2])
    raw["channel"] = dict(snr_db=[10.0, 12.0])
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping(raw)


def with_section(name, **keys):
    """SMALL with extra keys in one config section."""
    return dict(SMALL, **{name: dict(SMALL.get(name, {}), **keys)})


@pytest.mark.parametrize(
    "raw, over, named",
    [
        pytest.param(SMALL, dict(trials=0), None, id="over0"),
        pytest.param(SMALL, dict(se_mode="bogus"), None, id="over1"),
        pytest.param(SMALL, dict(operator="bogus"), None, id="over2"),
        pytest.param(SMALL, dict(field_kind="bogus"), None, id="over3"),
        # misspelt keys and sections, which would otherwise fall back to defaults
        pytest.param(
            with_section("sim", **{"se-mode": "offline", "trails": 50}), {}, None, id="sim-typos"
        ),
        pytest.param(with_section("channel", feild="complex"), {}, None, id="channel-typo"),
        pytest.param(with_section("code", Lamda=4), {}, None, id="code-typo"),
        pytest.param(with_section("simulation", trials=2), {}, None, id="unknown-section"),
        # missing entries, named in the message
        pytest.param(dict(SMALL, channel=dict(field="real")), {}, "snr_db", id="no-snr"),
        pytest.param(
            dict(SMALL, code={k: v for k, v in SMALL["code"].items() if k != "M"}), {}, "'M'",
            id="no-M",
        ),
        pytest.param(None, {}, "empty", id="empty-file"),
        pytest.param(dict(SMALL, sim=None), {}, "'sim'", id="empty-section"),
        # sweeps with no point, and points no simulation can run, named by key
        pytest.param(with_section("channel", snr_db=[]), {}, "snr_db", id="empty-snr-sweep"),
        pytest.param(with_section("code", rate_bits=[]), {}, "rate_bits", id="empty-rate-sweep"),
        pytest.param(with_section("channel", snr_db=-math.inf), {}, "snr_db", id="snr-minus-inf"),
        pytest.param(with_section("channel", snr_db=math.nan), {}, "snr_db", id="snr-nan"),
        pytest.param(SMALL, dict(t_max=0), "t_max", id="t_max-0"),
        # integer settings that are not integers, and values out of range,
        # rejected at load rather than truncated or failing mid-sweep
        pytest.param(SMALL, dict(trials=2.5), "trials", id="trials-float"),
        pytest.param(SMALL, dict(trials=True), "trials", id="trials-bool"),
        pytest.param(SMALL, dict(t_max=2.5), "t_max", id="t_max-float"),
        pytest.param(SMALL, dict(seed=-1), "seed", id="seed-negative"),
        pytest.param(SMALL, dict(seed="7"), "seed", id="seed-string"),
        pytest.param(SMALL, dict(mc_samples=0), "mc_samples", id="mc_samples-0"),
        pytest.param(SMALL, dict(mc_samples=1e4), "mc_samples", id="mc_samples-float"),
        pytest.param(with_section("code", M=16.5), {}, "M", id="M-float"),
        pytest.param(with_section("code", M=1), {}, "M", id="M-1"),
        pytest.param(with_section("code", L="16"), {}, "L", id="L-string"),
        pytest.param(with_section("code", L=18), {}, "L", id="L-not-multiple"),
        pytest.param(with_section("code", omega=2.0), {}, "omega", id="omega-float"),
        pytest.param(with_section("code", omega=0), {}, "omega", id="omega-0"),
        pytest.param(with_section("code", Lambda=False), {}, "Lambda", id="Lambda-bool"),
        pytest.param(with_section("code", omega=2, Lambda=2), {}, "Lambda", id="Lambda-short"),
        pytest.param(with_section("code", rho=1.5), {}, "rho", id="rho-1.5"),
        pytest.param(with_section("code", rho="0.1"), {}, "rho", id="rho-string"),
        pytest.param(with_section("code", rho="x"), {}, "rho", id="rho-word"),
        pytest.param(with_section("code", rho=False), {}, "rho", id="rho-bool"),
        pytest.param(with_section("code", rho=math.nan), {}, "rho", id="rho-nan"),
        pytest.param(with_section("code", rate_bits="1.5"), {}, "rate_bits", id="rate-string"),
        pytest.param(with_section("code", rate_bits=True), {}, "rate_bits", id="rate-bool"),
        pytest.param(with_section("channel", snr_db=["11"]), {}, "snr_db", id="snr-string"),
    ],
)
def test_config_validation_raises_value_error(raw, over, named):
    with pytest.raises(ValueError, match=named):
        ExperimentConfig.from_mapping(raw, **over)


def test_integer_rho_is_stored_as_a_float():
    # so diagnostics.json writes rho: 0 as 0.0
    cfg = ExperimentConfig.from_mapping(with_section("code", rho=0))
    assert repr(cfg.rho) == "0.0"


def test_offline_trial_without_se_traj_raises():
    cfg = small_config(se_mode="offline")
    with pytest.raises(ValueError):
        run_trial(cfg, 0, 0, 11.76, 1.0)


def test_run_trial_determinism():
    cfg = small_config()
    a = run_trial(cfg, 0, 0, 11.76, 1.0)
    b = run_trial(cfg, 0, 0, 11.76, 1.0)
    assert a.ser == b.ser and a.nmse == b.nmse and a.iterations == b.iterations
    c = run_trial(cfg, 0, 1, 11.76, 1.0)
    assert (a.ser, a.nmse) != (c.ser, c.nmse)


def test_run_experiment_and_csv_byte_identical():
    cfg = small_config()
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert csv_bytes(r1) == csv_bytes(r2)
    header, columns = csv_bytes(r1).decode().splitlines()[:2]
    assert header == f"# {SCHEMA_VERSION}"
    assert columns == ",".join(CSV_COLUMNS)


def test_run_experiment_parallel_matches_serial(monkeypatch):
    cfg = small_config()
    serial = csv_bytes(run_experiment(cfg))
    monkeypatch.setenv("SCSPARC_WORKERS", "2")
    parallel = csv_bytes(run_experiment(cfg))
    assert serial == parallel


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5", ""])
def test_workers_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("SCSPARC_WORKERS", value)
    with pytest.raises(ValueError, match="SCSPARC_WORKERS"):
        run_experiment(small_config())


FORKED_RUNS = """
import json, os, sys
from scsparc import design
from scsparc.harness import run_experiment, write_results_csv, ExperimentConfig
design._usable_cpus = lambda: 2  # the forked workers inherit it
cfg = ExperimentConfig.from_mapping(json.loads(sys.argv[1]))
for workers in ("1", "2"):
    os.environ["SCSPARC_WORKERS"] = workers
    write_results_csv(run_experiment(cfg), sys.stdout)
"""


def test_forked_workers_draw_on_the_thread_pool():
    # A serial run draws its designs on the thread pool, then the same
    # process forks the trial workers of a parallel run, which draw theirs
    # on a pool too. A pool left running by a build could hang a forked
    # child, so the runs go in a child process with a timeout.
    raw = dict(SMALL, code=dict(SMALL["code"], L=256, M=16))
    raw["sim"] = dict(raw["sim"], trials=2, t_max=6)
    cfg = ExperimentConfig.from_mapping(raw)
    params, W = cfg.code_params(*cfg.sweep[0])
    nbytes = np.count_nonzero(W.entries) * params.n // W.rows * params.M * params.L // W.cols * 8
    assert nbytes >= design._POOL_MIN_BYTES
    proc = subprocess.run(
        [sys.executable, "-c", FORKED_RUNS, json.dumps(raw)],
        capture_output=True,
        text=True,
        timeout=300,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    header = f"# {SCHEMA_VERSION}\n"
    serial, parallel = proc.stdout.split(header)[1:]
    assert serial == parallel


def test_snr_sweep_monotone_ser():
    raw = dict(SMALL, channel=dict(snr_db=[6.0, 12.0, 18.0]))
    raw["sim"] = dict(raw["sim"], trials=20, t_max=15)
    cfg = ExperimentConfig.from_mapping(raw)
    records = run_experiment(cfg)
    assert len(records) == 3
    sers = [r.ser_mean for r in records]
    assert sers[0] >= sers[1] >= sers[2]


def test_offline_mode_and_compare_to_se():
    cfg = small_config(se_mode="offline")
    records = run_experiment(cfg)
    rec = records[0]
    assert rec.se_traj is not None
    # recompute the trajectory independently; compare shapes and alignment
    params, W = cfg.code_params(*cfg.sweep[0])
    traj = rec.se_traj
    emp = np.ones((traj.iterations, W.cols))
    comp = compare_to_se(emp, traj)
    assert comp.deviations.shape == (traj.iterations, W.cols)
    assert np.allclose(comp.deviations, np.abs(1.0 - traj.psi[1:]))


def test_cli_simulate_and_se(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(SMALL))
    out_dir = tmp_path / "out"
    rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    csv_text = (out_dir / "results.csv").read_text()
    assert csv_text.startswith(f"# {SCHEMA_VERSION}\n")
    diag = json.loads((out_dir / "diagnostics.json").read_text())
    assert diag["schema"] == SCHEMA_VERSION

    rc = cli_main(["se", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    se_cols = (out_dir / "se_columns.csv").read_text().splitlines()
    assert se_cols[0] == "t,c,psi,tau,nu"
    assert len(se_cols) > 1

    rc = cli_main(["progression", "--config", str(cfg_path)])
    assert rc == 0


def test_cli_se_emits_the_offline_decoding_trajectory(tmp_path, capsys):
    raw = dict(SMALL, sim=dict(SMALL["sim"], se_mode="offline", mc_samples=500))
    raw["channel"] = dict(snr_db=[11.76, 14.0])
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    out_dir = tmp_path / "se"
    assert cli_main(["se", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert "only point 0 is emitted" in capsys.readouterr().err

    cfg = ExperimentConfig.from_mapping(raw)
    traj = run_experiment(cfg)[0].se_traj
    params, _ = cfg.code_params(*cfg.sweep[0])
    lines = (out_dir / "se_columns.csv").read_text().splitlines()[1:]
    assert len(lines) == traj.psi[1:].size
    for line in lines:
        t, c, psi, tau, nu = line.split(",")
        t, c = int(t), int(c)
        assert psi == f"{traj.psi[t + 1, c]:.10g}"
        assert tau == f"{traj.tau[t, c]:.10g}"
        assert nu == f"{1.0 / (traj.tau[t, c] * math.log(params.M)):.10g}"
    lines = (out_dir / "se_rows.csv").read_text().splitlines()[1:]
    assert len(lines) == traj.phi.size
    for line in lines:
        t, r, phi, sigma = line.split(",")
        t, r = int(t), int(r)
        assert phi == f"{traj.phi[t, r]:.10g}"
        assert sigma == f"{traj.phi[t, r] - params.sigma2:.10g}"

    # progression reports the same point 0, with the same warning
    assert cli_main(["progression", "--config", str(cfg_path)]) == 0
    out, err = capsys.readouterr()
    assert "scsparc progression" in err and "only point 0 is emitted" in err
    report = progression_report(
        R=params.R, snr=params.snr, omega=cfg.omega, Lambda=cfg.Lambda, M=cfg.M
    )
    assert json.loads(out)["Delta"] == report.Delta


@pytest.mark.parametrize(
    "over", [dict(operator="dft", field_kind="complex"), dict(operator="dense", field_kind="real")]
)
def test_ebn0_is_snr_over_twice_the_realized_rate(over):
    cfg = small_config(trials=1, **over)
    (rec,) = run_experiment(cfg)
    params, _ = cfg.code_params(*cfg.sweep[0])
    assert rec.ebn0_db == pytest.approx(10 * np.log10(params.snr / (2 * params.rate_bits)), abs=1e-12)
    assert rec.ebn0_convention == "snr/(2*rate_bits)"


def test_cli_rerun_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(SMALL))
    outs = []
    for d in ("a", "b"):
        out_dir = tmp_path / d
        cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
        outs.append((out_dir / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "scsparc.cli", "--help"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
