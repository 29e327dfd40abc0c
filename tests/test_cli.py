"""Experiment runner: archives, replay verification, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

from melab import analysis, cli, energy, grid, stepping
from melab.energy import CSV_HEADER
from melab.model import DivergedStateError


def run_cli(args):
    return cli.main(args)


def write_config(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


SIM_CONFIG = {
    "experiment": "simulate",
    "grid": {"nx": 10, "ny": 10},
    "material": {"nu1": 0.1},
    "dissipation": {"kind": "none"},
    "stepper": {"dt": 0.005, "sample_every": 10},
    "initial": {"kind": "random", "amplitude": 0.05, "n_modes": 4},
    "basis": {"m": 4, "m_magnetic": 4},
    "seed": 7,
    "t_end": 0.1,
}


# the constants that check-conditions and find-periodic --strict need and
# melab cannot measure, at the values the config once defaulted to
GIVEN = {"conditions": {"c_mu": 1.0, "c_e": 0.0, "c_small": 1.0},
         "r_critical_consts": {"C1": 0.5, "C2": 0.02, "C3": 0.1}}


def test_simulate_zero_data(tmp_path):
    doc = dict(SIM_CONFIG)
    doc["initial"] = {"kind": "zero"}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    rows = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    assert np.all(rows[:, 1:] == 0.0)
    assert (out / "run.json").exists()
    assert (out / "snapshots" / "0000_h.csv").exists()


def test_replay_verifies_fresh_archive(tmp_path):
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    rep = cli.replay(out)
    assert rep["verified"]


def test_replay_detects_tampering(tmp_path):
    """A stored value off by 1e-6 is reported at its row of energy.csv,
    in the first chunk and in a later one, by its index in the file."""
    for stepper, row in [(SIM_CONFIG["stepper"], 1),
                         ({"dt": 0.005, "sample_every": 1}, cli.CHUNK + 2)]:
        cfg = write_config(tmp_path, "c.json", {**SIM_CONFIG, "stepper": stepper})
        out = tmp_path / f"out{row}"
        run_cli(["simulate", "--config", cfg, "--output", str(out)])
        lines = (out / "energy.csv").read_text().splitlines()
        cols = lines[row + 1].split(",")
        cols[1] = f"{float(cols[1]) + 1e-6:.17g}"
        lines[row + 1] = ",".join(cols)
        (out / "energy.csv").write_text("\n".join(lines) + "\n")
        rep = cli.replay(out)
        assert not rep["verified"]
        assert rep["first_differing_row"] == row
        assert rep["column"] == "e_total"


def test_rerun_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["simulate", "--config", cfg, "--output", str(out1)])
    run_cli(["simulate", "--config", cfg, "--output", str(out2)])
    assert (out1 / "energy.csv").read_text() == (out2 / "energy.csv").read_text()


def test_validation_exit_code(tmp_path):
    doc = dict(SIM_CONFIG)
    doc["grid"] = {"nx": 2, "ny": 2}
    cfg = write_config(tmp_path, "c.json", doc)
    assert run_cli(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("scheme", ["explicit_rk4", "imex_midpoint"])
def test_overflow_exits_diverged(tmp_path, scheme):
    """Fields that overflow during a step are divergence (exit 3) with the
    run so far archived, not a validation error or a crash."""
    doc = dict(SIM_CONFIG)
    doc["grid"] = {"nx": 8, "ny": 8}
    doc["stepper"] = {"dt": 0.5, "scheme": scheme, "sample_every": 1}
    doc["initial"] = {"kind": "random", "amplitude": 1e150, "n_modes": 4}
    doc["t_end"] = 5.0
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 3
    run = json.loads((out / "run.json").read_text())
    assert run["termination"] == {"kind": "diverged", "t": 0.5}
    assert len((out / "energy.csv").read_text().splitlines()) == 2


# The overflow data of test_overflow_exits_diverged, in each experiment
# that integrates besides simulate.  perturb's orbit is the rest state and
# its perturbation blows up in the first explicit RK4 step: one of 1e150
# would be refused as not mean-zero.
_PERIODIC = {"dissipation": {"kind": "linear", "alpha": 1.0},
             "forcing": {"period": 1.0, "terms": []}}
_OVERFLOW = {
    "lasalle": {},
    "find-periodic": _PERIODIC,
    "perturb": {**_PERIODIC, "stepper": {"dt": 0.5, "scheme": "explicit_rk4", "sample_every": 1},
                "perturbation": {"amplitude": 1.0}},
}


@pytest.mark.parametrize("experiment", list(_OVERFLOW))
def test_divergence_prints_one_line_and_archives(tmp_path, capsys, experiment):
    """A divergence in any experiment exits 3, writes one 'diverged:' line
    to stderr and leaves an archive of the run that diverged, which
    replays as verified."""
    doc = {**SIM_CONFIG, "experiment": experiment, "grid": {"nx": 8, "ny": 8},
           "stepper": {"dt": 0.5, "sample_every": 1},
           "initial": {"kind": "random", "amplitude": 1e150, "n_modes": 4}, "t_end": 5.0,
           **_OVERFLOW[experiment]}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli([experiment, "--config", cfg, "--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("diverged: "), err
    run = json.loads((out / "run.json").read_text())
    assert run["termination"] == {"kind": "diverged", "t": 0.5}
    assert cli.replay(out) == {"verified": True, "rows": 1}


def test_unreadable_config():
    assert run_cli(["simulate", "--config", "/nonexistent.json"]) == 2


def test_experiment_mismatch(tmp_path):
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    assert run_cli(["lasalle", "--config", cfg, "--output", str(tmp_path / "o")]) == 2


def test_check_conditions_trivial(tmp_path):
    doc = {
        "experiment": "check-conditions",
        "material": {"nu1": 0.5},
        "conditions": GIVEN["conditions"],
    }
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["check-conditions", "--config", cfg, "--output", str(out), "--strict"]) == 0
    rep = json.loads((out / "reports" / "conditions.json").read_text())
    assert rep["regularity"]["satisfied"] and rep["stability"]["satisfied"]


def test_check_conditions_strict_failure(tmp_path):
    doc = {
        "experiment": "check-conditions",
        "material": {"nu1": 0.05},
        "conditions": {**GIVEN["conditions"], "c_e": 5.0},
    }
    cfg = write_config(tmp_path, "c.json", doc)
    assert run_cli(["check-conditions", "--config", cfg, "--output",
                    str(tmp_path / "o"), "--strict"]) == 4


def test_find_periodic_zero_forcing(tmp_path):
    doc = {
        "experiment": "find-periodic",
        "grid": {"nx": 8, "ny": 8},
        "material": {"nu1": 0.2},
        "dissipation": {"kind": "linear", "alpha": 1.0},
        "forcing": {"period": 0.5, "terms": []},
        "stepper": {"dt": 0.01, "sample_every": 25},
        "initial": {"kind": "zero"},
        "tol": 1e-10,
    }
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["find-periodic", "--config", cfg, "--output", str(out)]) == 0
    orb = json.loads((out / "orbit.json").read_text())
    assert orb["converged"] and orb["residual"] <= 1e-10
    z = np.loadtxt(out / "zstar_h.csv", delimiter=",", skiprows=1)
    assert np.all(z[:, 2] == 0.0)


def test_perturb_experiment(tmp_path):
    """melab perturb on a forced, linearly damped 8 x 8 run: ep_series.csv
    holds t,e_p rows with 17 significant digits, one per sample from t = 0
    to t_end, starting at the report's E_p(0), and the decay report has no
    violations."""
    doc = {
        "experiment": "perturb",
        "grid": {"nx": 8, "ny": 8},
        "dissipation": {"kind": "linear", "alpha": 1.0},
        "forcing": {"period": 1.0, "terms": [
            {"target": "f2", "g": {"sin": [0.05]}, "shape": {"jx": 1, "jy": 1}}]},
        "stepper": {"dt": 0.01, "sample_every": 10},
        "basis": {"m": 4, "m_magnetic": 4},
        "t_end": 3.0,
    }
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["perturb", "--config", cfg, "--output", str(out)]) == 0
    text = (out / "ep_series.csv").read_text()
    rows = np.loadtxt(out / "ep_series.csv", delimiter=",", skiprows=1)
    assert len(rows) == 31
    assert text == "t,e_p\n" + "".join(f"{t:.17g},{v:.17g}\n" for t, v in rows)
    assert np.abs(rows[:, 0] - np.linspace(0.0, 3.0, 31)).max() <= 1e-12
    rep = json.loads((out / "reports" / "decay.json").read_text())
    assert rows[0, 1] == rep["ep0"] > 0 and rep["violations"] == []


def test_find_periodic_strict_refusal(tmp_path):
    doc = {
        "experiment": "find-periodic",
        "grid": {"nx": 8, "ny": 8},
        "material": {"nu1": 0.2},
        "dissipation": {"kind": "linear", "alpha": 1.0},
        "forcing": {"period": 0.5, "terms": [
            {"target": "f2", "g": {"a0": 0.0, "cos": [1.0], "sin": []},
             "shape": {"jx": 1, "jy": 1, "amplitude": 0.05, "component": 0}},
        ]},
        "stepper": {"dt": 0.01, "sample_every": 25},
        "initial": {"kind": "zero"},
        "r_critical_consts": {"C1": 0.5, "C2": 5.0, "C3": 0.1},
    }
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["find-periodic", "--config", cfg, "--output", str(out), "--strict"]) == 4
    rep = json.loads((out / "reports" / "r_critical.json").read_text())
    assert not rep["admissible"]


# C06's physics and forcing at 24 x 24, and the 8 x 8 unforced config with
# linear alpha = 1 and the default material
_C06 = {"grid": {"nx": 24, "ny": 24}, "material": {"nu1": 1.0},
        "dissipation": {"kind": "linear", "alpha": 1.0},
        "forcing": {"period": 2.0, "terms": [
            {"target": "f2", "g": {"cos": [1.0]},
             "shape": {"jx": 1, "jy": 1, "amplitude": 0.05, "component": 0}},
            {"target": "f1", "g": {"sin": [1.0]},
             "shape": {"jx": 1, "jy": 1, "amplitude": 0.02}}]},
        "stepper": {"dt": 2e-3, "sample_every": 100}}
_UNFORCED_8 = {"grid": {"nx": 8, "ny": 8}, "dissipation": {"kind": "linear", "alpha": 1.0}}


@pytest.mark.parametrize("doc, c_omega, eps, factor", [
    (_UNFORCED_8, 0.17569, 0.05, 1.703), (_C06, 0.17384, 0.25, 1.466)], ids=["8x8", "C06"])
def test_conditions_rest_on_measured_constants(tmp_path, doc, c_omega, eps, factor):
    """check-conditions measures C_Omega, eps and E1 of the initial state
    and lists every input with its value and provenance.  The 8 x 8 config
    once passed both smallness conditions on the defaults e1_0 = c_e = 0;
    with no constant given it is now refused.  At C06 physics the measured
    eps = 0.25 leaves r_critical no admissible radius, where the retired
    default eps = 1 admitted one."""
    cfg = write_config(tmp_path, "bare.json", {"experiment": "check-conditions", **doc})
    assert run_cli(["check-conditions", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    cfg = write_config(tmp_path, "c.json", {"experiment": "check-conditions", **doc, **GIVEN})
    out = tmp_path / "out"
    assert run_cli(["check-conditions", "--config", cfg, "--output", str(out), "--strict"]) == 4
    rep = json.loads((out / "reports" / "conditions.json").read_text())
    consts = rep["constants"]
    assert consts["c_omega"]["value"] == pytest.approx(c_omega, abs=5e-6)
    assert consts["eps"]["value"] == eps and consts["e1_0"]["value"] == 0.0
    given = {key: value for section in GIVEN.values() for key, value in section.items()}
    assert {key: e["value"] for key, e in consts.items() if e["provenance"] == "given"} == given
    assert {e["provenance"] for e in consts.values()} == {"measured", "given"}
    assert {"c_omega", "eps", "e1_0"} <= {k for k, e in consts.items()
                                          if e["provenance"] == "measured"}
    assert rep["r_critical"]["contraction"] == pytest.approx(factor, abs=5e-4)
    assert not rep["r_critical"]["admissible"]


def test_strict_orbit_rests_on_measured_eps(tmp_path):
    """find-periodic --strict at C06 physics refuses before it steps: the
    measured eps = 0.25 leaves r_critical a negative denominator (-0.487);
    r_critical.json lists every constant with its provenance."""
    cfg = write_config(tmp_path, "c.json", {"experiment": "find-periodic", **_C06, **GIVEN})
    out = tmp_path / "out"
    assert run_cli(["find-periodic", "--config", cfg, "--output", str(out), "--strict"]) == 4
    assert not (out / "energy.csv").exists()
    rep = json.loads((out / "reports" / "r_critical.json").read_text())
    assert rep["denominator"] == pytest.approx(-0.4869, abs=1e-4)
    assert rep["constants"]["eps"] == {"value": 0.25, "provenance": "measured"}
    assert {k for k, e in rep["constants"].items() if e["provenance"] == "given"} == {
        "C1", "C2", "C3"}


def test_strict_orbit_admitted_keeps_its_verdict(tmp_path):
    """A period long enough for the measured eps = 0.25 (T = 10 > 6.6 at
    alpha = nu1 = 1) admits r_critical: the orbit runs, and its archive
    keeps the verdict it rested on."""
    doc = {**SIM_CONFIG, **_UNFORCED_8, **GIVEN, "experiment": "find-periodic",
           "material": {"nu1": 1.0}, "forcing": {"period": 10.0, "terms": []},
           "stepper": {"dt": 0.01, "sample_every": 100}, "initial": {"kind": "zero"}}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["find-periodic", "--config", cfg, "--output", str(out), "--strict"]) == 0
    rep = json.loads((out / "reports" / "r_critical.json").read_text())
    assert rep["admissible"] and rep["value"] == 0.0 and rep["contraction"] < 1.0
    assert rep["constants"]["eps"] == {"value": 0.25, "provenance": "measured"}
    assert cli.replay(out)["verified"]


@pytest.mark.parametrize("experiment, strict, section, key", [
    ("check-conditions", False, "conditions", "c_small"),
    ("check-conditions", True, "r_critical_consts", "C3"),
    ("find-periodic", True, "r_critical_consts", "C1"),
])
def test_missing_given_constant_exits_2(tmp_path, capsys, experiment, strict, section, key):
    """A verdict refuses a given constant it needs that is null: exit 2,
    the key named, no output directory."""
    given = {name: {k: v for k, v in keys.items() if (name, k) != (section, key)}
             for name, keys in GIVEN.items()}
    cfg = write_config(tmp_path, "c.json", {**SIM_CONFIG, **_UNFORCED_8, **given,
                                            "experiment": experiment})
    out = tmp_path / "out"
    assert run_cli([experiment, "--config", cfg, "--output", str(out),
                    *(["--strict"] if strict else [])]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_find_periodic_without_strict_reads_no_given_constant(tmp_path):
    cfg = write_config(tmp_path, "c.json", {**SIM_CONFIG, **_UNFORCED_8,
                                            "experiment": "find-periodic",
                                            "initial": {"kind": "zero"}})
    out = tmp_path / "out"
    assert run_cli(["find-periodic", "--config", cfg, "--output", str(out)]) == 0
    assert not (out / "reports").exists()


def test_botsenyuk_experiment(tmp_path):
    doc = {
        "experiment": "botsenyuk",
        "botsenyuk": {"a": 1.0, "t": [0.0, 0.5, 1.0],
                      "x": [0.1, 0.1, 0.1], "gamma": [0.1875, 0.1875, 0.1875]},
    }
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["botsenyuk", "--config", cfg, "--output", str(out), "--strict"]) == 0
    rep = json.loads((out / "reports" / "botsenyuk.json").read_text())
    assert rep["conclusion_holds"]


def test_disk_mode_experiment(tmp_path):
    doc = {"experiment": "disk-mode",
           "disk_mode": {"m": 1, "radial_points": 400, "table_max": 3}}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["disk-mode", "--config", cfg, "--output", str(out)]) == 0
    table = analysis.bessel_root_table(3)
    assert (out / "bessel_roots.csv").read_text() == "m,zeta_m\n" + "".join(
        f"{m},{z:.17g}\n" for m, z in table)


def test_disk_mode_radial_points_bounded(tmp_path, capsys):
    doc = {"experiment": "disk-mode", "disk_mode": {"m": 1, "radial_points": 10**6 + 1}}
    cfg = write_config(tmp_path, "c.json", doc)
    assert run_cli(["disk-mode", "--config", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "radial points" in capsys.readouterr().err


def test_eigenbasis_experiment(tmp_path):
    doc = {"experiment": "eigenbasis", "grid": {"nx": 8, "ny": 8},
           "basis": {"m": 4, "m_magnetic": 4}}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["eigenbasis", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "basis.npz").exists()
    rep = json.loads((out / "reports" / "eigenbasis.json").read_text())
    assert len(rep["elastic_eigenvalues"]) == 4


def _melab_process(*args, flags=()):
    """melab's CLI run with args in a new interpreter started with the
    given interpreter flags, on the repository's sources."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-m", "melab.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_eigenbasis_replays_bit_for_bit_across_processes(tmp_path):
    """Two processes building the same 24 x 24 basis write byte-identical
    basis.npz files: the Lanczos start vector is fixed."""
    doc = {"experiment": "eigenbasis", "grid": {"nx": 24, "ny": 24},
           "basis": {"m": 8, "m_magnetic": 8}}
    cfg = write_config(tmp_path, "c.json", doc)
    files = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = _melab_process("eigenbasis", "--config", cfg, "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        files.append((out / "basis.npz").read_bytes())
    assert files[0] == files[1]


def test_lasalle_runs_at_64(tmp_path):
    """A 64 x 64 limit-set run, whose 7938-unknown elastic basis is beyond
    the dense eigensolve, completes and writes its report."""
    doc = {"experiment": "lasalle", "grid": {"nx": 64, "ny": 64},
           "material": {"nu1": 0.3}, "dissipation": {"kind": "none"},
           "stepper": {"dt": 1e-3, "sample_every": 2},
           "initial": {"kind": "random", "amplitude": 0.05, "n_modes": 6},
           "basis": {"m": 8, "m_magnetic": 8}, "seed": 3, "t_end": 4e-3}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert run_cli(["lasalle", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "reports" / "lasalle.json").exists()
    assert len((out / "energy.csv").read_text().splitlines()) == 4


def test_env_var_output_root(tmp_path, monkeypatch):
    doc = {"experiment": "disk-mode",
           "disk_mode": {"m": 1, "radial_points": 200, "table_max": 1}}
    cfg = write_config(tmp_path, "c.json", doc)
    monkeypatch.setenv("MELAB_OUTPUT", str(tmp_path / "root"))
    assert run_cli(["disk-mode", "--config", cfg]) == 0
    assert (tmp_path / "root" / "disk-mode" / "bessel_roots.csv").exists()


def test_config_output_dir_precedes_env_var(tmp_path, monkeypatch):
    """--output wins over the config's output_dir, which wins over
    $MELAB_OUTPUT."""
    doc = {"experiment": "disk-mode", "output_dir": str(tmp_path / "from_config"),
           "disk_mode": {"m": 1, "radial_points": 200, "table_max": 1}}
    cfg = write_config(tmp_path, "c.json", doc)
    monkeypatch.setenv("MELAB_OUTPUT", str(tmp_path / "from_env"))
    assert run_cli(["disk-mode", "--config", cfg]) == 0
    assert (tmp_path / "from_config" / "bessel_roots.csv").exists()
    assert not (tmp_path / "from_env").exists()
    assert run_cli(["disk-mode", "--config", cfg, "--output", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "bessel_roots.csv").exists()


def test_sweep_serial(tmp_path):
    doc = {
        "experiment": "check-conditions",
        "material": {"nu1": 0.5},
        "conditions": GIVEN["conditions"],
        "sweep": [{"material": {"nu1": 0.5}}, {"material": {"nu1": 1.0}}],
    }
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["check-conditions", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "sweep_000" / "reports" / "conditions.json").exists()
    assert (out / "sweep_001" / "reports" / "conditions.json").exists()


def test_sweep_parallel(tmp_path):
    doc = {
        "experiment": "disk-mode",
        "disk_mode": {"m": 1, "radial_points": 200, "table_max": 1},
        "sweep": [{"disk_mode": {"m": 1, "radial_points": 200, "table_max": 1}},
                  {"disk_mode": {"m": 2, "radial_points": 200, "table_max": 1}}],
    }
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["disk-mode", "--config", cfg, "--output", str(out), "--jobs", "2"]) == 0
    a = json.loads((out / "sweep_000" / "reports" / "disk_mode.json").read_text())
    b = json.loads((out / "sweep_001" / "reports" / "disk_mode.json").read_text())
    assert a["m"] == 1 and b["m"] == 2


class _SerialPool:
    """A ProcessPoolExecutor stand-in that records its size and maps in
    this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus, expect", [(8, [2]), (1, [])])
def test_sweep_pool_sized_by_entries_and_cpus(tmp_path, monkeypatch, cpus, expect):
    """--jobs 64 over a 2-entry sweep starts no more workers than entries
    or CPUs, and runs in this process when that is one."""
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    doc = {"experiment": "disk-mode",
           "disk_mode": {"m": 1, "radial_points": 200, "table_max": 1},
           "sweep": [{"seed": 1}, {"seed": 2}]}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["disk-mode", "--config", cfg, "--output", str(out), "--jobs", "64"]) == 0
    assert _SerialPool.sizes == expect
    assert (out / "sweep_001" / "reports" / "disk_mode.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    doc = {"experiment": "disk-mode", "disk_mode": {"m": 1, "radial_points": 200,
                                                    "table_max": 1}}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["disk-mode", "--config", cfg, "--output", str(out), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_replay_corrupt_archive(tmp_path):
    (tmp_path / "arc").mkdir()
    assert run_cli(["replay", "--output", str(tmp_path / "arc")]) == 2


@pytest.mark.parametrize("experiment", ["perturb", "check-conditions", "eigenbasis"])
def test_replay_archive_without_trajectory_exits_2(tmp_path, capsys, experiment):
    """A well-formed archive of an experiment that archives no trajectory
    is refused as one, not called corrupt."""
    doc = {**SIM_CONFIG, **GIVEN, "experiment": experiment, "t_end": 0.1,
           "dissipation": {"kind": "linear", "alpha": 1.0},
           "forcing": {"period": 0.05, "terms": []}}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli([experiment, "--config", cfg, "--output", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["replay", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"the '{experiment}' archive holds no trajectory to replay" in err
    assert "corrupt" not in err


FORCED = {**SIM_CONFIG, "initial": {"kind": "zero"}, "forcing": {"period": 0.1, "terms": [
    {"target": "f2", "g": {"a0": 0.0, "cos": [1.0]}, "shape": {"amplitude": 0.1, "component": 0}},
]}}


@pytest.mark.parametrize("level, doc, key", [
    ("top level", {**FORCED, "seeed": 1}, "seeed"),
    ("section", {**FORCED, "material": {"nu": 0.1}}, "nu"),
    ("forcing term", {**FORCED, "forcing": {"period": 0.1, "terms": [
        {"target": "f2", "gg": {}}]}}, "gg"),
    ("g", {**FORCED, "forcing": {"period": 0.1, "terms": [
        {"target": "f2", "g": {"coss": [1.0]}}]}}, "coss"),
    ("shape", {**FORCED, "forcing": {"period": 0.1, "terms": [
        {"target": "f2", "shape": {"compnent": 0}}]}}, "compnent"),
    ("sweep entry", {**FORCED, "sweep": [{"seed": 1}, {"t_ned": 1.0}]}, "t_ned"),
    *((f"retired {key}", {**FORCED, section: {key: 1.0}}, key)
      for section, keys in cli._RETIRED_KEYS.items() for key in keys),
    # retired from sections that replay does not parse, so not in _RETIRED_KEYS
    *((f"retired {key}", {**FORCED, section: {key: 1.0}}, key)
      for section, key in (("conditions", "e1_0"), ("conditions", "c_omega"),
                           ("r_critical_consts", "eps"), ("perturbation", "seed"))),
])
def test_unknown_key_exits_2(tmp_path, capsys, level, doc, key):
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 2, level
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def _savetxt_snapshot(header):
    def save(path, field):
        x, y = field.grid.xy
        arrays = (field.values,) if header == "x,y,value" else (field.ux, field.uy)
        rows = np.column_stack([x.ravel(), y.ravel(), *(a.ravel() for a in arrays)])
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")
    return save


def _savetxt_rows(path, header, template, values):
    """cli's write_csv of energy.csv rows as numpy's savetxt: the header
    starts the file, and without one the rows are appended."""
    rows = np.reshape(values, (-1, len(CSV_HEADER.split(","))))
    with open(path, "a" if header is None else "w") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=header or "", comments="")


def test_savetxt_written_archive_replays_and_matches(tmp_path, monkeypatch):
    """An archive whose snapshots and energy.csv numpy's savetxt wrote, as
    earlier versions did, the rows a savetxt per chunk with the header on
    the first, replays as verified, and the archive's own writer
    reproduces it byte for byte.  The run spans two chunks."""
    n = cli.CHUNK + 5
    doc = {**FORCED, "initial": SIM_CONFIG["initial"], "t_end": 0.005 * (n - 1),
           "stepper": {"dt": 0.005, "sample_every": 1}}
    cfg = write_config(tmp_path, "c.json", doc)
    ours, ref = tmp_path / "ours", tmp_path / "ref"
    assert run_cli(["simulate", "--config", cfg, "--output", str(ours)]) == 0
    monkeypatch.setattr(cli, "save_scalar_csv", _savetxt_snapshot("x,y,value"))
    monkeypatch.setattr(cli, "save_vector_csv", _savetxt_snapshot("x,y,vx,vy"))
    monkeypatch.setattr(cli, "write_csv", _savetxt_rows)
    assert run_cli(["simulate", "--config", cfg, "--output", str(ref)]) == 0
    assert cli.replay(ref)["verified"]
    files = sorted(p.relative_to(ref) for p in ref.rglob("*.csv"))
    assert len(files) == 1 + 3 * n
    assert files == sorted(p.relative_to(ours) for p in ours.rglob("*.csv"))
    for f in files:
        assert (ours / f).read_bytes() == (ref / f).read_bytes(), f


@pytest.mark.parametrize("damage", ["truncated_h", "scalar_header_u"])
def test_replay_malformed_snapshot_exits_2(tmp_path, capsys, damage):
    """A snapshot that does not fit run.json's grid is a validation error
    naming the file and the expected and found row counts or header."""
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    n_nodes = 11 * 11
    if damage == "truncated_h":
        path = out / "snapshots" / "0001_h.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-3]))
        expect = f"0001_h.csv: {n_nodes - 3} rows, expected {n_nodes}"
    else:
        path = out / "snapshots" / "0001_u.csv"
        path.write_text((out / "snapshots" / "0001_h.csv").read_text())
        expect = "0001_u.csv: header 'x,y,value', expected 'x,y,vx,vy'"
    capsys.readouterr()
    assert run_cli(["replay", "--output", str(out)]) == 2
    assert expect in capsys.readouterr().err


DAMPED_FORCED = {**FORCED, "initial": SIM_CONFIG["initial"],
                 "dissipation": {"kind": "linear", "alpha": 0.5}}


def test_damped_forced_archive_replays(tmp_path):
    """A linear-damped, forced run's archive, whose g column and forcing
    work are not zero, replays as verified."""
    cfg = write_config(tmp_path, "c.json", DAMPED_FORCED)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    rows = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 3 and np.all(rows[:, 4] != 0) and np.all(rows[1:, 7] != 0)
    assert cli.replay(out) == {"verified": True, "rows": 3}


def test_archive_with_retired_dissipation_keys_replays(tmp_path):
    """Archives written while the dissipation section still had k0, r_rho
    and k_c differ from today's only by those keys in run.json's config;
    replay drops them and verifies the archive."""
    cfg = write_config(tmp_path, "c.json", DAMPED_FORCED)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    path = out / "run.json"
    doc = json.loads(path.read_text())
    doc["config"]["dissipation"].update(k0=1.0, r_rho=1.0, k_c=0.0)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    assert cli.replay(out) == {"verified": True, "rows": 3}


def test_archive_with_perturbation_seed_replays(tmp_path):
    """Archives written while the perturbation section had its own seed
    carry perturbation.seed, the top-level seed, in run.json's config;
    replay drops it and verifies the archive."""
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    path = out / "run.json"
    doc = json.loads(path.read_text())
    assert doc["config"]["perturbation"] == {"amplitude": 1e-3}
    doc["config"]["perturbation"]["seed"] = doc["config"]["seed"]
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    assert cli.replay(out) == {"verified": True, "rows": 3}


def test_archive_with_unknown_keys_outside_the_physics_replays(tmp_path):
    """Replay parses only the grid, material, dissipation and forcing
    sections of run.json's config, so an archive whose other sections
    carry keys that this version does not know, as one written before or
    after a key was retired would, still verifies."""
    cfg = write_config(tmp_path, "c.json", DAMPED_FORCED)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    path = out / "run.json"
    doc = json.loads(path.read_text())
    doc["config"]["conditions"]["c_unknown"] = 1.0
    doc["config"]["disk_mode"]["no_such_key"] = "x"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    assert cli.replay(out) == {"verified": True, "rows": 3}


# the conditions and r_critical_consts sections that every run.json echoed
# while melab read C_Omega, E1(0) and eps from the config
_PARENT_CONSTANTS = {
    "conditions": {"c_mu": 1.0, "e1_0": 0.0, "c_e": 0.0, "c_omega": 1.0, "c_small": 1.0},
    "r_critical_consts": {"C1": 0.5, "C2": 0.02, "C3": 0.1, "eps": 1.0},
}


@pytest.mark.parametrize("experiment, doc", [
    ("simulate", DAMPED_FORCED),
    ("lasalle", SIM_CONFIG),
    ("find-periodic", {**SIM_CONFIG, **_UNFORCED_8, "initial": {"kind": "zero"}}),
])
def test_archive_with_retired_constant_keys_replays(tmp_path, experiment, doc):
    """Archives written while the config held e1_0, c_omega and eps, and a
    number for every constant, differ from today's only by those sections
    of run.json's config; replay drops the retired keys and verifies them."""
    cfg = write_config(tmp_path, "c.json", {**doc, "experiment": experiment})
    out = tmp_path / "out"
    assert run_cli([experiment, "--config", cfg, "--output", str(out)]) == 0
    path = out / "run.json"
    run = json.loads(path.read_text())
    assert {name: run["config"][name] for name in _PARENT_CONSTANTS} == {
        "conditions": {"c_mu": None, "c_e": None, "c_small": None},
        "r_critical_consts": {"C1": None, "C2": None, "C3": None}}
    run["config"].update(_PARENT_CONSTANTS)
    path.write_text(json.dumps(run, indent=2, sort_keys=True))
    assert cli.replay(out)["verified"]


def test_two_sample_archive_has_its_residual(tmp_path):
    """A run sampled at its start and its end writes the residual of its one
    interval: row 1 of its energy.csv is, byte for byte, row 1 of the same
    run continued to a third sample."""
    lines = []
    for t_end in (0.05, 0.1):
        cfg = write_config(tmp_path, f"c{t_end}.json", {**DAMPED_FORCED, "t_end": t_end})
        out = tmp_path / f"out{t_end}"
        assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
        lines.append((out / "energy.csv").read_text().splitlines())
    assert [len(x) for x in lines] == [3, 4]
    assert lines[0][2] == lines[1][2]
    assert float(lines[0][2].split(",")[-1]) != 0.0


_SWAPPED_HEADER = CSV_HEADER.replace("e1,e_p,g,grad_h_sq", "grad_h_sq,e_p,g,e1")


def _drop_last_column(text):
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def _drop_last_data_column(text):
    header, rows = text.split("\n", 1)
    return f"{header}\n{_drop_last_column(rows)}"


@pytest.mark.parametrize("name, damage, message", [
    ("run.json", lambda text: text[: len(text) // 2], ""),
    ("run.json", lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                          if k != "config"}), ""),
    ("energy.csv", lambda text: text.replace("\n0.", "\nzero.", 1), ""),
    ("energy.csv", _drop_last_column, ""),
    ("energy.csv", _drop_last_data_column, "7 columns, expected 8"),
    ("energy.csv", lambda text: "".join(text.splitlines(keepends=True)[:3]),
     "2 rows, but 3 snapshot triples"),
    ("energy.csv", lambda text: text.splitlines(keepends=True)[0], "no rows"),
    ("energy.csv", lambda text: "", "no rows"),
    ("energy.csv", lambda text: text.replace(CSV_HEADER, _SWAPPED_HEADER, 1),
     f"header '{_SWAPPED_HEADER}', expected '{CSV_HEADER}'"),
], ids=["run.json not JSON", "run.json without config", "energy.csv unparsable",
        "energy.csv with 7 columns", "energy.csv rows with 7 columns",
        "energy.csv cut to 2 of 3 rows", "energy.csv header only", "energy.csv empty",
        "energy.csv with e1 and grad_h_sq swapped"])
def test_replay_damaged_archive_exits_2(tmp_path, capsys, name, damage, message):
    """A run.json or energy.csv that does not parse, an energy.csv without
    rows, one with fewer rows than snapshot triples and one whose header is
    not CSV_HEADER are validation errors naming the file."""
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    path = out / name
    path.write_text(damage(path.read_text()))
    capsys.readouterr()
    assert run_cli(["replay", "--output", str(out)]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


def test_replay_bug_is_not_a_validation_error(tmp_path, monkeypatch):
    """A programming error inside replay propagates instead of being
    reported as a corrupt archive."""
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0

    def broken(traj):
        return {}["missing"]

    monkeypatch.setattr(cli.energy_mod, "energy_table", broken)
    with pytest.raises(KeyError):
        run_cli(["replay", "--output", str(out)])


def test_bug_is_not_a_validation_error(tmp_path, monkeypatch):
    """A programming error in a runner propagates instead of exiting 2."""
    def broken(run, outdir, strict):
        return {}["missing"]

    monkeypatch.setitem(cli._RUNNERS, "simulate", broken)
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    with pytest.raises(KeyError):
        run_cli(["simulate", "--config", cfg, "--output", str(tmp_path / "o")])


def test_run_json_records_resolved_config(tmp_path):
    """run.json holds the config with every default filled in; re-running
    it reproduces the archive and replay verifies it."""
    cfg = write_config(tmp_path, "c.json", FORCED)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out1)]) == 0
    resolved = json.loads((out1 / "run.json").read_text())["config"]
    assert resolved["material"] == {"rho_m": 1.0, "mu": 1.0, "lambda": 0.5, "nu1": 0.1,
                                    "mu0": 1.0, "b0": 1.0}
    assert resolved["stepper"] == {"dt": 0.005, "scheme": "imex_midpoint", "sample_every": 10}
    assert resolved["forcing"]["terms"][0]["shape"] == {
        "jx": 1, "jy": 1, "amplitude": 0.1, "component": 0}
    assert resolved["grid"] == {"nx": 10, "ny": 10, "lx": 1.0, "ly": 1.0}
    cfg2 = write_config(tmp_path, "c2.json", resolved)
    assert run_cli(["simulate", "--config", cfg2, "--output", str(out2)]) == 0
    assert (out1 / "energy.csv").read_text() == (out2 / "energy.csv").read_text()
    assert cli.replay(out1)["verified"]
    versions = json.loads((out1 / "run.json").read_text())["versions"]
    assert {"numpy", "scipy"} <= set(versions)
    for module in (np, scipy):
        deps = module.__config__.CONFIG["Build Dependencies"]
        for dep in ("blas", "lapack"):
            assert versions[f"{module.__name__}_{dep}"] == (
                f"{deps[dep]['name']} {deps[dep]['version']}")


_STRICT_REFUSALS = {
    "find-periodic": ({"grid": {"nx": 8, "ny": 8}, "material": {"nu1": 0.2},
                       "dissipation": {"kind": "linear", "alpha": 1.0},
                       "forcing": {"period": 0.5, "terms": [
                           {"target": "f2", "g": {"cos": [1.0]}, "shape": {"amplitude": 0.05}}]},
                       "stepper": {"dt": 0.01, "sample_every": 25},
                       "r_critical_consts": {**GIVEN["r_critical_consts"], "C2": 5.0}},
                      "r_critical"),
    "check-conditions": ({"material": {"nu1": 0.05},
                          "conditions": {**GIVEN["conditions"], "c_e": 5.0}}, "conditions"),
}


@pytest.mark.parametrize("experiment", list(_STRICT_REFUSALS))
def test_strict_refusal_writes_its_record(tmp_path, experiment):
    """A run refused under --strict exits 4 and still leaves its record:
    run.json with the resolved config beside the report that refused it."""
    doc, report = _STRICT_REFUSALS[experiment]
    cfg = write_config(tmp_path, "c.json", {"experiment": experiment, **doc})
    out = tmp_path / "o"
    assert run_cli([experiment, "--config", cfg, "--output", str(out), "--strict"]) == 4
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["experiment"] == experiment and "numpy" in run["versions"]
    assert "termination" not in run
    assert (out / "reports" / f"{report}.json").exists()
    assert run_cli([experiment, "--config", cfg, "--output", str(tmp_path / "lax")]) == 0


@pytest.mark.parametrize("doc", [
    {**SIM_CONFIG, "experiment": "lasalle", "forcing": FORCED["forcing"]},
    {**SIM_CONFIG, "experiment": "lasalle", "t_end": 0.0},
    {"experiment": "botsenyuk"},
], ids=["lasalle with forcing", "lasalle of one sample", "botsenyuk without its section"])
def test_validation_error_in_experiment_writes_nothing(tmp_path, capsys, doc):
    """A config that an experiment refuses exits 2 and leaves no output
    directory, also when the refusal comes after the run: a one-sample
    lasalle run has no trend to report."""
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert run_cli([doc["experiment"], "--config", cfg, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("validation error: ")
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["simulate", "lasalle"])
def test_refused_horizon_keeps_the_older_archive(tmp_path, capsys, experiment):
    """A run refused for a horizon that is not a whole number of steps,
    written over an older archive, leaves every file of it as it was: the
    writer touches the directory first when it writes its first chunk."""
    cfg = write_config(tmp_path, "c.json", {**SIM_CONFIG, "experiment": experiment})
    out = tmp_path / "out"
    assert run_cli([experiment, "--config", cfg, "--output", str(out)]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len([p for p in before if p.parent.name == "snapshots"]) == 3 * 3
    cfg = write_config(tmp_path, "bad.json", {**SIM_CONFIG, "experiment": experiment,
                                              "t_end": 0.1025})
    capsys.readouterr()
    assert run_cli([experiment, "--config", cfg, "--output", str(out)]) == 2
    assert "not a whole number of steps" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def _write_whole(outdir, traj):
    """The archive files of an in-memory trajectory written in one piece:
    energy.csv from one energy_table over every sample, then every
    snapshot triple."""
    (outdir / "snapshots").mkdir(parents=True)
    rows = energy.energy_table(traj)
    grid.write_csv(outdir / "energy.csv", CSV_HEADER, grid.row_template(*rows.shape),
                   rows.ravel().tolist())
    for k, s in enumerate(traj.samples):
        cli._save_state(outdir / "snapshots", f"{k:04d}_", s)


def _failing_step(real, n_ok):
    """The step function real, but its (n_ok + 1)-th call returns
    non-finite values."""
    calls = []

    def step(*args):
        calls.append(None)
        y = real(*args)
        return tuple(np.full_like(x, np.nan) for x in y) if len(calls) > n_ok else y
    return step


_STREAMED = {
    "forced": {**FORCED, "initial": SIM_CONFIG["initial"]},
    "linear": DAMPED_FORCED,
    "power_rk4": {**SIM_CONFIG, "dissipation": {"kind": "power", "alpha": 0.2, "k1": 1.0}},
    "lasalle": {**SIM_CONFIG, "experiment": "lasalle"},
    "diverged": SIM_CONFIG,
}


@pytest.mark.parametrize("case, n", [
    (case, n) for case in _STREAMED
    for n in (1, cli.CHUNK, cli.CHUNK + 1, 2 * cli.CHUNK + 3)
    if (case, n) != ("lasalle", 1)])
def test_streamed_archive_is_the_whole_trajectory_archive(tmp_path, monkeypatch, case, n):
    """A run of n samples that streams into its archive CHUNK samples at a
    time writes energy.csv, its snapshots and the lasalle report byte for
    byte as the same trajectory written from memory in one piece, on and
    next to the chunk boundaries; a diverged run of n samples too."""
    doc = dict(_STREAMED[case])
    experiment = doc.pop("experiment", "simulate")
    scheme = "explicit_rk4" if case == "power_rk4" else "imex_midpoint"
    doc["stepper"] = {"dt": 0.005, "scheme": scheme, "sample_every": 1}
    doc["t_end"] = 0.005 * (n - 1 if case != "diverged" else n + 4)
    out, ref, step = tmp_path / "out", tmp_path / "ref", stepping.step
    if case == "diverged":
        monkeypatch.setattr(stepping, "step", _failing_step(step, n - 1))
    cfg = write_config(tmp_path, "c.json", doc)
    assert run_cli([experiment, "--config", cfg, "--output", str(out)]) == (
        3 if case == "diverged" else 0)

    run = cli._parse_config(doc, experiment)
    if case == "diverged":
        monkeypatch.setattr(stepping, "step", _failing_step(step, n - 1))
        with pytest.raises(DivergedStateError) as err:
            stepping.integrate(cli._initial_state(run), run.config["t_end"], run.params,
                               run.spec, run.forcing, run.stepper)
        traj = err.value.trajectory
    else:
        traj = stepping.integrate(cli._initial_state(run), run.config["t_end"], run.params,
                                  run.spec, run.forcing, run.stepper)
    assert len(traj.samples) == n
    _write_whole(ref, traj)
    if experiment == "lasalle":
        cli._write_json(ref / "reports" / "lasalle.json", analysis.lasalle_report(traj))
    files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    assert len(files) == 1 + 3 * n + (experiment == "lasalle")
    assert files == sorted(p.relative_to(out) for p in out.rglob("*")
                           if p.is_file() and p.name != "run.json")
    for f in files:
        assert (out / f).read_bytes() == (ref / f).read_bytes(), f
    assert cli.replay(out) == {"verified": True, "rows": n}


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_run_and_replay(out, doc, n) -> tuple[int, int]:
    """The tracemalloc peaks of a simulate run of doc with n samples into
    the new directory out and of its replay, which must verify."""
    cfg = write_config(out.parent, f"{out.name}.json", {**doc, "t_end": 0.005 * (n - 1)})
    code = []
    peaks = (
        _traced_peak(lambda: code.append(
            run_cli(["simulate", "--config", cfg, "--output", str(out)]))),
        _traced_peak(lambda: code.append(cli.replay(out))))
    assert code == [0, {"verified": True, "rows": n}]
    return peaks


def test_memory_bounded_by_chunk(tmp_path):
    """Under tracemalloc, the peak of a simulate run with 8 times the
    samples of a short one on the same 20 x 20 grid, and the peak of its
    replay, stay within 1.3 times the short run's: the writer and replay
    hold at most CHUNK + 1 states, and, in replay, energy.csv's 8 floats
    per sample.  The first run fills the caches of the operators and the
    CSV template."""
    doc = {**FORCED, "grid": {"nx": 20, "ny": 20}, "stepper": {"dt": 0.005, "sample_every": 1}}
    short = cli.CHUNK + 1
    peaks = {n: _traced_run_and_replay(tmp_path / f"o{i}", doc, n)
             for i, n in enumerate((short, short, 8 * short))}
    for long_peak, short_peak in zip(peaks[8 * short], peaks[short]):
        assert long_peak <= 1.3 * short_peak, peaks


def test_memory_per_sample_below_100_bytes(tmp_path, monkeypatch):
    """On an 8 x 8 grid, whose states are small beside the rows, the
    tracemalloc peak of simulate, and that of replay, grows by less than
    100 bytes per sample from a run of 3 chunks to one of 25: the writer
    appends each chunk's energy.csv rows as it goes, and replay parses
    them from the open file into 8 floats (64 B) per sample.  Both runs
    span full chunks after the first, in which replay builds the grid's
    operators.  CPython's type attribute cache keeps, by address, up to
    4096 attribute names it looked up, and scipy builds a new one for each
    sparse product, so the cache is cleared at every chunk."""
    table_rows = cli._table_rows

    def rows(traj, n_new):
        sys._clear_type_cache()
        return table_rows(traj, n_new)

    monkeypatch.setattr(cli, "_table_rows", rows)
    doc = {**FORCED, "grid": {"nx": 8, "ny": 8}, "stepper": {"dt": 0.005, "sample_every": 1}}
    short, long = 3 * cli.CHUNK + 1, 25 * cli.CHUNK + 1
    peaks = {n: _traced_run_and_replay(tmp_path / f"o{i}", doc, n)
             for i, n in enumerate((short, short, long))}
    for long_peak, short_peak in zip(peaks[long], peaks[short]):
        assert (long_peak - short_peak) / (long - short) < 100, peaks


def test_run_diverging_after_first_chunk_replays(tmp_path, monkeypatch):
    """A run that diverges after its first chunk, written over a longer
    run's archive, leaves one energy.csv row per snapshot triple of its
    own, and its archive replays as verified."""
    out, n = tmp_path / "o", cli.CHUNK + 4
    doc = {**SIM_CONFIG, "stepper": {"dt": 0.005, "sample_every": 1}}
    cfg = write_config(tmp_path, "long.json", {**doc, "t_end": 0.005 * 3 * cli.CHUNK})
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    monkeypatch.setattr(stepping, "step", _failing_step(stepping.step, n - 1))
    cfg = write_config(tmp_path, "c.json", {**doc, "t_end": 0.005 * (n + 4)})
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 3
    rows = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    assert len(rows) == len(list((out / "snapshots").glob("*_h.csv"))) == n
    assert cli.replay(out) == {"verified": True, "rows": n}


def test_archive_closes_its_files(tmp_path):
    """A lasalle run of three chunks at 12 x 12 and its replay, each in an
    interpreter in development mode with ResourceWarning an error, leave
    no file open: an unclosed handle would print that warning."""
    doc = {**SIM_CONFIG, "experiment": "lasalle", "grid": {"nx": 12, "ny": 12},
           "stepper": {"dt": 0.005, "sample_every": 1}, "t_end": 0.005 * 2 * cli.CHUNK}
    cfg = write_config(tmp_path, "c.json", doc)
    out = str(tmp_path / "o")
    for args in (["lasalle", "--config", cfg, "--output", out], ["replay", "--output", out]):
        proc = _melab_process(*args, flags=("-X", "dev", "-W", "error::ResourceWarning"))
        assert proc.returncode == 0 and "ResourceWarning" not in proc.stderr, proc.stderr
    assert json.loads(proc.stdout) == {"verified": True, "rows": 2 * cli.CHUNK + 1}


def test_rewritten_archive_holds_only_its_snapshots(tmp_path):
    """A shorter run written into the output of a longer one leaves only its
    own snapshot triples, and the archive replays as verified."""
    out = tmp_path / "o"
    for t_end in (0.1, 0.05):
        cfg = write_config(tmp_path, f"c{t_end}.json", {
            **SIM_CONFIG, "stepper": {"dt": 0.025, "sample_every": 2}, "t_end": t_end})
        assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [
        f"{k:04d}_{f}.csv" for k in range(2) for f in ("h", "u", "ut")]
    assert cli.replay(out) == {"verified": True, "rows": 2}


def test_stale_snapshot_cleanup_is_bounded(tmp_path):
    """A 17-sample simulate at 8 x 8 written over 3000 stale snapshot
    triples removes them one directory entry at a time: its tracemalloc
    peak stays within 200 KB of the same run into a new directory.  It
    removes exactly the names that match [0-9]*_*.csv.  The first run
    fills the caches of the operators and the CSV template."""
    doc = {**FORCED, "grid": {"nx": 8, "ny": 8}, "stepper": {"dt": 0.005, "sample_every": 1},
           "t_end": 0.005 * cli.CHUNK}
    cfg = write_config(tmp_path, "c.json", doc)
    snap = tmp_path / "o2" / "snapshots"
    snap.mkdir(parents=True)
    kept = ["notes.txt", "x0001_u.csv", "0001_h.txt", "0001.csv"]
    for name in kept + [f"{k:04d}_{f}.csv" for k in range(3000) for f in ("h", "u", "ut")]:
        (snap / name).touch()
    code = []
    peaks = [_traced_peak(lambda: code.append(run_cli(
        ["simulate", "--config", cfg, "--output", str(tmp_path / f"o{i}")]))) for i in range(3)]
    assert code == [0, 0, 0]
    assert peaks[2] - peaks[1] <= 200e3, peaks
    assert sorted(p.name for p in snap.iterdir()) == sorted(
        kept + [f"{k:04d}_{f}.csv" for k in range(cli.CHUNK + 1) for f in ("h", "u", "ut")])
    assert cli.replay(tmp_path / "o2") == {"verified": True, "rows": cli.CHUNK + 1}


@pytest.mark.parametrize("experiment, extra", [
    ("simulate", {}),
    ("perturb", {**_PERIODIC, "perturbation": {"amplitude": 1e150}}),
])
def test_overflow_stderr_is_one_line(tmp_path, experiment, extra):
    """An overflowing run, in its own process with numpy's default error
    handling, writes exactly one 'diverged:' line to stderr and no numpy
    warning, and its archive replays as verified.  perturb's perturbation of
    amplitude 1e150 is mean-zero to round-off and is accepted."""
    doc = {**SIM_CONFIG, "experiment": experiment, "grid": {"nx": 8, "ny": 8},
           "stepper": {"dt": 0.5, "sample_every": 1},
           "initial": {"kind": "random", "amplitude": 1e150, "n_modes": 4}, "t_end": 5.0,
           **extra}
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    proc = _melab_process(experiment, "--config", cfg, "--output", str(out))
    assert proc.returncode == 3, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("diverged: "), err
    assert cli.replay(out) == {"verified": True, "rows": 1}


def _readme_config_rows() -> dict:
    """README's config table: section -> {key: the text in parentheses
    after the key}, for every key written as `key` (default)."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return {name.strip("`"): dict(re.findall(r"`(\w+)` \(([^)]*)\)", keys))
            for name, keys in re.findall(r"^\| (.+?) \| (.*) \|$", text, re.M)}


# each config section's keys and defaults: cli._SECTIONS, and the fields of
# every Schema type, by the last word of its section name
_SCHEMAS = {**cli._SECTIONS, **{
    cls.section.split()[-1]: {
        grid._config_key(f): (f.type, f.default if f.default_factory is dataclasses.MISSING
                              else f.default_factory())
        for f in dataclasses.fields(cls)}
    for cls in grid.Schema.__subclasses__()}}


def _documents(text: str, default) -> bool:
    if default is dataclasses.MISSING:
        return text.startswith("required")
    if default is None or default == ():
        return text.startswith("none")
    if isinstance(default, str):
        return text.startswith(f"`{default}`")
    return float(re.match(r"[-+.\de]+", text)[0]) == default


@pytest.mark.parametrize("section", list(_SCHEMAS))
def test_readme_config_table_matches_schema(section):
    """README's config table names exactly each section's keys, each with
    its default: a number, a `string`, "none" or "required"."""
    keys, row = _SCHEMAS[section], _readme_config_rows()[section]
    assert set(row) == set(keys)
    for key, (_, default) in keys.items():
        assert _documents(row[key], default), (key, row[key], default)
