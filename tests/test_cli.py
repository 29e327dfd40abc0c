"""Experiment runner: archives, replay verification, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from melab import analysis, cli


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
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    run_cli(["simulate", "--config", cfg, "--output", str(out)])
    lines = (out / "energy.csv").read_text().splitlines()
    cols = lines[2].split(",")
    cols[1] = f"{float(cols[1]) + 1e-6:.17g}"
    lines[2] = ",".join(cols)
    (out / "energy.csv").write_text("\n".join(lines) + "\n")
    rep = cli.replay(out)
    assert not rep["verified"]
    assert rep["first_differing_row"] == 1
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
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 3
    run = json.loads((out / "run.json").read_text())
    assert run["termination"] == {"kind": "diverged", "t": 0.5}
    assert len((out / "energy.csv").read_text().splitlines()) == 2


def test_unreadable_config():
    assert run_cli(["simulate", "--config", "/nonexistent.json"]) == 2


def test_experiment_mismatch(tmp_path):
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    assert run_cli(["lasalle", "--config", cfg, "--output", str(tmp_path / "o")]) == 2


def test_check_conditions_trivial(tmp_path):
    doc = {
        "experiment": "check-conditions",
        "material": {"nu1": 0.5},
        "conditions": {"e1_0": 0.0, "c_e": 0.0, "c_omega": 1.0, "c_small": 1.0},
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
        "conditions": {"e1_0": 10.0, "c_e": 5.0, "c_omega": 1.0, "c_small": 1.0},
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
        "r_critical_consts": {"C1": 0.5, "C2": 5.0, "C3": 0.1, "eps": 1.0},
    }
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert run_cli(["find-periodic", "--config", cfg, "--output", str(out), "--strict"]) == 4
    rep = json.loads((out / "reports" / "r_critical.json").read_text())
    assert not rep["admissible"]


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


def test_eigenbasis_replays_bit_for_bit_across_processes(tmp_path):
    """Two processes building the same 24 x 24 basis write byte-identical
    basis.npz files: the Lanczos start vector is fixed."""
    doc = {"experiment": "eigenbasis", "grid": {"nx": 24, "ny": 24},
           "basis": {"m": 8, "m_magnetic": 8}}
    cfg = write_config(tmp_path, "c.json", doc)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    files = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "melab.cli", "eigenbasis", "--config", cfg,
                               "--output", str(out)], env=env, capture_output=True, text=True,
                              timeout=300)
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


def test_sweep_serial(tmp_path):
    doc = {
        "experiment": "check-conditions",
        "material": {"nu1": 0.5},
        "conditions": {"e1_0": 0.0, "c_e": 0.0, "c_omega": 1.0, "c_small": 1.0},
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


def test_replay_corrupt_archive(tmp_path):
    (tmp_path / "arc").mkdir()
    assert run_cli(["replay", "--output", str(tmp_path / "arc")]) == 2


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


def test_savetxt_written_archive_replays_and_matches(tmp_path, monkeypatch):
    """An archive whose snapshots and energy.csv numpy's savetxt wrote, as
    earlier versions did, replays as verified, and the archive's own
    writer reproduces it byte for byte."""
    doc = {**FORCED, "initial": SIM_CONFIG["initial"]}
    cfg = write_config(tmp_path, "c.json", doc)
    ours, ref = tmp_path / "ours", tmp_path / "ref"
    assert run_cli(["simulate", "--config", cfg, "--output", str(ours)]) == 0
    monkeypatch.setattr(cli, "save_scalar_csv", _savetxt_snapshot("x,y,value"))
    monkeypatch.setattr(cli, "save_vector_csv", _savetxt_snapshot("x,y,vx,vy"))
    monkeypatch.setattr(cli, "_write_energy_csv", lambda path, rows: np.savetxt(
        path, rows, fmt="%.17g", delimiter=",", header=cli.energy_mod.CSV_HEADER, comments=""))
    assert run_cli(["simulate", "--config", cfg, "--output", str(ref)]) == 0
    assert cli.replay(ref)["verified"]
    files = sorted(p.relative_to(ref) for p in ref.rglob("*.csv"))
    assert len(files) == 1 + 3 * 3
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


def _drop_last_column(text):
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


@pytest.mark.parametrize("name, damage", [
    ("run.json", lambda text: text[: len(text) // 2]),
    ("run.json", lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                          if k != "config"})),
    ("energy.csv", lambda text: text.replace("\n0.", "\nzero.", 1)),
    ("energy.csv", _drop_last_column),
], ids=["run.json not JSON", "run.json without config", "energy.csv unparsable",
        "energy.csv with 7 columns"])
def test_replay_damaged_archive_exits_2(tmp_path, capsys, name, damage):
    """A run.json or energy.csv that does not parse is a validation error
    naming the file."""
    cfg = write_config(tmp_path, "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output", str(out)]) == 0
    path = out / name
    path.write_text(damage(path.read_text()))
    capsys.readouterr()
    assert run_cli(["replay", "--output", str(out)]) == 2
    assert f"{path}: " in capsys.readouterr().err


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
