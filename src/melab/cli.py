"""Experiment runner: file-driven, reproducible studies over the library.

    melab <experiment> --config <file> [--output <dir>] [--strict] [--jobs N]

Each run writes a self-describing artifact directory: run.json (the config
as parsed, every default filled in, plus versions and BLAS/LAPACK builds),
energy.csv, snapshots/, reports/*.json.  An experiment writes its data files
and returns an _Outcome; _run_single writes run.json and the reports of
every outcome, a --strict refusal's included, and maps it to an exit code:
0 completed, 2 validation error, 3 divergence, 4 failed condition check
under --strict.  A divergence prints one "diverged: <message>" line and
archives the run that diverged, up to its last finite sample, so that it
replays.

Every archived trajectory goes through one writer, _ArchiveWriter, which
writes the snapshots and energy.csv rows of CHUNK samples at a time;
simulate and lasalle stream into it while they step, and replay parses
energy.csv in place and checks the snapshots CHUNK at a time, so neither
holds more than CHUNK + 1 states, however long the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .grid import (
    Grid2D,
    MelabError,
    ParameterError,
    load_scalar_csv,
    load_vector_csv,
    parse_section,
    row_template,
    save_scalar_csv,
    save_vector_csv,
    write_csv,
)
from .model import (
    DissipationSpec,
    DivergedStateError,
    Forcing,
    MaterialParams,
    State,
    build_galerkin_basis,
    random_state,
)
from .stepping import StepperConfig, Trajectory, _step_count, integrate
from . import analysis, energy as energy_mod, orbit as orbit_mod

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3
EXIT_CONDITION = 4

# samples that the archive writer writes, and replay loads, at a time.  The
# memory of a run grows with it; a chunk of 1 interleaves every step with
# CSV formatting, which slows the steps by about a third at 32x32, as the
# banded factor and the formatting then share the CPU cache
CHUNK = 16


# ---------------------------------------------------------------------------
# config plumbing

# The config schema beyond the parameter types, whose sections (grid,
# material, dissipation, forcing, stepper) their from_dict parses: key ->
# (type name, default) of every other section and of the top level.  MISSING
# marks a required key, a None default an optional one that may be null.
_SECTIONS = {
    "initial": {"kind": ("str", "zero"), "amplitude": ("float", 0.05), "n_modes": ("int", 6)},
    "basis": {"m": ("int", 8), "m_magnetic": ("int", 8)},
    "perturbation": {"amplitude": ("float", 1e-3)},
    # the constants of the paper's conditions that melab cannot derive offline;
    # check-conditions and find-periodic --strict refuse a null one they need
    "conditions": {"c_mu": ("float", None), "c_e": ("float", None), "c_small": ("float", None)},
    "disk_mode": {"m": ("int", 1), "radial_points": ("int", 2000), "table_max": ("int", 10)},
    "botsenyuk": {"t": ("tuple", MISSING), "x": ("tuple", MISSING),
                  "gamma": ("tuple", MISSING), "a": ("float", MISSING)},
    "r_critical_consts": {"C1": ("float", None), "C2": ("float", None), "C3": ("float", None)},
}
_TOP = {
    "experiment": ("str", None), "output_dir": ("str", None), "sweep": ("list", None),
    "seed": ("int", 0), "tol": ("float", 1e-8), "max_iter": ("int", 60),
    # None: the experiment's horizon, 1 for simulate, 50 for lasalle, 5 periods for perturb
    "t_end": ("float", None),
    "grid": ("dict", {}), "material": ("dict", {}), "dissipation": ("dict", {}),
    "forcing": ("dict", None), "stepper": ("dict", {}),
    **{name: ("dict", {}) for name in _SECTIONS}, "botsenyuk": ("dict", None),
}
_STEPPING = ("simulate", "find-periodic", "perturb", "lasalle")
# retired keys of the sections replay parses, which it drops from older
# archives' run.json: the sampled dissipation validators'
_RETIRED_KEYS = {"dissipation": ("k0", "r_rho", "k_c")}


@dataclass
class _Run:
    """A config with its keys checked and every default filled in (what
    run.json records) and the parameter objects built from it."""

    config: dict
    grid: Grid2D
    params: MaterialParams
    spec: DissipationSpec
    forcing: Forcing
    stepper: StepperConfig | None


def _parse_config(raw: dict, experiment: str | None = None) -> _Run:
    cfg = parse_section(raw, _TOP, "config")
    if experiment and cfg["experiment"] not in (None, experiment):
        raise ParameterError("config experiment does not match the command")
    experiment = cfg["experiment"] = experiment or cfg["experiment"]
    grid, params, spec, forcing = _physics(cfg)
    stepper = None
    if cfg["stepper"] or experiment in _STEPPING:
        stepper = StepperConfig.from_dict(cfg["stepper"])
    cfg.update(grid=grid.to_dict(), material=params.to_dict(), dissipation=spec.to_dict(),
               forcing=forcing.to_dict(), stepper=stepper.to_dict() if stepper else {})
    for name, keys in _SECTIONS.items():
        if cfg[name] is not None:
            cfg[name] = parse_section(cfg[name], keys, name)
    if cfg["t_end"] is None:
        cfg["t_end"] = {"simulate": 1.0, "lasalle": 50.0, "perturb": 5.0 * forcing.period}.get(
            experiment)
    return _Run(cfg, grid, params, spec, forcing, stepper)


def _physics(cfg: dict) -> tuple:
    """The grid, material, dissipation law and forcing of a config's sections."""
    forcing = cfg.get("forcing")
    return (Grid2D.from_dict(cfg.get("grid", {})),
            MaterialParams.from_dict(cfg.get("material", {})),
            DissipationSpec.from_dict(cfg.get("dissipation", {})),
            Forcing.zero() if forcing is None else Forcing.from_dict(forcing))


def _resolve_output(args, output_dir: str | None) -> Path:
    """--output, then the config's output_dir, then $MELAB_OUTPUT/<experiment>,
    then melab-runs/<experiment>."""
    if args.output:
        return Path(args.output)
    if output_dir is not None:
        return Path(output_dir)
    return Path(os.environ.get("MELAB_OUTPUT") or "melab-runs") / args.experiment


def _basis(run: _Run):
    b = run.config["basis"]
    return build_galerkin_basis(run.grid, run.params, m=b["m"], m_magnetic=b["m_magnetic"])


def _initial_state(run: _Run) -> State:
    init = run.config["initial"]
    if init["kind"] not in ("zero", "random"):
        raise ParameterError("initial.kind must be 'zero' or 'random'")
    if init["kind"] == "zero":
        return State.zero(run.grid)
    return random_state(run.grid, _basis(run), seed=run.config["seed"],
                        amplitude=init["amplitude"], n_modes=init["n_modes"])


# ---------------------------------------------------------------------------
# artifact writing

def _save_state(directory: Path, stem: str, s: State) -> None:
    """Write a state as the CSV triple <stem>u.csv, <stem>ut.csv, <stem>h.csv."""
    save_vector_csv(directory / f"{stem}u.csv", s.u)
    save_vector_csv(directory / f"{stem}ut.csv", s.ut)
    save_scalar_csv(directory / f"{stem}h.csv", s.h)


def _load_state(directory: Path, stem: str, grid: Grid2D, t: float) -> State:
    """Read the CSV triple that _save_state wrote back into a state at time t."""
    return State.from_fields(
        load_vector_csv(directory / f"{stem}u.csv", grid, bc="dirichlet_zero"),
        load_vector_csv(directory / f"{stem}ut.csv", grid, bc="dirichlet_zero"),
        load_scalar_csv(directory / f"{stem}h.csv", grid, bc="neumann"), t)


def _build_dependency(module, dep: str) -> str:
    """Name and version of the BLAS or LAPACK a module was built against."""
    d = getattr(module.__config__, "CONFIG", {}).get("Build Dependencies", {}).get(dep, {})
    return f"{d.get('name', 'unknown')} {d.get('version', '')}".strip()


def _write_run_json(outdir: Path, config: dict, extra: dict) -> None:
    doc = {
        "config": config,
        "versions": {
            "melab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            **{f"{m.__name__}_{dep}": _build_dependency(m, dep)
               for m in (np, scipy) for dep in ("blas", "lapack")},
        },
        **extra,
    }
    _write_json(outdir / "run.json", doc)


def _write_json(path: Path, doc: dict) -> None:
    """The one JSON writer of an archive: run.json, reports, orbit.json,
    constants.json.  It makes the file's directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.floating, np.integer)):
        return obj.tolist()
    return str(obj)


def _table_rows(traj: Trajectory, n_new: int) -> np.ndarray:
    """energy_table's rows of the last n_new samples of traj, after which
    traj drops every sample but its last.  Before them traj holds at most
    one sample, whose row was taken earlier.  A row depends only on its
    sample and on the interval that ends there, so the rows are, byte for
    byte, the whole trajectory's."""
    rows = energy_mod.energy_table(traj)[-n_new:]
    for x in (traj.samples, traj.times, traj.energies):
        del x[:-1]
    return rows


class _ArchiveWriter(Trajectory):
    """A trajectory that writes itself into the archive at outdir as it
    grows.  Whenever it holds CHUNK samples past the last one written, it
    writes their snapshot triples, then appends their energy.csv rows, and
    drops all but the last; a limit-set run keeps their times, energies
    and ``analysis.lasalle_series`` for its report.  Its first write
    removes an earlier run's snapshots and starts energy.csv with its
    header: nothing touches outdir before then.  ``close`` writes the rest."""

    def __init__(self, outdir: Path, lasalle: bool = False, **trajectory):
        super().__init__(**trajectory)
        self.outdir = outdir
        self.written = 0
        self.series = [] if lasalle else None

    def add(self, sample, t: float, e: float) -> None:
        super().add(sample, t, e)
        if len(self.samples) - (self.written > 0) == CHUNK:
            self._write()

    def _write(self) -> None:
        new = self.samples[self.written > 0:]    # a copy: _table_rows empties samples
        if not new:
            return
        snap = self.outdir / "snapshots"
        if not self.written:
            snap.mkdir(parents=True, exist_ok=True)
            with os.scandir(snap) as entries:    # glob would list the whole directory
                for old in (e for e in entries if fnmatchcase(e.name, "[0-9]*_*.csv")):
                    os.unlink(old)
        for k, s in enumerate(new, self.written):
            _save_state(snap, f"{k:04d}_", s)
        rows = _table_rows(self, len(new))
        if self.series is not None:
            self.series.append(np.vstack([rows[:, :2].T, analysis.lasalle_series(new)]))
        write_csv(self.outdir / "energy.csv", None if self.written else energy_mod.CSV_HEADER,
                  row_template(*rows.shape), rows.ravel().tolist())
        self.written += len(new)

    close = _write

    def lasalle_report(self) -> dict:
        """``analysis.lasalle_report`` of the closed run, from the times,
        energies and series it kept."""
        t, e, *series = np.concatenate(self.series, axis=1)
        return analysis.lasalle_trends(t, series, e)


def _archive_trajectory(outdir: Path, traj: Trajectory) -> dict:
    """Close a trajectory streamed into outdir's archive, or write an
    in-memory one through the same writer; returns the trajectory's
    run.json entry."""
    if not isinstance(traj, _ArchiveWriter):
        writer = _ArchiveWriter(outdir, params=traj.params, dissipation=traj.dissipation,
                                forcing=traj.forcing, termination=traj.termination)
        for sample in zip(traj.samples, traj.times, traj.energies):
            writer.add(*sample)
        traj = writer
    traj.close()
    return {"termination": asdict(traj.termination)}


@dataclass
class _Outcome:
    """An experiment's result: its run.json entries beyond config and
    versions, its reports by name, and whether its checks passed."""

    record: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    passed: bool = True


# ---------------------------------------------------------------------------
# experiments

def _exp_integrate(run, outdir, strict):
    """simulate and lasalle: integrate from the initial state to t_end,
    streaming the run into its archive; lasalle, which needs no forcing,
    no mechanical damping and a trend of at least two samples, also
    reports on the limit set.  Its refusals come before the first write."""
    lasalle = run.config["experiment"] == "lasalle"
    if lasalle and (run.spec.kind != "none" or not run.forcing.is_zero):
        raise ParameterError("the limit-set experiment needs no forcing and no mechanical damping")
    state0 = _initial_state(run)
    if lasalle and _step_count(state0.t, run.config["t_end"], run.stepper.dt) == 0:
        raise ParameterError("trajectory too short: the limit-set experiment needs t_end > 0")
    traj = _ArchiveWriter(outdir, lasalle)
    integrate(state0, run.config["t_end"], run.params, run.spec, run.forcing, run.stepper, traj)
    record = _archive_trajectory(outdir, traj)
    return _Outcome(record, {"lasalle": traj.lasalle_report()} if lasalle else {})


def _ledger(run, *sections: str) -> energy_mod.ConstantsLedger:
    """The constants of a verdict in one ledger: C_Omega and eps measured by
    ``energy.assemble_constants``, and the given constants of the named
    config sections, each refused while null."""
    ledger = energy_mod.assemble_constants(run.grid, run.params, run.spec.linear_alpha)
    for section in sections:
        for key, value in run.config[section].items():
            if value is None:
                raise ParameterError(f"{section}.{key} is needed and not given: melab cannot "
                                     "measure it, so the config must set it")
            ledger.set(key, value, "given")
    return ledger


def _r_critical(run, ledger) -> dict:
    """orbit.r_critical of the run's forcing, every constant from the ledger."""
    return asdict(orbit_mod.r_critical(
        run.forcing.l1_l2_norm(run.grid), run.spec.alpha, run.params.nu1, run.forcing.period,
        {key: ledger.value(key) for key in ("C1", "C2", "C3", "eps")},
    ))


def _exp_find_periodic(run, outdir, strict):
    """The periodic orbit by Picard iteration; under --strict only once
    r_critical, reported with its ledger, admits it."""
    reports = {}
    if strict:
        ledger = _ledger(run, "r_critical_consts")
        rc = reports["r_critical"] = {**_r_critical(run, ledger), "constants": ledger.entries}
        if not rc["admissible"]:
            print(f"refusing under --strict: {rc['diagnostic']}", file=sys.stderr)
            return _Outcome(reports=reports, passed=False)
    po = orbit_mod.find_periodic(
        _initial_state(run), run.params, run.spec, run.forcing, run.stepper,
        tol=run.config["tol"], max_iter=run.config["max_iter"],
    )
    record = _archive_trajectory(outdir, po.trajectory)
    _write_json(outdir / "orbit.json", po.to_report())
    _save_state(outdir, "zstar_", po.z_star)
    return _Outcome({**record, "orbit": po.to_report()}, reports)


def _exp_perturb(run, outdir, strict):
    grid, params, spec, forcing = run.grid, run.params, run.spec, run.forcing
    po = orbit_mod.find_periodic(
        State.zero(grid), params, spec, forcing, run.stepper,
        tol=run.config["tol"], max_iter=run.config["max_iter"],
    )
    basis = _basis(run)
    seed_state = random_state(grid, basis, seed=run.config["seed"],
                              amplitude=run.config["perturbation"]["amplitude"])
    pert = orbit_mod.run_perturbation(
        po, seed_state.u, seed_state.ut, seed_state.h, run.config["t_end"],
        params, spec, forcing, run.stepper,
    )
    ep0 = float(pert.ep_series[0])
    c_e = max(energy_mod.energy_e1(s, params) for s in pert.base_traj.samples)
    consts = energy_mod.assemble_constants(
        grid, params, spec.alpha, basis=basis, c_e=c_e, c_h=pert.c_h, ep0=ep0
    )
    report = orbit_mod.check_decay_bound(pert, consts, spec.alpha, params.nu1)
    _write_json(outdir / "constants.json", consts.entries)
    write_csv(outdir / "ep_series.csv", "t,e_p", row_template(len(pert.times), 2),
              np.column_stack([pert.times, pert.ep_series]).ravel().tolist())
    return _Outcome({"orbit": po.to_report()}, {"decay": report}, not report["violations"])


def _exp_check_conditions(run, outdir, strict):
    """The smallness conditions and, under linear damping, r_critical, on
    C_Omega, eps and E1 of the initial state as measured and the rest as given."""
    params, r_crit = run.params, run.spec.kind == "linear"
    ledger = _ledger(run, "conditions", *(("r_critical_consts",) if r_crit else ()))
    ledger.set("e1_0", energy_mod.energy_e1(_initial_state(run), params))
    v = ledger.value
    reg = analysis.condition_regularity(
        v("e1_0"), run.forcing.l1_h1_norm(run.grid), params.nu1, v("c_mu"))
    stab = analysis.condition_stability(params.nu1, v("c_e"), v("c_omega"), v("c_small"))
    doc = {"regularity": reg, "stability": stab}
    passed = reg["satisfied"] and stab["satisfied"]
    if r_crit:
        doc["r_critical"] = _r_critical(run, ledger)
        passed = passed and doc["r_critical"]["admissible"]
    doc["constants"] = ledger.entries
    return _Outcome(reports={"conditions": doc}, passed=passed)


def _exp_disk_mode(run, outdir, strict):
    d = run.config["disk_mode"]
    spec = analysis.DiskModeSpec.build(m=d["m"], radial_points=d["radial_points"])
    report = analysis.disk_mode_residual(spec, run.params)
    table = analysis.bessel_root_table(d["table_max"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "bessel_roots.csv", "m,zeta_m", row_template(len(table), 2),
              [x for row in table for x in row])
    return _Outcome(reports={"disk_mode": report})


def _exp_eigenbasis(run, outdir, strict):
    basis = _basis(run)
    outdir.mkdir(parents=True, exist_ok=True)
    basis.save(outdir / "basis.npz")
    return _Outcome(reports={"eigenbasis": {
        "grid_signature": run.grid.signature(),
        "m": basis.m,
        "m_magnetic": basis.m_magnetic,
        "elastic_eigenvalues": basis.elastic_vals,
        "magnetic_eigenvalues": basis.magnetic_vals,
    }})


def _exp_botsenyuk(run, outdir, strict):
    b = run.config["botsenyuk"]
    if b is None:
        raise ParameterError("the botsenyuk experiment needs a 'botsenyuk' section")
    inp = analysis.BotsenyukInput(
        t_grid=np.asarray(b["t"]), x=np.asarray(b["x"]), gamma=np.asarray(b["gamma"]), a=b["a"],
    )
    report = analysis.botsenyuk_check(inp)
    ok = report["admissible"] and report.get("conclusion_holds", False)
    return _Outcome(reports={"botsenyuk": report}, passed=ok)


_RUNNERS = {
    "simulate": _exp_integrate,
    "find-periodic": _exp_find_periodic,
    "perturb": _exp_perturb,
    "lasalle": _exp_integrate,
    "check-conditions": _exp_check_conditions,
    "disk-mode": _exp_disk_mode,
    "eigenbasis": _exp_eigenbasis,
    "botsenyuk": _exp_botsenyuk,
}


# ---------------------------------------------------------------------------
# replay verification

class NoTrajectoryError(MelabError):
    """An archive whose run.json has no 'termination': it holds no trajectory."""


def replay(archive_dir) -> dict:
    """Rebuild the stored snapshots, recompute energy.csv from them with
    the archive writer's ``energy.energy_table`` and cross-check it against
    the stored one, CHUNK snapshots at a time; a mismatch beyond 1e-10 is
    reported with the first differing row, by its index in the file.
    Only run.json's grid, material, dissipation and forcing sections are
    parsed, so a key retired from any other section cannot stop a replay.
    energy.csv is parsed from the open file: only its 8 floats per sample
    are held.  A damaged file raises MelabError naming it (no rows, a
    header other than CSV_HEADER, no parse, a column or row count other
    than the header's or the snapshot triples', all refused before any
    snapshot loads), an archive of no trajectory NoTrajectoryError."""
    arc = Path(archive_dir)
    path = arc / "run.json"
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise MelabError(f"{path}: not JSON: {err}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise MelabError(f"{path}: no 'config' section")
    if "termination" not in doc:
        raise NoTrajectoryError(f"{path}: the {doc['config'].get('experiment')!r} archive "
                                "holds no trajectory to replay")
    for name, keys in _RETIRED_KEYS.items():
        section = doc["config"].get(name)
        if isinstance(section, dict):
            for key in keys:
                section.pop(key, None)
    grid, params, spec, forcing = _physics(doc["config"])
    path, n_cols = arc / "energy.csv", energy_mod.CSV_HEADER.count(",") + 1
    with open(path) as fh:
        header, rows_at = fh.readline().rstrip("\n"), fh.tell()
        if not fh.readline():
            raise MelabError(f"{path}: no rows")
        if header != energy_mod.CSV_HEADER:
            raise MelabError(f"{path}: header {header!r}, expected {energy_mod.CSV_HEADER!r}")
        fh.seek(rows_at)
        try:
            stored = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise MelabError(f"{path}: {err}") from None
    if stored.shape[1] != n_cols:
        raise MelabError(f"{path}: {stored.shape[1]} columns, expected {n_cols}")
    snap = arc / "snapshots"
    n_snap = sum(e.name.endswith("_h.csv") for e in os.scandir(snap))    # no list of 3n names
    if n_snap != len(stored):
        raise MelabError(f"{path}: {len(stored)} rows, but {n_snap} snapshot triples")
    traj = Trajectory(params=params, dissipation=spec, forcing=forcing)
    for start in range(0, len(stored), CHUNK):
        chunk = stored[start:start + CHUNK]
        for k, t in enumerate(chunk[:, 0].tolist(), start):
            s = _load_state(snap, f"{k:04d}_", grid, t)
            traj.add(s, t, energy_mod.energy_total(s, params))
        rows = _table_rows(traj, len(chunk))
        bad = np.argwhere(np.abs(rows - chunk) > 1e-10)
        if len(bad):
            r, c = bad[0]
            return {
                "verified": False,
                "first_differing_row": int(start + r),
                "column": energy_mod.CSV_HEADER.split(",")[c],
                "stored": float(chunk[r, c]),
                "recomputed": float(rows[r, c]),
            }
    return {"verified": True, "rows": int(stored.shape[0])}


# ---------------------------------------------------------------------------
# entry point

def _run_single(experiment: str, config: dict, outdir: Path, strict: bool) -> int:
    """Run one experiment and write its record: run.json and the reports
    of its outcome, or, on a divergence, one 'diverged:' line and the
    archive of the trajectory that diverged."""
    try:
        run = _parse_config(config, experiment)
        outcome = _RUNNERS[experiment](run, outdir, strict)
        code = EXIT_CONDITION if strict and not outcome.passed else EXIT_OK
    except DivergedStateError as err:
        print(f"diverged: {err}", file=sys.stderr)
        outcome, code = _Outcome(_archive_trajectory(outdir, err.trajectory)), EXIT_DIVERGED
    except MelabError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    _write_run_json(outdir, run.config, outcome.record)
    for name, doc in outcome.reports.items():
        _write_json(outdir / "reports" / f"{name}.json", doc)
    return code


def _run_sweep_entry(payload):
    experiment, base, override, outdir, strict = payload
    config = dict(base)
    config.update(override)
    config.pop("sweep", None)
    return _run_single(experiment, config, Path(outdir), strict)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="melab", description="magnetoelastic system laboratory"
    )
    parser.add_argument("experiment", choices=(*_RUNNERS, "replay"))
    parser.add_argument("--config", required=False)
    parser.add_argument("--output", default=None)
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return EXIT_VALIDATION

    if args.experiment == "replay":
        target = args.output or args.config
        if not target:
            print("replay needs --config or --output pointing at an archive", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            report = replay(target)
        except (OSError, MelabError) as err:
            what = "nothing to replay" if isinstance(err, NoTrajectoryError) else "corrupt archive"
            print(f"{what}: {err}", file=sys.stderr)
            return EXIT_VALIDATION
        print(json.dumps(report, indent=2))
        return EXIT_OK if report["verified"] else EXIT_VALIDATION

    if not args.config:
        print("--config is required", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"unreadable config: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        top = parse_section(config, _TOP, "config")
        for i, entry in enumerate(top["sweep"] or ()):
            parse_section(entry, _TOP, f"sweep entry {i}")
    except ParameterError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    outdir = _resolve_output(args, top["output_dir"])
    if top["sweep"]:
        payloads = [
            (args.experiment, config, entry, str(outdir / f"sweep_{i:03d}"), args.strict)
            for i, entry in enumerate(top["sweep"])
        ]
        # no more workers than sweep entries or CPUs: a pool forks them all at once
        workers = min(args.jobs, len(payloads), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                codes = list(pool.map(_run_sweep_entry, payloads))
        else:
            codes = [_run_sweep_entry(p) for p in payloads]
        return max(codes)
    return _run_single(args.experiment, config, outdir, args.strict)


if __name__ == "__main__":
    sys.exit(main())
