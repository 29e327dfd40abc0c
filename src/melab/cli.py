"""Experiment runner: file-driven, reproducible studies over the library.

    melab <experiment> --config <file> [--output <dir>] [--strict] [--jobs N]

Each run writes a self-describing artifact directory: run.json (the config
as parsed, every default filled in, plus versions and BLAS/LAPACK builds),
energy.csv, snapshots/, reports/*.json.  Exit codes:
0 completed, 2 validation error, 3 divergence, 4 failed condition check
under --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass
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
from .stepping import StepperConfig, Trajectory, integrate
from . import analysis, energy as energy_mod, orbit as orbit_mod

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3
EXIT_CONDITION = 4


# ---------------------------------------------------------------------------
# config plumbing

# The config schema beyond the parameter types, whose sections (grid,
# material, dissipation, forcing, stepper) their from_dict parses: key ->
# (type name, default) of every other section and of the top level.  MISSING
# marks a required key, a None default an optional one that may be null.
_SECTIONS = {
    "initial": {"kind": ("str", "zero"), "amplitude": ("float", 0.05), "n_modes": ("int", 6)},
    "basis": {"m": ("int", 8), "m_magnetic": ("int", 8)},
    # the perturbation seed defaults to the top-level seed
    "perturbation": {"seed": ("int", None), "amplitude": ("float", 1e-3)},
    "conditions": {"c_mu": ("float", 1.0), "e1_0": ("float", 0.0), "c_e": ("float", 0.0),
                   "c_omega": ("float", 1.0), "c_small": ("float", 1.0)},
    "disk_mode": {"m": ("int", 1), "radial_points": ("int", 2000), "table_max": ("int", 10)},
    "botsenyuk": {"t": ("tuple", MISSING), "x": ("tuple", MISSING),
                  "gamma": ("tuple", MISSING), "a": ("float", MISSING)},
    "r_critical_consts": {"C1": ("float", 0.5), "C2": ("float", 0.02), "C3": ("float", 0.1),
                          "eps": ("float", 1.0)},
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
    grid = Grid2D.from_dict(cfg["grid"])
    params = MaterialParams.from_dict(cfg["material"])
    spec = DissipationSpec.from_dict(cfg["dissipation"])
    forcing = Forcing.from_dict(cfg["forcing"]) if cfg["forcing"] is not None else Forcing.zero()
    stepper = None
    if cfg["stepper"] or experiment in _STEPPING:
        stepper = StepperConfig.from_dict(cfg["stepper"])
    cfg.update(grid=grid.to_dict(), material=params.to_dict(), dissipation=spec.to_dict(),
               forcing=forcing.to_dict(), stepper=stepper.to_dict() if stepper else {})
    for name, keys in _SECTIONS.items():
        if cfg[name] is not None:
            cfg[name] = parse_section(cfg[name], keys, name)
    if cfg["perturbation"]["seed"] is None:
        cfg["perturbation"]["seed"] = cfg["seed"]
    if cfg["t_end"] is None:
        cfg["t_end"] = {"simulate": 1.0, "lasalle": 50.0, "perturb": 5.0 * forcing.period}.get(
            experiment)
    return _Run(cfg, grid, params, spec, forcing, stepper)


def _resolve_output(args, output_dir: str | None) -> Path:
    if args.output:
        return Path(args.output)
    env = os.environ.get("MELAB_OUTPUT")
    if env:
        return Path(env) / args.experiment
    return Path(output_dir) if output_dir is not None else Path("melab-runs") / args.experiment


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

def _write_energy_csv(path: Path, rows: np.ndarray) -> None:
    write_csv(path, energy_mod.CSV_HEADER, row_template(*rows.shape), rows.ravel().tolist())


def _write_snapshots(outdir: Path, traj: Trajectory) -> None:
    snap = outdir / "snapshots"
    snap.mkdir(parents=True, exist_ok=True)
    for k, s in enumerate(traj.samples):
        save_vector_csv(snap / f"{k:04d}_u.csv", s.u)
        save_vector_csv(snap / f"{k:04d}_ut.csv", s.ut)
        save_scalar_csv(snap / f"{k:04d}_h.csv", s.h)


def _build_dependency(module, dep: str) -> str:
    """Name and version of the BLAS or LAPACK a module was built against."""
    d = getattr(module.__config__, "CONFIG", {}).get("Build Dependencies", {}).get(dep, {})
    return f"{d.get('name', 'unknown')} {d.get('version', '')}".strip()


def _write_run_json(outdir: Path, config: dict, extra: dict | None = None) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
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
    }
    if extra:
        doc.update(extra)
    with open(outdir / "run.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)


def _write_report(outdir: Path, name: str, doc: dict) -> None:
    rep = outdir / "reports"
    rep.mkdir(parents=True, exist_ok=True)
    with open(rep / f"{name}.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return str(obj)


def _archive_trajectory(outdir: Path, config: dict, traj: Trajectory, extra=None) -> None:
    term = {"kind": traj.termination.kind, "t": traj.termination.t} if traj.termination else None
    info = {"termination": term}
    if extra:
        info.update(extra)
    _write_run_json(outdir, config, info)
    _write_energy_csv(outdir / "energy.csv", energy_mod.energy_table(traj))
    _write_snapshots(outdir, traj)


# ---------------------------------------------------------------------------
# experiments

def _exp_simulate(run, outdir, strict):
    state0 = _initial_state(run)
    try:
        traj = integrate(
            state0, run.config["t_end"], run.params, run.spec, run.forcing, run.stepper)
    except DivergedStateError as err:
        if err.trajectory is not None:
            _archive_trajectory(outdir, run.config, err.trajectory)
        return EXIT_DIVERGED
    _archive_trajectory(outdir, run.config, traj)
    return EXIT_OK


def _r_critical_from_config(run):
    return orbit_mod.r_critical(
        run.forcing.l1_l2_norm(run.grid), run.spec.alpha, run.params.nu1,
        run.forcing.period, run.config["r_critical_consts"],
    )


def _exp_find_periodic(run, outdir, strict):
    if strict:
        rc = _r_critical_from_config(run)
        if not rc.admissible:
            _write_report(outdir, "r_critical", {
                "value": rc.value, "denominator": rc.denominator,
                "admissible": False, "diagnostic": rc.diagnostic,
            })
            print(f"refusing under --strict: {rc.diagnostic}", file=sys.stderr)
            return EXIT_CONDITION
    z0 = _initial_state(run)
    try:
        po = orbit_mod.find_periodic(
            z0, run.params, run.spec, run.forcing, run.stepper,
            tol=run.config["tol"], max_iter=run.config["max_iter"],
        )
    except DivergedStateError:
        return EXIT_DIVERGED
    _archive_trajectory(outdir, run.config, po.trajectory, extra={"orbit": po.to_report()})
    with open(outdir / "orbit.json", "w") as fh:
        json.dump(po.to_report(), fh, indent=2, sort_keys=True)
    save_vector_csv(outdir / "zstar_u.csv", po.z_star.u)
    save_vector_csv(outdir / "zstar_ut.csv", po.z_star.ut)
    save_scalar_csv(outdir / "zstar_h.csv", po.z_star.h)
    return EXIT_OK


def _exp_perturb(run, outdir, strict):
    grid, params, spec, forcing = run.grid, run.params, run.spec, run.forcing
    pconf = run.config["perturbation"]
    try:
        po = orbit_mod.find_periodic(
            State.zero(grid), params, spec, forcing, run.stepper,
            tol=run.config["tol"], max_iter=run.config["max_iter"],
        )
        basis = _basis(run)
        seed_state = random_state(
            grid, basis, seed=pconf["seed"], amplitude=pconf["amplitude"], mean_zero_h=True,
        )
        pert = orbit_mod.run_perturbation(
            po, seed_state.u, seed_state.ut, seed_state.h, run.config["t_end"],
            params, spec, forcing, run.stepper,
        )
    except DivergedStateError:
        return EXIT_DIVERGED
    ep0 = float(pert.ep_series[0])
    c_e = max(energy_mod.energy_e1(s, params) for s in pert.base_traj.samples)
    consts = energy_mod.assemble_constants(
        grid, params, spec.alpha, basis=basis, c_e=c_e, c_h=pert.c_h, ep0=ep0
    )
    report = orbit_mod.check_decay_bound(pert, consts, spec.alpha, params.nu1)
    _write_run_json(outdir, run.config, {"orbit": po.to_report()})
    _write_report(outdir, "decay", report)
    with open(outdir / "constants.json", "w") as fh:
        fh.write(consts.to_json())
    write_csv(outdir / "ep_series.csv", "t,e_p", row_template(len(pert.times), 2),
              np.column_stack([pert.times, pert.ep_series]).ravel().tolist())
    return EXIT_OK if (not strict or not report["violations"]) else EXIT_CONDITION


def _exp_lasalle(run, outdir, strict):
    if run.spec.kind != "none" or not run.forcing.is_zero:
        raise ParameterError("the limit-set experiment needs no forcing and no mechanical damping")
    state0 = _initial_state(run)
    try:
        traj = integrate(
            state0, run.config["t_end"], run.params, run.spec, run.forcing, run.stepper)
    except DivergedStateError:
        return EXIT_DIVERGED
    report = analysis.lasalle_report(traj)
    _archive_trajectory(outdir, run.config, traj)
    _write_report(outdir, "lasalle", report)
    return EXIT_OK


def _exp_check_conditions(run, outdir, strict):
    params, spec, forcing = run.params, run.spec, run.forcing
    cond = run.config["conditions"]
    reg = analysis.condition_regularity(
        cond["e1_0"], forcing.l1_h1_norm(run.grid), params.nu1, cond["c_mu"])
    stab = analysis.condition_stability(params.nu1, cond["c_e"], cond["c_omega"], cond["c_small"])
    doc = {"regularity": reg, "stability": stab}
    if spec.kind == "linear" and spec.alpha > 0:
        rc = _r_critical_from_config(run)
        doc["r_critical"] = {
            "value": rc.value, "denominator": rc.denominator,
            "admissible": rc.admissible, "diagnostic": rc.diagnostic,
        }
    _write_run_json(outdir, run.config)
    _write_report(outdir, "conditions", doc)
    all_ok = reg["satisfied"] and stab["satisfied"] and doc.get(
        "r_critical", {"admissible": True}
    )["admissible"]
    return EXIT_OK if (all_ok or not strict) else EXIT_CONDITION


def _exp_disk_mode(run, outdir, strict):
    d = run.config["disk_mode"]
    spec = analysis.DiskModeSpec.build(m=d["m"], radial_points=d["radial_points"])
    report = analysis.disk_mode_residual(spec, run.params)
    _write_run_json(outdir, run.config)
    _write_report(outdir, "disk_mode", report)
    table = analysis.bessel_root_table(d["table_max"])
    write_csv(outdir / "bessel_roots.csv", "m,zeta_m", row_template(len(table), 2),
              [x for row in table for x in row])
    return EXIT_OK


def _exp_eigenbasis(run, outdir, strict):
    basis = _basis(run)
    _write_run_json(outdir, run.config)
    basis.save(outdir / "basis.npz")
    _write_report(outdir, "eigenbasis", {
        "grid_signature": run.grid.signature(),
        "m": basis.m,
        "m_magnetic": basis.m_magnetic,
        "elastic_eigenvalues": basis.elastic_vals,
        "magnetic_eigenvalues": basis.magnetic_vals,
    })
    return EXIT_OK


def _exp_botsenyuk(run, outdir, strict):
    b = run.config["botsenyuk"]
    if b is None:
        raise ParameterError("the botsenyuk experiment needs a 'botsenyuk' section")
    inp = analysis.BotsenyukInput(
        t_grid=np.asarray(b["t"]), x=np.asarray(b["x"]), gamma=np.asarray(b["gamma"]), a=b["a"],
    )
    report = analysis.botsenyuk_check(inp)
    _write_run_json(outdir, run.config)
    _write_report(outdir, "botsenyuk", report)
    ok = report["admissible"] and report.get("conclusion_holds", False)
    return EXIT_OK if (ok or not strict) else EXIT_CONDITION


_RUNNERS = {
    "simulate": _exp_simulate,
    "find-periodic": _exp_find_periodic,
    "perturb": _exp_perturb,
    "lasalle": _exp_lasalle,
    "check-conditions": _exp_check_conditions,
    "disk-mode": _exp_disk_mode,
    "eigenbasis": _exp_eigenbasis,
    "botsenyuk": _exp_botsenyuk,
}


# ---------------------------------------------------------------------------
# replay verification

def replay(archive_dir) -> dict:
    """Rebuild the stored snapshots, recompute energy.csv from them with
    the archive writer's ``energy.energy_table`` and cross-check it against
    the stored one; a mismatch beyond 1e-10 is reported with the first
    differing row.  An archive file that does not parse raises MelabError
    naming the file."""
    arc = Path(archive_dir)
    path = arc / "run.json"
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise MelabError(f"{path}: not JSON: {err}") from None
    if not isinstance(doc, dict) or "config" not in doc:
        raise MelabError(f"{path}: no 'config' section")
    run = _parse_config(doc["config"])
    grid = run.grid
    path, n_cols = arc / "energy.csv", energy_mod.CSV_HEADER.count(",") + 1
    try:
        stored = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as err:
        raise MelabError(f"{path}: {err}") from None
    if stored.shape[1] != n_cols:
        raise MelabError(f"{path}: {stored.shape[1]} columns, expected {n_cols}")
    samples = []
    for k in range(stored.shape[0]):
        u = load_vector_csv(arc / "snapshots" / f"{k:04d}_u.csv", grid, bc="dirichlet_zero")
        ut = load_vector_csv(arc / "snapshots" / f"{k:04d}_ut.csv", grid, bc="dirichlet_zero")
        h = load_scalar_csv(arc / "snapshots" / f"{k:04d}_h.csv", grid, bc="neumann")
        samples.append(State(u, ut, h, float(stored[k, 0])))
    traj = Trajectory(samples, [s.t for s in samples],
                      [energy_mod.energy_total(s, run.params) for s in samples],
                      params=run.params, dissipation=run.spec, forcing=run.forcing)
    rows = energy_mod.energy_table(traj)
    diff = np.abs(rows - stored)
    bad = np.argwhere(diff > 1e-10)
    if len(bad):
        r, c = bad[0]
        return {
            "verified": False,
            "first_differing_row": int(r),
            "column": energy_mod.CSV_HEADER.split(",")[c],
            "stored": float(stored[r, c]),
            "recomputed": float(rows[r, c]),
        }
    return {"verified": True, "rows": int(stored.shape[0])}


# ---------------------------------------------------------------------------
# entry point

def _run_single(experiment: str, config: dict, outdir: Path, strict: bool) -> int:
    try:
        return _RUNNERS[experiment](_parse_config(config, experiment), outdir, strict)
    except DivergedStateError as err:
        print(f"diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except MelabError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


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

    if args.experiment == "replay":
        target = args.output or args.config
        if not target:
            print("replay needs --config or --output pointing at an archive", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            report = replay(target)
        except (OSError, MelabError) as err:
            print(f"corrupt archive: {err}", file=sys.stderr)
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
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                codes = list(pool.map(_run_sweep_entry, payloads))
        else:
            codes = [_run_sweep_entry(p) for p in payloads]
        return max(codes)
    return _run_single(args.experiment, config, outdir, args.strict)


if __name__ == "__main__":
    sys.exit(main())
