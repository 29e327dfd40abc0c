"""Experiment runner: file-driven, reproducible studies over the library.

    melab <experiment> --config <file> [--output <dir>] [--strict] [--jobs N]

Each run writes a self-describing artifact directory: run.json (full config
echo plus versions), energy.csv, snapshots/, reports/*.json.  Exit codes:
0 completed, 2 validation error, 3 divergence, 4 failed condition check
under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .grid import (
    ContractViolationError,
    Grid2D,
    MelabError,
    ParameterError,
    load_scalar_csv,
    load_vector_csv,
    save_scalar_csv,
    save_vector_csv,
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

EXPERIMENTS = (
    "simulate",
    "find-periodic",
    "perturb",
    "lasalle",
    "check-conditions",
    "disk-mode",
    "eigenbasis",
    "botsenyuk",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3
EXIT_CONDITION = 4


# ---------------------------------------------------------------------------
# config plumbing

def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _resolve_output(args, config: dict) -> Path:
    if args.output:
        return Path(args.output)
    env = os.environ.get("MELAB_OUTPUT")
    if env:
        return Path(env) / args.experiment
    if "output_dir" in config:
        return Path(config["output_dir"])
    return Path("melab-runs") / args.experiment


def _build_grid(config: dict) -> Grid2D:
    g = config.get("grid", {})
    return Grid2D(
        nx=int(g.get("nx", 32)),
        ny=int(g.get("ny", 32)),
        lx=float(g.get("lx", 1.0)),
        ly=float(g.get("ly", 1.0)),
    )


def _build_physics(config: dict):
    mat = config.get("material", {})
    material = MaterialParams(
        rho_m=float(mat.get("rho_m", 1.0)),
        mu=float(mat.get("mu", 1.0)),
        lam=float(mat.get("lambda", mat.get("lam", 0.5))),
        nu1=float(mat.get("nu1", 0.1)),
        mu0=float(mat.get("mu0", 1.0)),
        b0=float(mat.get("b0", 1.0)),
    )
    dis = dict(config.get("dissipation", {"kind": "none"}))
    dissipation = DissipationSpec(
        kind=dis.get("kind", "none"),
        alpha=float(dis.get("alpha", 0.0)),
        k0=float(dis.get("k0", 0.0)),
        k1=float(dis.get("k1", 0.0)),
        p=float(dis.get("p", 3.0)),
        r_rho=float(dis.get("r_rho", 1.0)),
        k_c=float(dis.get("k_c", 1.0)),
    )
    forcing = Forcing.from_dict(config["forcing"]) if config.get("forcing") else Forcing.zero()
    return material, dissipation, forcing


def _build_stepper(config: dict) -> StepperConfig:
    s = config.get("stepper", {})
    return StepperConfig(
        dt=float(s.get("dt", 1e-3)),
        scheme=s.get("scheme", "imex_midpoint"),
        sample_every=int(s.get("sample_every", 10)),
    )


def _initial_state(config: dict, grid: Grid2D, params: MaterialParams) -> State:
    init = config.get("initial", {"kind": "zero"})
    if init.get("kind", "random") == "zero":
        return State.zero(grid)
    b = config.get("basis", {})
    basis = build_galerkin_basis(
        grid, params, m=int(b.get("m", 8)), m_magnetic=int(b.get("m_magnetic", 8))
    )
    return random_state(
        grid,
        basis,
        seed=int(config.get("seed", 0)),
        amplitude=float(init.get("amplitude", 0.05)),
        n_modes=int(init.get("n_modes", 6)),
    )


# ---------------------------------------------------------------------------
# artifact writing

def _energy_rows(traj: Trajectory) -> list[list[float]]:
    """energy.csv rows: the trajectory's energy log with the Lyapunov
    functional g and the energy-balance residual filled in."""
    params = traj.params
    spec = traj.dissipation
    alpha = spec.alpha if spec.kind in ("linear", "power") else 0.0
    eps = None
    if alpha > 0:
        c_omega = energy_mod.poincare_constant(traj.samples[0].grid, params)
        eps = energy_mod.admissible_shift(alpha, params.nu1, c_omega)
    res = None
    if len(traj.samples) >= 3:
        res = energy_mod.energy_identity_residual(traj, params)
    rows = []
    for k, (s, rec) in enumerate(zip(traj.samples, traj.energy_log)):
        g_val = energy_mod.lyapunov_g(s, eps, alpha, params, e_total=rec.e_total) if eps else 0.0
        r = float(res["residual"][k - 1]) if (res is not None and k >= 1) else 0.0
        rows.append(dataclasses.replace(rec, g_eps=g_val).row(residual=r))
    return rows


def _write_energy_csv(path: Path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(energy_mod.CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_snapshots(outdir: Path, traj: Trajectory) -> None:
    snap = outdir / "snapshots"
    snap.mkdir(parents=True, exist_ok=True)
    for k, s in enumerate(traj.samples):
        save_vector_csv(snap / f"{k:04d}_u.csv", s.u)
        save_vector_csv(snap / f"{k:04d}_ut.csv", s.ut)
        save_scalar_csv(snap / f"{k:04d}_h.csv", s.h)


def _write_run_json(outdir: Path, config: dict, extra: dict | None = None) -> None:
    doc = {
        "config": config,
        "versions": {
            "melab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
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
    outdir.mkdir(parents=True, exist_ok=True)
    term = {"kind": traj.termination.kind, "t": traj.termination.t} if traj.termination else None
    info = {"termination": term}
    if extra:
        info.update(extra)
    _write_run_json(outdir, config, info)
    _write_energy_csv(outdir / "energy.csv", _energy_rows(traj))
    _write_snapshots(outdir, traj)


# ---------------------------------------------------------------------------
# experiments

def _exp_simulate(config, outdir, strict):
    grid = _build_grid(config)
    params, spec, forcing = _build_physics(config)
    stepper = _build_stepper(config)
    state0 = _initial_state(config, grid, params)
    t_end = float(config.get("t_end", 1.0))
    try:
        traj = integrate(state0, t_end, params, spec, forcing, stepper)
    except DivergedStateError as err:
        if err.trajectory is not None:
            _archive_trajectory(outdir, config, err.trajectory)
        return EXIT_DIVERGED
    _archive_trajectory(outdir, config, traj)
    return EXIT_OK


def _r_critical_from_config(config, grid, params, spec, forcing):
    consts = config.get(
        "r_critical_consts", {"C1": 0.5, "C2": 0.02, "C3": 0.1, "eps": 1.0}
    )
    return orbit_mod.r_critical(
        forcing.l1_l2_norm(grid), spec.alpha, params.nu1,
        forcing.period if forcing.period > 0 else 1.0, consts,
    )


def _exp_find_periodic(config, outdir, strict):
    grid = _build_grid(config)
    params, spec, forcing = _build_physics(config)
    stepper = _build_stepper(config)
    if strict:
        rc = _r_critical_from_config(config, grid, params, spec, forcing)
        if not rc.admissible:
            _write_report(outdir, "r_critical", {
                "value": rc.value, "denominator": rc.denominator,
                "admissible": False, "diagnostic": rc.diagnostic,
            })
            print(f"refusing under --strict: {rc.diagnostic}", file=sys.stderr)
            return EXIT_CONDITION
    z0 = _initial_state(config, grid, params)
    try:
        po = orbit_mod.find_periodic(
            z0, params, spec, forcing, stepper,
            tol=float(config.get("tol", 1e-8)),
            max_iter=int(config.get("max_iter", 60)),
        )
    except DivergedStateError:
        return EXIT_DIVERGED
    _archive_trajectory(outdir, config, po.trajectory, extra={"orbit": po.to_report()})
    with open(outdir / "orbit.json", "w") as fh:
        json.dump(po.to_report(), fh, indent=2, sort_keys=True)
    save_vector_csv(outdir / "zstar_u.csv", po.z_star.u)
    save_vector_csv(outdir / "zstar_ut.csv", po.z_star.ut)
    save_scalar_csv(outdir / "zstar_h.csv", po.z_star.h)
    return EXIT_OK


def _exp_perturb(config, outdir, strict):
    grid = _build_grid(config)
    params, spec, forcing = _build_physics(config)
    stepper = _build_stepper(config)
    z0 = State.zero(grid)
    try:
        po = orbit_mod.find_periodic(
            z0, params, spec, forcing, stepper,
            tol=float(config.get("tol", 1e-8)),
            max_iter=int(config.get("max_iter", 60)),
        )
        b = config.get("basis", {})
        basis = build_galerkin_basis(
            grid, params, m=int(b.get("m", 6)), m_magnetic=int(b.get("m_magnetic", 6))
        )
        pconf = config.get("perturbation", {})
        seed_state = random_state(
            grid, basis,
            seed=int(pconf.get("seed", config.get("seed", 0))),
            amplitude=float(pconf.get("amplitude", 1e-3)),
            mean_zero_h=True,
        )
        run = orbit_mod.run_perturbation(
            po, seed_state.u, seed_state.ut, seed_state.h,
            float(config.get("t_end", 5.0 * forcing.period)),
            params, spec, forcing, stepper,
        )
    except DivergedStateError:
        return EXIT_DIVERGED
    ep0 = float(run.ep_series[0])
    c_e = max(rec.e1 for rec in run.base_traj.energy_log)
    consts = energy_mod.assemble_constants(
        grid, params, spec.alpha, c_e=c_e, c_h=run.c_h, ep0=ep0
    )
    report = orbit_mod.check_decay_bound(run, consts, spec.alpha, params.nu1)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_run_json(outdir, config, {"orbit": po.to_report()})
    _write_report(outdir, "decay", report)
    with open(outdir / "constants.json", "w") as fh:
        fh.write(consts.to_json())
    with open(outdir / "ep_series.csv", "w") as fh:
        fh.write("t,e_p\n")
        for t, v in zip(run.times, run.ep_series):
            fh.write(f"{t:.17g},{v:.17g}\n")
    return EXIT_OK if (not strict or not report["violations"]) else EXIT_CONDITION


def _exp_lasalle(config, outdir, strict):
    grid = _build_grid(config)
    params, spec, forcing = _build_physics(config)
    if spec.kind != "none" or not forcing.is_zero:
        raise ParameterError("the limit-set experiment needs no forcing and no mechanical damping")
    stepper = _build_stepper(config)
    state0 = _initial_state(config, grid, params)
    try:
        traj = integrate(state0, float(config.get("t_end", 50.0)), params, spec, forcing, stepper)
    except DivergedStateError:
        return EXIT_DIVERGED
    report = analysis.lasalle_report(traj)
    _archive_trajectory(outdir, config, traj)
    _write_report(outdir, "lasalle", report)
    return EXIT_OK


def _exp_check_conditions(config, outdir, strict):
    grid = _build_grid(config)
    params, spec, forcing = _build_physics(config)
    cond = config.get("conditions", {})
    c_mu = float(cond.get("c_mu", 1.0))
    e1_0 = float(cond.get("e1_0", 0.0))
    reg = analysis.condition_regularity(e1_0, forcing.l1_h1_norm(grid), params.nu1, c_mu)
    c_e = float(cond.get("c_e", 0.0))
    c_omega = float(cond.get("c_omega", 1.0))
    c_small = float(cond.get("c_small", 1.0))
    stab = analysis.condition_stability(params.nu1, c_e, c_omega, c_small)
    doc = {"regularity": reg, "stability": stab}
    if spec.kind == "linear" and spec.alpha > 0 and forcing.period > 0:
        rc = _r_critical_from_config(config, grid, params, spec, forcing)
        doc["r_critical"] = {
            "value": rc.value, "denominator": rc.denominator,
            "admissible": rc.admissible, "diagnostic": rc.diagnostic,
        }
    outdir.mkdir(parents=True, exist_ok=True)
    _write_run_json(outdir, config)
    _write_report(outdir, "conditions", doc)
    all_ok = reg["satisfied"] and stab["satisfied"] and doc.get(
        "r_critical", {"admissible": True}
    )["admissible"]
    return EXIT_OK if (all_ok or not strict) else EXIT_CONDITION


def _exp_disk_mode(config, outdir, strict):
    params, _, _ = _build_physics(config)
    d = config.get("disk_mode", {})
    spec = analysis.DiskModeSpec.build(
        m=int(d.get("m", 1)), radial_points=int(d.get("radial_points", 2000))
    )
    report = analysis.disk_mode_residual(spec, params)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_run_json(outdir, config)
    _write_report(outdir, "disk_mode", report)
    table = analysis.bessel_root_table(int(d.get("table_max", 10)))
    with open(outdir / "bessel_roots.csv", "w") as fh:
        fh.write("m,zeta_m\n")
        for m, z in table:
            fh.write(f"{m},{z:.17g}\n")
    return EXIT_OK


def _exp_eigenbasis(config, outdir, strict):
    grid = _build_grid(config)
    params, _, _ = _build_physics(config)
    b = config.get("basis", {})
    basis = build_galerkin_basis(
        grid, params, m=int(b.get("m", 8)), m_magnetic=int(b.get("m_magnetic", 8))
    )
    outdir.mkdir(parents=True, exist_ok=True)
    basis.save(outdir / "basis.npz")
    _write_run_json(outdir, config)
    _write_report(outdir, "eigenbasis", {
        "grid_signature": grid.signature(),
        "m": basis.m,
        "m_magnetic": basis.m_magnetic,
        "elastic_eigenvalues": basis.elastic_vals,
        "magnetic_eigenvalues": basis.magnetic_vals,
    })
    return EXIT_OK


def _exp_botsenyuk(config, outdir, strict):
    b = config["botsenyuk"]
    inp = analysis.BotsenyukInput(
        t_grid=np.asarray(b["t"], dtype=float),
        x=np.asarray(b["x"], dtype=float),
        gamma=np.asarray(b["gamma"], dtype=float),
        a=float(b["a"]),
    )
    report = analysis.botsenyuk_check(inp)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_run_json(outdir, config)
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
    """Recompute the energy diagnostics from the stored snapshots and
    cross-check against energy.csv; mismatch beyond 1e-10 is reported with
    the first differing row."""
    arc = Path(archive_dir)
    with open(arc / "run.json") as fh:
        config = json.load(fh)["config"]
    grid = _build_grid(config)
    params, spec, forcing = _build_physics(config)
    stored = np.loadtxt(arc / "energy.csv", delimiter=",", skiprows=1, ndmin=2)
    samples = []
    for k in range(stored.shape[0]):
        u = load_vector_csv(arc / "snapshots" / f"{k:04d}_u.csv", grid, bc="dirichlet_zero")
        ut = load_vector_csv(arc / "snapshots" / f"{k:04d}_ut.csv", grid, bc="dirichlet_zero")
        h = load_scalar_csv(arc / "snapshots" / f"{k:04d}_h.csv", grid, bc="neumann")
        samples.append(State(u, ut, h, float(stored[k, 0])))
    traj = Trajectory(samples=samples, params=params, dissipation=spec, forcing=forcing)
    rows = np.asarray(_energy_rows(traj))
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
        return _RUNNERS[experiment](config, outdir, strict)
    except (ParameterError, ContractViolationError, KeyError, ValueError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergedStateError as err:
        print(f"diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED


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
    parser.add_argument("experiment", choices=EXPERIMENTS + ("replay",))
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
        except (OSError, ValueError, KeyError, MelabError) as err:
            print(f"corrupt archive: {err}", file=sys.stderr)
            return EXIT_VALIDATION
        print(json.dumps(report, indent=2))
        return EXIT_OK if report["verified"] else EXIT_VALIDATION

    if not args.config:
        print("--config is required", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        config = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as err:
        print(f"unreadable config: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    if config.get("experiment", args.experiment) != args.experiment:
        print("config experiment does not match the command", file=sys.stderr)
        return EXIT_VALIDATION

    outdir = _resolve_output(args, config)
    sweep = config.get("sweep")
    if sweep:
        payloads = [
            (args.experiment, config, entry, str(outdir / f"sweep_{i:03d}"), args.strict)
            for i, entry in enumerate(sweep)
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
