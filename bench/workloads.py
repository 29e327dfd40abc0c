"""One round of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per round, one round at a time, so the
``lru_cache`` on the implicit operators and the Poincare-constant cache of
melab start cold in every round, as they do for a user of the CLI.

    python3 bench/workloads.py --workload orbit24 --seed 1 --size full \
        --trace 0 --t0 <time.monotonic() at spawn> --workdir <scratch dir> \
        --result r.json

The round writes one JSON document to ``--result``: set-up time (from the
parent's spawn time to the end of the first time step), run time (from
there to the last result, the correctness checks excluded), state-steps,
peak RSS, operations attempted and failed, the checks, and with
``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

# melab functions are called through their module, where tracing wraps them
from melab import cli, energy, model, orbit, stepping  # noqa: E402
from melab.grid import Grid2D, MelabError  # noqa: E402
from melab.model import DissipationSpec, Forcing, MaterialParams, State  # noqa: E402

# Problem sizes.  "full" is what the benchmark measures; "quick" runs the
# same code paths and checks at toy size, to test the benchmark itself.
SIZES = {
    "orbit24": {
        "full": {"n": 24, "dt": 1e-2, "pert_periods": 2, "sample_every": 10},
        "quick": {"n": 8, "dt": 1e-2, "pert_periods": 2, "sample_every": 10},
    },
    "ensemble12": {
        "full": {"n": 12, "dt": 5e-3, "members": 32},
        "quick": {"n": 8, "dt": 5e-3, "members": 3},
    },
    "archive32": {
        "full": {"n": 32, "dt": 5e-3, "n_steps": 400, "sample_every": 4, "m": 8},
        "quick": {"n": 8, "dt": 5e-3, "n_steps": 60, "sample_every": 6, "m": 4},
    },
}

# physics of acceptance criteria C06/C07: alpha = 1, nu1 = 1, T = 2
ORBIT_PARAMS = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=1.0, mu0=1.0, b0=1.0)
ORBIT_SPEC = DissipationSpec(kind="linear", alpha=1.0)
ORBIT_FORCING = Forcing(period=2.0, terms=[
    {"target": "f2", "g": {"a0": 0.0, "cos": [1.0], "sin": []},
     "shape": {"jx": 1, "jy": 1, "amplitude": 0.05, "component": 0}},
    {"target": "f1", "g": {"a0": 0.0, "cos": [], "sin": [1.0]},
     "shape": {"jx": 1, "jy": 1, "amplitude": 0.02}},
])
# physics of acceptance criterion C08: unforced, T = 1, sphere sqrt(E) = 0.3
BALL_PARAMS = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.2, mu0=1.0, b0=1.0)
BALL_SPEC = DissipationSpec(kind="linear", alpha=1.0)
BALL_FORCING = Forcing.zero(period=1.0)
BALL_RADIUS = 0.3
# physics of acceptance criterion C10: no forcing, no mechanical damping
LASALLE_MATERIAL = {"rho_m": 1.0, "mu": 1.0, "lambda": 0.5, "nu1": 0.3, "mu0": 1.0, "b0": 1.0}


def steps_per(period: float, dt: float) -> int:
    """Steps per period; the workloads choose T/dt integral because
    ``integrate`` rounds (t_end - t0)/dt to a whole number of steps."""
    n = round(period / dt)
    if abs(n * dt - period) > 1e-12 * period:
        raise SystemExit(f"period {period} is not a whole number of steps {dt}")
    return n


def trapezoid_mean(x: np.ndarray, y: np.ndarray, v: np.ndarray) -> float:
    """Domain average of nodal values by the tensor trapezoid rule, from
    the node coordinates alone (independent of melab's quadrature)."""
    xs, ys = np.unique(x), np.unique(y)
    grid_v = v.reshape(len(xs), len(ys))
    area = (xs[-1] - xs[0]) * (ys[-1] - ys[0])
    return float(np.trapezoid(np.trapezoid(grid_v, ys, axis=1), xs) / area)


def field_mean(h) -> float:
    x, y = h.grid.xy
    return trapezoid_mean(x.ravel(), y.ravel(), h.values.ravel())


class FirstStep:
    """Marks the end of the first time step, then gets out of the way:
    after one call it puts the original ``stepping.step`` back."""

    def __init__(self):
        self.original = stepping.step
        self.t_end = None
        stepping.step = self

    def __call__(self, *args, **kwargs):
        out = self.original(*args, **kwargs)
        self.t_end = time.monotonic()
        stepping.step = self.original
        return out


class Round:
    """One round's operations attempted and failed, its named correctness
    checks, and the end of its timed section.  With tracing on, the span
    totals are copied at that end, so the checks do not count in the
    layers."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.tracer = tracer
        self.t_done = None
        self.spans = None
        self.csv_bytes = 0

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def done(self) -> None:
        self.t_done = time.monotonic()
        if self.tracer is not None:
            self.spans = self.tracer.snapshot()


def _run_orbit24(size: dict, seed: int, rnd: Round, workdir: Path) -> dict:
    rnd.attempted = 2                    # orbit solve, perturbation run
    g = Grid2D(size["n"], size["n"], 1.0, 1.0)
    period = ORBIT_FORCING.period
    n_per = steps_per(period, size["dt"])
    cfg = stepping.StepperConfig(dt=size["dt"], sample_every=n_per)
    pert_cfg = stepping.StepperConfig(dt=size["dt"], sample_every=size["sample_every"])
    basis = model.build_galerkin_basis(g, ORBIT_PARAMS, m=6, m_magnetic=6)
    try:
        po = orbit.find_periodic(State.zero(g), ORBIT_PARAMS, ORBIT_SPEC, ORBIT_FORCING,
                                 cfg, tol=1e-8, max_iter=30)
    except MelabError as err:
        rnd.failed = rnd.attempted
        rnd.check("orbit_error", False, str(err))
        rnd.done()
        return {"steps": 0, "contraction": 0.0}
    e_star = energy.energy_total(po.z_star, ORBIT_PARAMS)
    pert = model.random_state(g, basis, seed=seed, amplitude=1.0)
    ep_raw = energy.energy_perturbation(pert.u, pert.ut, pert.h, ORBIT_PARAMS)
    pert = pert.scaled(np.sqrt(1e-4 * e_star / ep_raw))
    t_pert = size["pert_periods"] * period
    try:
        run = orbit.run_perturbation(po, pert.u, pert.ut, pert.h, t_pert,
                                     ORBIT_PARAMS, ORBIT_SPEC, ORBIT_FORCING, pert_cfg)
        c_e = max(energy.energy_e1(s, ORBIT_PARAMS) for s in run.base_traj.samples)
        consts = energy.assemble_constants(
            g, ORBIT_PARAMS, alpha=ORBIT_SPEC.alpha, basis=basis,
            c_e=c_e, c_h=run.c_h, ep0=float(run.ep_series[0]),
        )
        decay = orbit.check_decay_bound(run, consts, ORBIT_SPEC.alpha, ORBIT_PARAMS.nu1)
    except MelabError as err:
        rnd.failed = 1
        rnd.check("perturbation_error", False, str(err))
        decay = None
    rnd.done()

    # correctness checks, outside the timed section
    hist = np.asarray(po.residual_history)
    ratios = hist[1:] / hist[:-1]
    image = orbit.poincare_map(po.z_star, ORBIT_PARAMS, ORBIT_SPEC, ORBIT_FORCING, cfg)
    res = orbit.energy_distance(image, po.z_star, ORBIT_PARAMS)
    norm = orbit.energy_norm(po.z_star, ORBIT_PARAMS)
    rnd.check("converged", po.converged, po.iterations)
    rnd.check("fixed_point", res <= 1e-8 * max(1.0, norm), res)
    rnd.check("picard_ratios_below_1", bool(np.all(ratios < 1.0)), ratios.tolist())
    # Picard started from the zero state, whose mean(h) is 0
    rnd.check("mean_h_conserved", abs(field_mean(po.z_star.h)) <= 1e-12,
              field_mean(po.z_star.h))
    if decay is not None:
        ep_ratio = float(run.ep_series[0]) / e_star
        rnd.check("ep0_ratio", abs(ep_ratio / 1e-4 - 1.0) <= 1e-9, ep_ratio)
        rnd.check("decay_bound_every_sample",
                  decay["violations"] == [] and decay["bound_margin_min"] >= 0,
                  decay["bound_margin_min"])
        rnd.check("decay_rate_negative",
                  decay["fitted_rate"] is not None and decay["fitted_rate"] < 0,
                  decay["fitted_rate"])
    n_pert = steps_per(t_pert, size["dt"]) if decay is not None else 0
    return {
        "steps": po.iterations * n_per + 2 * n_pert,
        "contraction": float(np.median(ratios)) if len(ratios) else 0.0,
    }


def _run_ensemble12(size: dict, seed: int, rnd: Round, workdir: Path) -> dict:
    rnd.attempted = size["members"]      # one map evaluation per member
    g = Grid2D(size["n"], size["n"], 1.0, 1.0)
    n_per = steps_per(BALL_FORCING.period, size["dt"])
    cfg = stepping.StepperConfig(dt=size["dt"], sample_every=10**6)
    basis = model.build_galerkin_basis(g, BALL_PARAMS, m=5, m_magnetic=5)
    images = []
    poincare_map = orbit.poincare_map

    def keep_image(*args, **kwargs):
        out = poincare_map(*args, **kwargs)
        images.append(out)
        return out

    orbit.poincare_map = keep_image
    try:
        rep = orbit.ball_mapping_check(
            BALL_RADIUS, size["members"], BALL_PARAMS, BALL_SPEC, BALL_FORCING, cfg,
            basis, seed=seed, surface=True,
        )
    except MelabError as err:
        rnd.failed = rnd.attempted
        rnd.check("ensemble_error", False, str(err))
        rnd.done()
        return {"steps": 0, "contraction": 0.0}
    finally:
        orbit.poincare_map = poincare_map
    rnd.done()

    e_out = [orbit.energy_norm(z, BALL_PARAMS) for z in images]
    rnd.check("every_member_mapped", len(images) == size["members"], len(images))
    rnd.check("strictly_inside", all(e < BALL_RADIUS for e in e_out), max(e_out))
    rnd.check("report_all_inside",
              rep["fraction_inside"] == 1.0 and rep["worst_excess"] == 0.0,
              rep["fraction_inside"])
    return {"steps": size["members"] * n_per, "contraction": 0.0}


def _run_archive32(size: dict, seed: int, rnd: Round, workdir: Path) -> dict:
    rnd.attempted = 2                    # lasalle run, replay
    dt, n_steps, every = size["dt"], size["n_steps"], size["sample_every"]
    t_end = n_steps * dt
    config = {
        "experiment": "lasalle",
        "grid": {"nx": size["n"], "ny": size["n"], "lx": 1.0, "ly": 1.0},
        "material": LASALLE_MATERIAL,
        "dissipation": {"kind": "none"},
        "stepper": {"dt": dt, "sample_every": every},
        "initial": {"kind": "random", "amplitude": 0.05, "n_modes": 6},
        "basis": {"m": size["m"], "m_magnetic": size["m"]},
        "seed": seed,
        "t_end": t_end,
    }
    archive = workdir / "archive"
    cfg_path = workdir / "lasalle.json"
    cfg_path.write_text(json.dumps(config))
    code = cli.main(["lasalle", "--config", str(cfg_path), "--output", str(archive)])
    if code != 0:
        rnd.failed = rnd.attempted
        rnd.check("lasalle_exit", False, code)
        rnd.done()
        return {"steps": 0, "contraction": 0.0}
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        replay_code = cli.main(["replay", "--output", str(archive)])
    rnd.done()

    if replay_code != 0:
        rnd.failed = 1
    report = json.loads(captured.getvalue()) if captured.getvalue().strip() else {}
    rnd.check("replay_verifies", replay_code == 0 and report.get("verified") is True, report)
    rows = np.loadtxt(archive / "energy.csv", delimiter=",", skiprows=1, ndmin=2)
    n_samples = n_steps // every + (1 if n_steps % every else 0) + 1
    rnd.check("sample_count", rows.shape[0] == n_samples, rows.shape[0])
    rnd.check("ends_at_t_end", abs(rows[-1, 0] - t_end) <= 1e-9 * t_end, rows[-1, 0])
    e = rows[:, 1]
    rise = float(np.max(np.diff(e)))
    rnd.check("energy_nonincreasing", rise <= 1e-9 * e[0], rise)
    # The archived residual of a sample interval delta = every*dt is the
    # IMEX step's O(dt^2) error plus the error of taking the dissipation
    # rate D = nu1*mu0*|grad h|^2 at the interval's mid-state, which is
    # about delta^2 |D''| / 12.  Bound it by half the largest second
    # difference of the archived D (delta^2 |D''| / 2) plus dt^2 E(0).
    diss = LASALLE_MATERIAL["nu1"] * LASALLE_MATERIAL["mu0"] * rows[:, 5]
    bound = 0.5 * float(np.max(np.abs(np.diff(diss, 2)))) + dt**2 * e[0]
    resid = float(np.max(np.abs(rows[1:, 7])))
    rnd.check("balance_residual", resid <= bound, {"max": resid, "bound": bound})
    means = []
    for k in range(rows.shape[0]):
        data = np.loadtxt(archive / "snapshots" / f"{k:04d}_h.csv", delimiter=",", skiprows=1)
        means.append(trapezoid_mean(data[:, 0], data[:, 1], data[:, 2]))
    drift = float(np.max(np.abs(np.asarray(means) - means[0])))
    rnd.check("mean_h_drift", drift <= 1e-12, drift)
    rnd.csv_bytes = sum(p.stat().st_size for p in (archive / "snapshots").glob("*.csv"))
    return {"steps": n_steps, "contraction": 0.0}


RUNNERS = {"orbit24": _run_orbit24, "ensemble12": _run_ensemble12, "archive32": _run_archive32}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "quick"), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.install()
    first = FirstStep()
    size = SIZES[args.workload][args.size]
    rnd = Round(tracer)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = RUNNERS[args.workload](size, args.seed, rnd, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if first.t_end is None or rnd.t_done is None:
        raise SystemExit("workload ended before its first time step")

    result = {
        "setup_s": first.t_end - args.t0,
        "run_s": rnd.t_done - first.t_end,
        "steps": out["steps"] - 1,        # the first step belongs to set-up
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if rnd.spans is not None:
        traced = rnd.spans.count["stepping.step"]
        rnd.check("traced_step_count", traced == out["steps"], traced)
        result["layers"] = spans.layer_metrics(rnd.spans, rnd.csv_bytes, out["contraction"])
        result["layer_units"] = spans.UNITS
        result["spans"] = rnd.spans.summary()
    result["correct"] = all(c["ok"] for c in rnd.checks.values())
    result["checks"] = rnd.checks
    Path(args.result).write_text(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
