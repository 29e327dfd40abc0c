"""Span tracing around calls into melab's layers, installed from outside.

Nothing inside ``melab`` knows about tracing.  ``install`` replaces each
traced function at the name its callers look up: the module attribute that
``from .grid import lame_apply`` bound in every importing module, the
attribute a caller reaches through ``energy_mod.energy_total``, a class
attribute for methods, and stepping's ``scipy`` name for the LU calls.
Inside ``melab.grid`` the names are left alone, because the dense builders
apply ``lame_apply`` column by column and that work belongs to assembly.

Every span adds its duration to the open parent span, so a span's self time
is its duration minus the time of the spans inside it.  Spans are kept in
memory as per-name totals (and, for a few names, the list of durations)
and summarised into the per-layer metrics once the round has ended.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import scipy.linalg

from melab import analysis, cli, energy, grid, model, orbit, stepping
import melab

MODULES = (melab, grid, model, energy, stepping, orbit, analysis, cli)

# traced module-level functions: span name -> (defining module, name)
FUNCTIONS = {
    "grid.lame_apply": (grid, "lame_apply"),
    "grid.laplacian_neumann": (grid, "laplacian_neumann"),
    "grid.gradient": (grid, "gradient"),
    "grid.divergence": (grid, "divergence"),
    "grid.grad_edge_inner": (grid, "grad_edge_inner"),
    "grid.neumann_laplacian_matrix": (grid, "neumann_laplacian_matrix"),
    "grid.lame_operator_matrix": (grid, "lame_operator_matrix"),
    "grid.save_scalar_csv": (grid, "save_scalar_csv"),
    "grid.save_vector_csv": (grid, "save_vector_csv"),
    "grid.load_scalar_csv": (grid, "load_scalar_csv"),
    "grid.load_vector_csv": (grid, "load_vector_csv"),
    "model.build_galerkin_basis": (model, "build_galerkin_basis"),
    "model.lorentz_force": (model, "lorentz_force"),
    "model.induction_term": (model, "induction_term"),
    "energy.energy_total": (energy, "energy_total"),
    "energy.energy_e1": (energy, "energy_e1"),
    "energy.energy_perturbation": (energy, "energy_perturbation"),
    "energy.lyapunov_g": (energy, "lyapunov_g"),
    "energy.grad_h_squared": (energy, "grad_h_squared"),
    "energy.lh_tilde_squared": (energy, "lh_tilde_squared"),
    "energy.energy_identity_residual": (energy, "energy_identity_residual"),
    "energy.accumulate_ch": (energy, "accumulate_ch"),
    "stepping.step": (stepping, "step"),
    "orbit.poincare_map": (orbit, "poincare_map"),
    "orbit.run_perturbation": (orbit, "run_perturbation"),
    "cli.archive_trajectory": (cli, "_archive_trajectory"),
    "cli.replay": (cli, "replay"),
}

# traced methods: span name -> (class, attribute)
METHODS = {
    "grid.ScalarField.check": (grid.ScalarField, "__post_init__"),
    "grid.VectorField2.check": (grid.VectorField2, "__post_init__"),
    "model.Forcing.f1": (model.Forcing, "f1"),
    "model.Forcing.f2": (model.Forcing, "f2"),
}

# spans whose individual durations are kept, for medians
KEEP_DURATIONS = ("stepping.step", "orbit.poincare_map")


class _Namespace:
    """Attribute view of a module with a few names overridden."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.durations = {name: [] for name in KEEP_DURATIONS}
        self._open = []           # child time accumulated per open span

    def wrap(self, name, fn):
        clock = time.perf_counter
        open_spans = self._open
        count, self_s, total_s = self.count, self.self_s, self.total_s
        keep = self.durations.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                count[name] += 1
                self_s[name] += dur - child
                total_s[name] += dur
                if keep is not None:
                    keep.append(dur)

        return traced

    def snapshot(self) -> "Tracer":
        """Copy of the totals so far; later spans do not change it."""
        copy = Tracer()
        copy.count.update(self.count)
        copy.self_s.update(self.self_s)
        copy.total_s.update(self.total_s)
        copy.durations = {k: list(v) for k, v in self.durations.items()}
        return copy

    def summary(self) -> dict:
        return {
            name: {
                "count": self.count[name],
                "self_s": self.self_s[name],
                "total_s": self.total_s[name],
            }
            for name in sorted(self.count)
        }


def install() -> Tracer:
    """Wrap every traced name in this interpreter; returns the tracer."""
    tracer = Tracer()
    for name, (owner, attr) in FUNCTIONS.items():
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original)
        for mod in MODULES:
            if mod is grid and owner is grid:
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, traced)
    for name, (cls, attr) in METHODS.items():
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr]))
    linalg = _Namespace(
        scipy.linalg,
        lu_factor=tracer.wrap("stepping.lu_factor", scipy.linalg.lu_factor),
        lu_solve=tracer.wrap("stepping.lu_solve", scipy.linalg.lu_solve),
    )
    stepping.scipy = _Namespace(stepping.scipy, linalg=linalg)
    return tracer


def _count(tracer: Tracer, *names) -> float:
    return float(sum(tracer.count[n] for n in names))


def _self(tracer: Tracer, *names) -> float:
    return float(sum(tracer.self_s[n] for n in names))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, csv_bytes: int, contraction: float) -> dict:
    """Per-layer metrics of one round.  Layer totals (``*_s``) are self
    time; ``step_ms``, ``map_s``, ``perturb_s``, ``archive_write_s`` and
    ``replay_s`` are whole span durations, since they time one operation
    whose cost is spread over the layers below it."""
    field_checks = ("grid.ScalarField.check", "grid.VectorField2.check")
    ops = ("grid.lame_apply", "grid.laplacian_neumann", "grid.gradient",
           "grid.divergence", "grid.grad_edge_inner")
    assembly = ("grid.neumann_laplacian_matrix", "grid.lame_operator_matrix")
    forcing = ("model.Forcing.f1", "model.Forcing.f2")
    coupling = ("model.lorentz_force", "model.induction_term")
    diag = tuple(n for n in FUNCTIONS if n.startswith("energy."))
    steps = tracer.count["stepping.step"]
    return {
        "grid.field_checks": _count(tracer, *field_checks),
        "grid.field_check_s": _self(tracer, *field_checks),
        "grid.op_calls": _count(tracer, *ops),
        "grid.op_s": _self(tracer, *ops),
        "grid.assembly_calls": _count(tracer, *assembly),
        "grid.assembly_s": _self(tracer, *assembly),
        "grid.csv_write_s": _self(tracer, "grid.save_scalar_csv", "grid.save_vector_csv"),
        "grid.csv_read_s": _self(tracer, "grid.load_scalar_csv", "grid.load_vector_csv"),
        "grid.csv_mb": csv_bytes / 1e6,
        "model.basis_builds": _count(tracer, "model.build_galerkin_basis"),
        "model.basis_s": _self(tracer, "model.build_galerkin_basis"),
        "model.forcing_calls": _count(tracer, *forcing),
        "model.forcing_s": _self(tracer, *forcing),
        "model.coupling_s": _self(tracer, *coupling),
        "stepping.steps": float(steps),
        "stepping.step_ms": 1e3 * _median(tracer.durations["stepping.step"]),
        "stepping.factorizations": _count(tracer, "stepping.lu_factor"),
        "stepping.factor_s": _self(tracer, "stepping.lu_factor"),
        "stepping.solve_s": _self(tracer, "stepping.lu_solve"),
        "energy.diag_calls": _count(tracer, *diag),
        "energy.diag_s": _self(tracer, *diag),
        "energy.total_per_step": (
            tracer.count["energy.energy_total"] / steps if steps else 0.0
        ),
        "orbit.map_evals": _count(tracer, "orbit.poincare_map"),
        "orbit.map_s": _median(tracer.durations["orbit.poincare_map"]),
        "orbit.contraction": contraction,
        "orbit.perturb_s": tracer.total_s["orbit.run_perturbation"],
        "cli.archive_write_s": tracer.total_s["cli.archive_trajectory"],
        "cli.replay_s": tracer.total_s["cli.replay"],
    }


UNITS = {
    "grid.field_checks": "count", "grid.field_check_s": "s",
    "grid.op_calls": "count", "grid.op_s": "s",
    "grid.assembly_calls": "count", "grid.assembly_s": "s",
    "grid.csv_write_s": "s", "grid.csv_read_s": "s", "grid.csv_mb": "MB",
    "model.basis_builds": "count", "model.basis_s": "s",
    "model.forcing_calls": "count", "model.forcing_s": "s",
    "model.coupling_s": "s",
    "stepping.steps": "count", "stepping.step_ms": "ms",
    "stepping.factorizations": "count", "stepping.factor_s": "s",
    "stepping.solve_s": "s",
    "energy.diag_calls": "count", "energy.diag_s": "s",
    "energy.total_per_step": "ratio",
    "orbit.map_evals": "count", "orbit.map_s": "s", "orbit.contraction": "ratio",
    "orbit.perturb_s": "s",
    "cli.archive_write_s": "s", "cli.replay_s": "s",
}
