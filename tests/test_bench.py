"""Smoke run of the benchmark: every workload at toy size, traced."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from melab import stepping
from melab.grid import Grid2D
from melab.model import (
    DissipationSpec, DivergedStateError, Forcing, MaterialParams, build_galerkin_basis,
    random_state,
)

ROOT = Path(__file__).resolve().parent.parent
PARAMS = MaterialParams()
LINEAR = DissipationSpec(kind="linear", alpha=0.5)


def _integrate(kind, n_steps):
    """A grid or a Galerkin run of n_steps steps of 0.01 each."""
    g = Grid2D(8, 8, 1.0, 1.0)
    basis = build_galerkin_basis(g, PARAMS, m=6, m_magnetic=6)
    st = random_state(g, basis, seed=0, amplitude=1.0)
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=3)
    if kind == "grid":
        return stepping.integrate(st, n_steps * cfg.dt, PARAMS, LINEAR, Forcing.zero(), cfg)
    return stepping.integrate_galerkin(stepping.state_to_coeffs(basis, st), basis,
                                       n_steps * cfg.dt, PARAMS, LINEAR, Forcing.zero(), cfg)


@pytest.mark.parametrize("kind", ["grid", "galerkin"])
def test_step_hook_called_once_per_step(kind, monkeypatch):
    """The benchmark's set-up timer and its tracer replace
    ``stepping.step``: both integrators step through that name, once per
    step."""
    calls = []
    original = stepping.step

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(stepping, "step", counting)
    _integrate(kind, 7)
    assert len(calls) == 7


@pytest.mark.parametrize("kind", ["grid", "galerkin"])
def test_energy_blowup_guard_on_both_integrators(kind, monkeypatch):
    """A step whose energy jumps by more than ENERGY_BLOWUP_FACTOR ends
    either run as divergence at that step, with the run so far attached."""
    original = stepping.step
    steps = []

    def blowing_up(*args, **kwargs):
        steps.append(None)
        y = original(*args, **kwargs)
        return tuple(1e3 * x for x in y) if len(steps) == 3 else y

    monkeypatch.setattr(stepping, "step", blowing_up)
    with pytest.raises(DivergedStateError) as err:
        _integrate(kind, 7)
    assert err.value.term == "energy_blowup" and err.value.t == pytest.approx(0.03)
    traj = err.value.trajectory
    assert traj.termination.kind == "diverged" and traj.termination.t == err.value.t


def test_bench_quick_traced():
    """The benchmark's set-up timer hooks ``stepping.step`` and its tracer
    wraps melab names by module attribute; a quick traced run checks that
    ``integrate`` still steps through that name and every wrapped name
    exists, with all correctness checks passing."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    assert sorted(r["workload"] for r in results) == ["archive32", "ensemble12", "orbit24"]
    for r in results:
        assert r["correct"] and r["failed"] == 0, r
