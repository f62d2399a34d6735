"""The benchmark's hooks wrap pmefem attributes by name, and its checks read
the states: keep those names, the positional arguments the hooks read and
the state fields the checks read."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from pmefem import harness
from pmefem import logdensity as ld
from pmefem import mixed as mx
from pmefem.mesh import build_structured_mesh, compute_edge_geometry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines functions; installs and runs nothing
    return module


def positional(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


@pytest.mark.parametrize("owner,attr,name", load("hooks").SPAN_SITES,
                         ids=lambda x: x if isinstance(x, str) else None)
def test_span_site_resolves(owner, attr, name):
    assert callable(getattr(owner, attr))


def test_counted_calls_keep_system_u_active():
    # Tracer wraps these as (system, u, active)
    assert positional(ld.newton_update) == ["system", "u", "active"]
    assert positional(ld.StepSystem.functional) == ["self", "u", "active"]


def test_sized_and_captured_calls_keep_their_arguments():
    # span sizes read spd_solve's third and the writers' second argument;
    # Probe reads the state as the first argument of both steps
    assert positional(ld.spd_solve)[:3] == ["A", "shift", "rhs"]
    for writer in (harness.write_timeseries_csv, harness.write_convergence_csv, harness.write_vtk):
        assert positional(writer)[1] == "path"
    assert positional(ld.step_logdensity)[0] == positional(mx.step_mixed)[0] == "state"


def test_checks_read_both_initial_states():
    checks = load("checks")
    mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (6, 6))
    rho0 = lambda pts: np.maximum(0.5 - (pts ** 2).sum(axis=1), 0.0)
    log_state = ld.init_log_state(mesh, rho0, 2.0)
    mixed_state = mx.init_mixed_state(mesh, rho0, 2.0, compute_edge_geometry(mesh))
    for state, n in ((log_state, mesh.n_vertices), (mixed_state, mesh.n_cells)):
        points, cells = checks.mesh_arrays(state.mesh)
        assert points.shape == (mesh.n_vertices, 3) and cells.shape == (mesh.n_cells, 3)
        assert checks.initial_density(state).shape == (n,)
    # Probe._mark_steps compares the active masks of consecutive log-density states
    assert log_state.active.dtype == bool and log_state.active.shape == (mesh.n_vertices,)
