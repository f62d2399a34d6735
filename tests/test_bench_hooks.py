"""The benchmark's hooks wrap pmefem attributes by name: keep those names
and the positional arguments the hooks read."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from pmefem import harness
from pmefem import logdensity as ld
from pmefem import mixed as mx

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the hooks; installs nothing
    return module


def positional(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


@pytest.mark.parametrize("owner,attr,name", load_hooks().SPAN_SITES,
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
