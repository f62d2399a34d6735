"""Property tests: LOG_STEPS steps of either log-density variant and one
step of the mixed scheme keep mass, do not raise the energy and stay
positive, for m in (1, 4] (the mixed scheme from m = 1.0001, see below) and
compactly supported data, on an acute triangle mesh and (vertex variant and
mixed scheme) on a quad mesh; the log-density support does not shrink.  The
log-density variants are also checked at steps from 1e-5 to 1e5, the edge
variant on positive data, and the mixed scheme from 1e-5 to 10.  Examples
are derandomized, so every run checks the same ones."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmefem import logdensity as ld
from pmefem import mixed as mx
from pmefem.mesh import build_structured_mesh, compute_edge_geometry

MESH = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (8, 8))
QUAD_MESH = build_structured_mesh("quad", ((-1, 1), (-1, 1)), (8, 8))

exponents = st.floats(min_value=1.0, max_value=4.0, exclude_min=True)
# The mixed scheme's potential m/(m-1) rho^(m-1) scales with 1/(m-1): at
# m = 1 + 1e-7 its Newton stops at the budget on the widest cap at dt = 1e-2.
# Its range stops short of that.
mixed_exponents = st.floats(min_value=1.0001, max_value=4.0)
centers = st.floats(min_value=-0.4, max_value=0.4)
radii = st.floats(min_value=0.3, max_value=0.6)
steps = st.floats(min_value=1e-4, max_value=1e-2)

#: log-density steps marched per example, each checked against the initial mass
LOG_STEPS = 4


def cap(cx, cy, radius):
    """Compactly supported bump of height 1 centred at (cx, cy)."""
    return lambda pts: np.maximum(1.0 - ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2) / radius**2, 0.0)


# each pinned example loses more than 1e-13 of its mass when the step
# operator couples the active set to inactive vertices and the accepted step
# is not corrected to exact mass
@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=exponents, cx=centers, cy=centers, radius=radii, dt=steps)
@example(m=3.1047355413290125, cx=-0.1648605952203539, cy=0.21412181598677893,
         radius=0.4712054357578497, dt=0.00015406014662726198)
def test_logdensity_edge_step(m, cx, cy, radius, dt):
    check_logdensity_step("edge", m, cx, cy, radius, dt)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=exponents, cx=centers, cy=centers, radius=radii, dt=steps)
@example(m=4.0, cx=0.4, cy=0.4, radius=0.3, dt=1e-2)
def test_logdensity_vertex_step(m, cx, cy, radius, dt):
    check_logdensity_step("vertex", m, cx, cy, radius, dt)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=exponents, cx=centers, cy=centers, radius=radii, dt=steps)
@example(m=1.2, cx=0.0, cy=0.0, radius=0.3, dt=1e-2)
def test_logdensity_vertex_step_quad(m, cx, cy, radius, dt):
    check_logdensity_step("vertex", m, cx, cy, radius, dt, QUAD_MESH)


# steps over ten decades, drawn by their exponent; one example stalled the
# line search at dt = 1e4 while its acceptance test was below the functional's
# roundoff
log_steps = st.floats(min_value=-5.0, max_value=5.0)
floors = st.floats(min_value=1e-2, max_value=1.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=exponents, cx=centers, cy=centers, radius=radii, log_dt=log_steps)
@example(m=2.0, cx=0.1, cy=-0.2, radius=0.5, log_dt=4.0)
def test_logdensity_vertex_step_any_dt(m, cx, cy, radius, log_dt):
    check_logdensity_step("vertex", m, cx, cy, radius, 10.0**log_dt)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=exponents, cx=centers, cy=centers, radius=radii, log_dt=log_steps, floor=floors)
@example(m=2.0, cx=0.1, cy=-0.2, radius=0.5, log_dt=5.0, floor=0.1)
def test_logdensity_edge_step_any_dt(m, cx, cy, radius, log_dt, floor):
    check_logdensity_step("edge", m, cx, cy, radius, 10.0**log_dt, floor=floor)


def check_logdensity_step(variant, m, cx, cy, radius, dt, mesh=MESH, floor=0.0):
    bump = cap(cx, cy, radius)
    state = ld.init_log_state(mesh, lambda pts: bump(pts) + floor, m)
    mass = state.total_mass()
    for _ in range(LOG_STEPS):
        new = ld.step_logdensity(state, dt, variant=variant)
        # an accepted step is corrected to the previous step's mass (abs=0:
        # pytest.approx would otherwise allow 1e-12 absolute)
        assert new.total_mass() == pytest.approx(mass, rel=1e-13, abs=0.0)
        energy = ld.entropy_energy(state)
        assert ld.entropy_energy(new) <= energy + 1e-12 * abs(energy)
        assert not np.any(state.active & ~new.active)  # the support never shrinks
        dens = new.density()
        assert np.all(np.isfinite(dens))
        assert np.all(dens[new.active] > 0)
        assert np.all(dens[~new.active] == 0)
        state = new


# the pinned examples stop at the Newton budget when the forcing term of the
# inexact solves is capped at 1e-2 in place of assembly.FORCING_CAP = 1e-4
@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=mixed_exponents, cx=centers, cy=centers, radius=radii, dt=steps)
@example(m=1.0001, cx=0.0, cy=0.0, radius=0.6, dt=1e-2)
def test_mixed_step(m, cx, cy, radius, dt):
    check_mixed_step(m, cx, cy, radius, dt)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=mixed_exponents, cx=centers, cy=centers, radius=radii, dt=steps)
@example(m=1.0001, cx=0.0, cy=0.0, radius=0.6, dt=1e-2)
def test_mixed_step_quad(m, cx, cy, radius, dt):
    check_mixed_step(m, cx, cy, radius, dt, QUAD_MESH)


# steps over six decades; the scan in test_mixed.py shows where larger ones stop
mixed_log_steps = st.floats(min_value=-5.0, max_value=1.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=mixed_exponents, cx=centers, cy=centers, radius=radii, log_dt=mixed_log_steps)
def test_mixed_step_any_dt(m, cx, cy, radius, log_dt):
    check_mixed_step(m, cx, cy, radius, 10.0**log_dt)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=mixed_exponents, cx=centers, cy=centers, radius=radii, log_dt=mixed_log_steps)
def test_mixed_step_quad_any_dt(m, cx, cy, radius, log_dt):
    check_mixed_step(m, cx, cy, radius, 10.0**log_dt, QUAD_MESH)


def test_mixed_step_roundoff_sign_flip():
    # found by a randomized run: a near-zero flux between cells of different
    # previous density flips sign on roundoff while the residual is ~1e-14
    check_mixed_step(1.0001, 1e-12, 1e-12, 0.47038857094063324, 0.005682604581152307)


def check_mixed_step(m, cx, cy, radius, dt, mesh=MESH):
    state = mx.init_mixed_state(mesh, cap(cx, cy, radius), m, compute_edge_geometry(mesh))
    new = mx.step_mixed(state, dt)
    # an accepted step is scaled to the previous step's mass (abs=0 as above)
    assert new.total_mass() == pytest.approx(state.total_mass(), rel=1e-13, abs=0.0)
    energy = mx.physical_energy(state)
    assert mx.physical_energy(new) <= energy + 1e-12 * energy
    assert new.rho.min() >= 0.0  # at any dt, with no CFL bound on it
