"""Property tests: one step of either log-density variant and of the mixed
scheme keeps mass, does not raise the energy and stays positive, for m in
(1, 4] (the mixed scheme from m = 1.0001, see below) and compactly
supported data, on an acute triangle mesh and (vertex variant and mixed
scheme) on a quad mesh; the log-density support does not shrink.  Examples
are derandomized, so every run checks the same ones."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmefem import harness
from pmefem import logdensity as ld
from pmefem import mixed as mx
from pmefem.mesh import build_structured_mesh

MESH = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (8, 8))
QUAD_MESH = build_structured_mesh("quad", ((-1, 1), (-1, 1)), (8, 8))

exponents = st.floats(min_value=1.0, max_value=4.0, exclude_min=True)
# The mixed scheme's potential m/(m-1) rho^(m-1) and its CFL bound scale with
# 1/(m-1): within 1e-6 of m = 1 its absolute Newton tolerance is not met, or
# 20 step halvings do not reach the bound.  Its range stops short of that.
mixed_exponents = st.floats(min_value=1.0001, max_value=4.0)
centers = st.floats(min_value=-0.4, max_value=0.4)
radii = st.floats(min_value=0.3, max_value=0.6)
steps = st.floats(min_value=1e-4, max_value=1e-2)


def cap(cx, cy, radius):
    """Compactly supported bump of height 1 centred at (cx, cy)."""
    return lambda pts: np.maximum(1.0 - ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2) / radius**2, 0.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=exponents, cx=centers, cy=centers, radius=radii, dt=steps)
def test_logdensity_edge_step(m, cx, cy, radius, dt):
    check_logdensity_step("edge", m, cx, cy, radius, dt)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=exponents, cx=centers, cy=centers, radius=radii, dt=steps)
def test_logdensity_vertex_step(m, cx, cy, radius, dt):
    check_logdensity_step("vertex", m, cx, cy, radius, dt)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=exponents, cx=centers, cy=centers, radius=radii, dt=steps)
def test_logdensity_vertex_step_quad(m, cx, cy, radius, dt):
    check_logdensity_step("vertex", m, cx, cy, radius, dt, QUAD_MESH)


def check_logdensity_step(variant, m, cx, cy, radius, dt, mesh=MESH):
    state = ld.init_log_state(mesh, cap(cx, cy, radius), m)
    new = ld.step_logdensity(state, dt, variant=variant)
    # mass is kept to the Newton tolerance: where Newton converges linearly
    # (densities far below their final value) the defect reaches ~1e-11
    assert new.total_mass() == pytest.approx(state.total_mass(), rel=1e-10)
    energy = ld.entropy_energy(state)
    assert ld.entropy_energy(new) <= energy + 1e-12 * abs(energy)
    assert not np.any(state.active & ~new.active)  # the support never shrinks
    dens = new.density()
    assert np.all(np.isfinite(dens))
    assert np.all(dens[new.active] > 0)
    assert np.all(dens[~new.active] == 0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=mixed_exponents, cx=centers, cy=centers, radius=radii, dt=steps)
def test_mixed_step(m, cx, cy, radius, dt):
    check_mixed_step(m, cx, cy, radius, dt)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=mixed_exponents, cx=centers, cy=centers, radius=radii, dt=steps)
def test_mixed_step_quad(m, cx, cy, radius, dt):
    check_mixed_step(m, cx, cy, radius, dt, QUAD_MESH)


def test_mixed_step_roundoff_sign_flip():
    # found by a randomized run: a near-zero flux between cells of different
    # previous density flips sign on roundoff while the residual is ~1e-14
    check_mixed_step(1.0001, 1e-12, 1e-12, 0.47038857094063324, 0.005682604581152307)


def check_mixed_step(m, cx, cy, radius, dt, mesh=MESH):
    state = mx.init_mixed_state(mesh, cap(cx, cy, radius), m)
    # halving until the post hoc CFL bound holds is what guarantees positivity
    new, bound = harness._mixed_step_with_cfl(state, dt, autohalve=True)
    assert bound == mx.cfl_max_dt(new)[1]
    assert new.total_mass() == pytest.approx(state.total_mass(), rel=1e-12)
    energy = mx.physical_energy(state)
    assert mx.physical_energy(new) <= energy + 1e-12 * energy
    assert new.rho.min() >= -1e-12
