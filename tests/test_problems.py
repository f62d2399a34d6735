"""Closed-form profiles: pointwise values, PDE residuals, mass constancy."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from pmefem.problems import (
    barenblatt,
    complex_support,
    front_position,
    get_problem,
    merging_gaussians,
    waiting_time,
    waiting_time_profile,
)


class TestBarenblatt:
    def test_peak_value(self):
        assert barenblatt(0.0, 0.0, m=2, s0=3, d=1) == pytest.approx(3.0)

    def test_zero_outside_support(self):
        assert barenblatt(7.0, 0.0, m=2, s0=3, d=1) == 0.0
        assert barenblatt(np.array([5.0, 5.0]), 0.0, m=2, s0=1, d=2) == 0.0

    def test_m_le_1_rejected(self):
        with pytest.raises(ValueError):
            barenblatt(0.0, 0.0, m=1.0)

    def test_general_exponents_reduce_to_1d(self):
        # explicit 1D reference with k = 1/(m+1) against the general-d path
        xs = np.linspace(-8, 8, 41)
        m, s0, t = 3.0, 2.0, 0.7
        k = 1.0 / (m + 1.0)
        tau = t + 1.0
        core = np.maximum(s0 - k * (m - 1) / (2 * m) * xs**2 / tau ** (2 * k), 0.0)
        ref = tau ** (-k) * core ** (1 / (m - 1))
        assert barenblatt(xs, t, m=m, s0=s0, d=1) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("m,d,s0", [(2, 1, 3.0), (3, 1, 3.0), (2, 2, 1.0), (3, 2, 1.0)])
    def test_pde_residual_finite_difference(self, m, d, s0):
        # rho_t = lap(rho^m) checked with centered differences, spacing 1e-4
        h = 1e-4
        t = 0.5
        rng = np.random.default_rng(42)
        for _ in range(12):
            if d == 1:
                x = np.array([rng.uniform(-1.5, 1.5)])
            else:
                x = rng.uniform(-1.0, 1.0, size=2)
            rho = lambda pt, tt: barenblatt(pt if d > 1 else pt[0], tt, m, s0, d)
            if rho(x, t) < 0.2:        # stay inside the support, away from the front
                continue
            dt_rho = (rho(x, t + h) - rho(x, t - h)) / (2 * h)
            lap = 0.0
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                lap += (rho(x + e, t) ** m - 2 * rho(x, t) ** m + rho(x - e, t) ** m) / h**2
            assert abs(dt_rho - lap) <= 1e-3

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_mass_constant_in_time(self, t):
        m, s0 = 2, 3.0
        eta = front_position(t, m) * np.sqrt(s0)
        total, _ = quad(lambda x: barenblatt(x, t, m, s0, 1), -eta, eta, points=[-eta, eta], limit=200)
        ref, _ = quad(lambda x: barenblatt(x, 0.0, m, s0, 1), -6, 6, points=[-6, 6], limit=200)
        assert total == pytest.approx(ref, rel=1e-6)


class TestFrontPosition:
    def test_values(self):
        assert front_position(0.0, 2) == pytest.approx(np.sqrt(12), rel=1e-12)
        assert front_position(0.0, 3) == pytest.approx(np.sqrt(12), rel=1e-12)

    def test_monotone(self):
        ts = np.linspace(0, 3, 10)
        vals = [front_position(t, 2) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestWaitingTime:
    def test_t_star_values(self):
        assert waiting_time(3, 0.0) == pytest.approx(0.125)
        assert waiting_time(3, 0.25) == pytest.approx(1 / 6)

    def test_t_star_theta_range(self):
        with pytest.raises(ValueError):
            waiting_time(3, 0.3)

    def test_profile_values(self):
        assert waiting_time_profile(0.0, 3, 0.0) == pytest.approx(np.sqrt(2 / 3))
        assert waiting_time_profile(np.pi / 2, 3, 0.0) == 0.0
        assert waiting_time_profile(2.0, 3, 0.0) == 0.0

    def test_profile_continuous_at_interface(self):
        eps = 1e-8
        inside = waiting_time_profile(np.pi / 2 - eps, 3, 0.1)
        assert inside < 1e-3
        assert waiting_time_profile(np.pi / 2 + eps, 3, 0.1) == 0.0

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            waiting_time_profile(0.0, 3, 1.5)


class TestQualitativeData:
    def test_merging_gaussians(self):
        assert merging_gaussians(0.3, 0.3) == pytest.approx(1 + np.exp(-14.4))
        assert merging_gaussians(0.0, 0.0) == pytest.approx(2 * np.exp(-3.6))

    def test_complex_support_values(self):
        assert complex_support(2.0, 2.0, 3) == 0.0
        assert complex_support(0.0, 0.75, 3) == pytest.approx(3.125)
        assert complex_support(-0.75, 0.0, 3) == pytest.approx(25 * 0.0625**0.75)

    def test_complex_support_branches_cover_once(self):
        # cap/ring seams: values agree where regions touch
        v_ring = complex_support(0.0, -0.75, 3)
        assert v_ring == pytest.approx(25 * 0.0625**0.75)
        # boundary of the support: continuous to zero
        for x, y in [(0.0, 1.0 + 1e-9), (1.0 + 1e-9, 0.0), (0.25 + 1e-9, 0.75 + 0.0)]:
            val = complex_support(x, y, 3)
            assert val <= 1e-5

    def test_vectorized_grid(self):
        xs, ys = np.meshgrid(np.linspace(-2, 2, 21), np.linspace(-2, 2, 21))
        vals = complex_support(xs, ys, 3)
        assert vals.shape == xs.shape
        assert np.all(vals >= 0)


class TestCatalog:
    def test_names_and_dims(self):
        assert get_problem("barenblatt1d", 2.0).dim == 1
        assert get_problem("barenblatt2d", 2.0).dim == 2
        assert waiting_time(3.0, 0.0) == 0.125
        assert get_problem("waiting", 3.0).interface == math.pi / 2
        assert get_problem("gaussians", 3.0).exact is None
        assert get_problem("horseshoe", 3.0).default_mesh == "acute_triangle"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_problem("nosuch", 2.0)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            get_problem("barenblatt1d", 1.0)

    def test_exact_matches_rho0_at_t0(self):
        for name in ("barenblatt1d", "barenblatt2d"):
            p = get_problem(name, 2.0)
            pts = np.zeros((3, p.dim))
            pts[:, 0] = [0.0, 1.0, 2.0]
            assert p.exact(pts, 0.0) == pytest.approx(p.rho0(pts))

    def test_waiting_interface_on_grid(self):
        p = get_problem("waiting", 3.0)
        (x0, x1) = p.domain
        for n in (200, 400, 800):
            xs = np.linspace(x0, x1, n + 1)
            assert np.min(np.abs(xs - np.pi / 2)) < 1e-12
