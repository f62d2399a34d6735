"""Log-density scheme: micro-step oracle, conservation, dissipation, bounds."""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import lambertw

from pmefem import assembly, logdensity
from pmefem.assembly import SolverError, VertexGraph, spd_solve
from pmefem.harness import RunConfig, run_simulation
from pmefem.logdensity import (
    LogDensityState,
    StepSystem,
    bounds,
    entropy_energy,
    init_log_state,
    newton_update,
    row_solution,
    step_logdensity,
)
from pmefem.mesh import build_structured_mesh
from pmefem.problems import barenblatt, get_problem


def make_state(mesh, u, active=None, m=2.0):
    active = np.ones(mesh.n_vertices, bool) if active is None else active
    return LogDensityState(mesh=mesh, m=m, u=np.asarray(u, float),
                           active=active, graph=VertexGraph(mesh))


def positive_state(mesh, m=2.0, seed=0):
    rng = np.random.default_rng(seed)
    u = np.log(0.5 + rng.uniform(0.0, 1.5, mesh.n_vertices))
    return make_state(mesh, u, m=m)


class TestInit:
    def test_uniform_one(self):
        mesh = build_structured_mesh("interval", (0, 1), 8)
        st = init_log_state(mesh, lambda pts: np.ones(len(pts)), 2.0)
        assert np.all(st.active)
        assert st.u == pytest.approx(np.zeros(9))

    def test_barenblatt_support(self):
        mesh = build_structured_mesh("interval", (-10, 10), 100)
        st = init_log_state(mesh, lambda pts: barenblatt(pts[:, 0], 0.0, 2, 3.0, 1), 2.0)
        xs = mesh.vertices[:, 0]
        assert np.array_equal(st.active, np.abs(xs) < 6.0)  # support radius sqrt(2m s0/(k(m-1)))=6

    def test_tiny_positive_density_stays_active(self):
        mesh = build_structured_mesh("interval", (0, 1), 2)
        st = init_log_state(mesh, lambda pts: np.full(len(pts), 1e-300), 2.0)
        assert np.all(st.active)
        assert st.u == pytest.approx(np.full(3, np.log(1e-300)))
        assert st.u[0] == pytest.approx(-690.77552, rel=1e-6)

    def test_negative_density_rejected(self):
        mesh = build_structured_mesh("interval", (0, 1), 2)
        with pytest.raises(ValueError):
            init_log_state(mesh, lambda pts: np.full(len(pts), -0.1), 2.0)


class TestMicroStep:
    def bisection_oracle(self):
        # mass constraint exp(u1)+exp(u2)=3 reduces the 2-node step to a
        # scalar equation; vertex-rule coefficient (2+8)/2=5 on the element
        f = lambda a: 2 * a - 2 + 0.2 * np.log(a / (3 - a))
        return brentq(f, 1e-12, 3 - 1e-12, xtol=1e-15)

    def test_two_node_step_matches_bisection(self):
        mesh = build_structured_mesh("interval", (0, 1), 1)
        st = make_state(mesh, [0.0, np.log(2.0)], m=2.0)
        new = step_logdensity(st, 0.01, variant="vertex")
        a = self.bisection_oracle()
        assert np.exp(new.u) == pytest.approx([a, 3 - a], abs=1e-8)
        assert np.exp(new.u) == pytest.approx([1.0604, 1.9396], abs=2e-4)

    def test_mass_constant(self):
        mesh = build_structured_mesh("interval", (0, 1), 1)
        st = make_state(mesh, [0.0, np.log(2.0)], m=2.0)
        new = step_logdensity(st, 0.01)
        assert new.total_mass() == pytest.approx(st.total_mass(), rel=1e-10)


class TestFixedPoints:
    @pytest.mark.parametrize("variant", ["vertex", "edge"])
    def test_uniform_state_unchanged_bitwise(self, variant):
        mesh = build_structured_mesh("interval", (0, 2), 6)
        st = make_state(mesh, np.full(7, 0.3), m=3.0)
        new = step_logdensity(st, 0.5, variant=variant)
        assert np.array_equal(new.u, st.u)
        assert np.array_equal(new.active, st.active)
        assert new.time == pytest.approx(st.time + 0.5)


class TestNewton:
    def test_update_at_solution_is_fixed_point(self):
        mesh = build_structured_mesh("interval", (0, 1), 1)
        st = make_state(mesh, [0.0, np.log(2.0)], m=2.0)
        solved = step_logdensity(st, 0.01)
        system = StepSystem(st, 0.01, "vertex")
        u2, act2 = newton_update(system, solved.u, solved.active)
        assert np.max(np.abs(u2 - solved.u)) < 1e-12

    def test_uniform_converges_immediately(self):
        mesh = build_structured_mesh("interval", (0, 1), 4)
        st = make_state(mesh, np.zeros(5), m=2.0)
        system = StepSystem(st, 0.1, "vertex")
        r = system.residual(st.u, st.active)
        assert np.max(np.abs(r)) < 1e-12

    def test_functional_decreases_along_iterates(self):
        mesh = build_structured_mesh("interval", (-2, 2), 24)
        rng = np.random.default_rng(1)
        st = make_state(mesh, rng.normal(0.0, 1.0, 25), m=2.0)
        system = StepSystem(st, 0.05, "vertex")
        u, act = st.u.copy(), st.active.copy()
        values = [system.functional(u, act)]
        for _ in range(8):
            u, act = newton_update(system, u, act)
            values.append(system.functional(u, act))
        assert all(b <= a + 1e-12 * max(1, abs(a)) for a, b in zip(values, values[1:]))


class TestRowPredictor:
    def test_row_solution_to_roundoff(self):
        M = np.array([1e-3, 1e-3, 2.0, 0.5, 1e-4, 3.0, 1e-2, 1.0])
        a = np.array([1e-3, 1e-12, 2.0, 1e-300, 1e-4, 1e-9, 5e-8, 1e3])
        c = np.array([0.0, -3e-11, 40.0, 7.0, -1e-2, 1e-9, -2e-6, -5e5])
        v = row_solution(M, a, c)
        # roundoff of v is relative to the logarithms it is computed from
        dv = 4 * np.finfo(float).eps * (1 + np.abs(v) + np.abs(np.log(M / a)))
        assert np.all(np.abs(M * np.exp(v) + a * v - c) <= (M * np.exp(v) + a) * dv + 1e-15 * np.abs(c))
        with np.errstate(over="ignore"):
            w = lambertw(M / a * np.exp(c / a)).real  # the closed form where it does not overflow
        ok = np.isfinite(w)
        assert ok.sum() >= 4
        assert v[ok] == pytest.approx((c / a - w)[ok], rel=1e-13, abs=1e-13)

    def test_acts_only_on_overshoot_and_only_lowers(self, monkeypatch):
        mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (16, 16))
        st = init_log_state(mesh, get_problem("horseshoe", 3.0).rho0, 3.0)
        system = StepSystem(st, 1e-3, "vertex")
        solved = []
        monkeypatch.setattr(logdensity, "spd_solve", lambda *args: solved.append(spd_solve(*args)) or solved[-1].copy())
        u, act = newton_update(system, st.u, st.active)
        assert (act & ~st.active).any()  # fresh vertices: the full step is taken
        x = solved[0]
        up = x - np.where(st.active, st.u, -np.inf)[act] > 1.0
        moved = u[act] != x
        assert moved.any() and up.any()
        assert not np.any(moved & ~up)
        assert np.all(u[act] <= x)
        # a moved vertex solves its own row M e^v + a v = c, with c read off
        # the solved linear row, to roundoff
        i, v = np.flatnonzero(act)[moved], u[act][moved]
        M, a, dens = system.M[i], system.diag[i], st.density()[i]
        c = M * dens * (x[moved] - np.where(st.active, st.u, 0.0)[i] + 1.0) + a * x[moved]
        assert np.all(np.abs(M * np.exp(v) + a * v - c) <= 1e-13 * (M * np.exp(v) + np.abs(a * v) + np.abs(c)))
        # that c is the nonlinear row's b - (off-diagonal part of dtA) x, to
        # the linear solve's residual bound
        xz = np.zeros(mesh.n_vertices)
        xz[act] = x
        off = system.dtA @ xz - system.diag * xz
        rhs_norm = np.linalg.norm((system.M * (st.density() * np.where(st.active, st.u, 0.0)
                                               - st.density()) + system.b)[act])
        assert np.abs(c - (system.b[i] - off[i])).max() <= 2e-12 * rhs_norm

    def test_horseshoe_iterations_per_step(self, monkeypatch):
        per_step = []
        step, update = logdensity.step_logdensity, logdensity.newton_update

        def counted_step(*args, **kwargs):
            per_step.append(0)
            return step(*args, **kwargs)

        def counted_update(*args):
            per_step[-1] += 1
            return update(*args)

        monkeypatch.setattr(logdensity, "step_logdensity", counted_step)
        monkeypatch.setattr(logdensity, "newton_update", counted_update)
        run_simulation(RunConfig(scheme="logdensity", problem="horseshoe", m=3.0, dt=1e-3, T=0.02,
                                 counts=(40, 40), variant="vertex"))
        assert len(per_step) == 20
        assert max(per_step) <= 6  # 12-23 per step without the row predictor


class TestWarmStart:
    def test_fewer_pcg_products_than_a_cold_start(self, monkeypatch):
        # the Newton solve is for the next iterate itself, so starting PCG
        # from the current iterate saves matrix-vector products
        mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (16, 16))
        st = init_log_state(mesh, get_problem("horseshoe", 3.0).rho0, 3.0)
        products, iterations = [], []

        class Counted:
            def __init__(self, K):
                self.K = K

            def __matmul__(self, x):
                products.append(1)
                return self.K @ x

        pcg, update = assembly._jacobi_pcg, logdensity.newton_update
        monkeypatch.setattr(assembly, "_jacobi_pcg", lambda K, *args: pcg(Counted(K), *args))
        monkeypatch.setattr(assembly, "splu", lambda K: pytest.fail("a 2D solve left the PCG path"))
        monkeypatch.setattr(logdensity, "newton_update", lambda *args: iterations.append(1) or update(*args))

        def first_step():
            products.clear()
            iterations.clear()
            return step_logdensity(st, 1e-3, "vertex"), len(products), len(iterations)

        warm, warm_products, warm_iterations = first_step()
        monkeypatch.setattr(logdensity, "spd_solve", lambda *args: spd_solve(*args[:3]))  # from 0
        cold, cold_products, cold_iterations = first_step()
        assert warm_iterations == cold_iterations > 1
        assert warm_products < cold_products
        assert np.array_equal(warm.active, cold.active)


class TestConservationAndDissipation:
    @pytest.mark.parametrize("variant", ["vertex", "edge"])
    @pytest.mark.parametrize("maker", [
        lambda: build_structured_mesh("interval", (-1, 1), 20),
        lambda: build_structured_mesh("triangle", ((0, 1), (0, 1)), (5, 5)),
        lambda: build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (5, 5)),
    ])
    def test_mass_and_energy_over_steps(self, variant, maker):
        mesh = maker()
        st = positive_state(mesh, m=2.0, seed=4)
        mass0 = st.total_mass()
        energy = entropy_energy(st)
        for _ in range(5):
            st = step_logdensity(st, 0.02, variant=variant)
            assert st.total_mass() == pytest.approx(mass0, rel=1e-10)
            e = entropy_energy(st)
            assert e <= energy + 1e-10
            energy = e

    def test_vertex_variant_on_quads(self):
        mesh = build_structured_mesh("quad", ((0, 1), (0, 1)), (5, 5))
        st = positive_state(mesh, m=3.0, seed=2)
        mass0 = st.total_mass()
        energy = entropy_energy(st)
        for _ in range(4):
            st = step_logdensity(st, 0.01, variant="vertex")
            assert st.total_mass() == pytest.approx(mass0, rel=1e-10)
            assert entropy_energy(st) <= energy + 1e-10
            energy = entropy_energy(st)

    def test_positivity_structural(self):
        mesh = build_structured_mesh("interval", (-10, 10), 60)
        st = init_log_state(mesh, lambda pts: barenblatt(pts[:, 0], 0.0, 2, 3.0, 1), 2.0)
        for _ in range(5):
            st = step_logdensity(st, 0.05)
            dens = st.density()
            assert np.all(np.isfinite(dens))
            assert np.all(dens[st.active] > 0)
            assert np.all(dens[~st.active] == 0)


class TestBoundPreservation:
    @pytest.mark.parametrize("maker", [
        lambda: build_structured_mesh("interval", (0, 1), 24),
        lambda: build_structured_mesh("triangle", ((0, 1), (0, 1)), (6, 6)),
        lambda: build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (6, 6)),
    ])
    def test_envelope_shrinks_edge_variant(self, maker):
        mesh = maker()
        st = positive_state(mesh, m=2.0, seed=9)
        lo, hi = bounds(st)
        for _ in range(6):
            st = step_logdensity(st, 0.05, variant="edge")
            lo2, hi2 = bounds(st)
            assert lo2 >= lo - 1e-9
            assert hi2 <= hi + 1e-9
            lo, hi = lo2, hi2

    @pytest.mark.parametrize("problem,counts", [("barenblatt1d", (100,)), ("horseshoe", (16, 16))])
    def test_edge_variant_freezes_a_compact_support(self, problem, counts):
        # the edge coefficient is 0 on every edge with an inactive end, so no
        # vertex ever activates while the vertex variant's front moves: why
        # the config rejects the edge variant on compactly supported data
        spec = get_problem(problem, 2.0)
        kind = "interval" if spec.dim == 1 else "acute_triangle"
        mesh = build_structured_mesh(kind, spec.domain, counts)
        edge = vertex = st0 = init_log_state(mesh, spec.rho0, 2.0)
        for _ in range(10):
            edge = step_logdensity(edge, 0.05, variant="edge")
            vertex = step_logdensity(vertex, 0.05, variant="vertex")
            assert np.array_equal(edge.active, st0.active)
        assert vertex.active.sum() > st0.active.sum()

    def test_front_advances_with_vertex_variant(self):
        mesh = build_structured_mesh("interval", (-10, 10), 100)
        st = init_log_state(mesh, lambda pts: barenblatt(pts[:, 0], 0.0, 2, 3.0, 1), 2.0)
        n0 = int(st.active.sum())
        for _ in range(10):
            st = step_logdensity(st, 0.05)
        assert int(st.active.sum()) > n0


class TestDiagnostics:
    def test_entropy_energy_values(self):
        mesh = build_structured_mesh("interval", (0, 1), 4)
        st = make_state(mesh, np.zeros(5))
        assert entropy_energy(st) == pytest.approx(-1.0)  # rho=1 on |domain|=1
        st_e = make_state(mesh, np.ones(5))
        assert entropy_energy(st_e) == pytest.approx(0.0)  # rho=e: e*(1-1)

    def test_entropy_energy_all_inactive(self):
        mesh = build_structured_mesh("interval", (0, 1), 4)
        st = make_state(mesh, np.zeros(5), active=np.zeros(5, bool))
        assert entropy_energy(st) == 0.0

    def test_bounds(self):
        mesh = build_structured_mesh("interval", (0, 1), 4)
        st = make_state(mesh, np.full(5, 0.7))
        assert bounds(st) == pytest.approx((np.exp(0.7), np.exp(0.7)))
        empty = make_state(mesh, np.zeros(5), active=np.zeros(5, bool))
        assert bounds(empty) == (0.0, 0.0)  # no active vertex: the density is 0 everywhere

    def test_barenblatt_peak_bound(self):
        mesh = build_structured_mesh("interval", (-10, 10), 100)
        st = init_log_state(mesh, lambda pts: barenblatt(pts[:, 0], 0.0, 2, 3.0, 1), 2.0)
        assert bounds(st)[1] == pytest.approx(3.0)


class TestFailureModes:
    def test_nonconvergence_raises(self):
        mesh = build_structured_mesh("interval", (0, 1), 8)
        st = positive_state(mesh, seed=3)
        with pytest.raises(SolverError):
            step_logdensity(st, 1e6, max_iter=1)

    def test_nonconvergence_message(self):
        # one iteration to the tolerance and the polishing one are not enough
        mesh = build_structured_mesh("interval", (-10, 10), 30)
        st = init_log_state(mesh, get_problem("barenblatt1d", 2.0).rho0, 2.0)
        with pytest.raises(SolverError, match=r"^log-density Newton did not converge in 2 iterations: "
                                              r"residual \d\.\d{3}e-0\d on 19 active vertices$"):
            step_logdensity(st, 0.1, max_iter=1)

    def test_invalid_variant(self):
        mesh = build_structured_mesh("interval", (0, 1), 4)
        st = positive_state(mesh)
        with pytest.raises(ValueError):
            step_logdensity(st, 0.1, variant="bogus")

    def test_nonpositive_dt(self):
        mesh = build_structured_mesh("interval", (0, 1), 4)
        st = positive_state(mesh)
        with pytest.raises(ValueError):
            step_logdensity(st, 0.0)
