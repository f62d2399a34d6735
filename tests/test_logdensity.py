"""Log-density scheme: micro-step oracle, conservation, dissipation, bounds."""

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.optimize import brentq
from scipy.special import lambertw

from pmefem import assembly, logdensity
from pmefem.assembly import GraphMatrix, SolverError, VertexGraph, spd_solve
from pmefem.harness import RunConfig, run_convergence, run_simulation
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

    def test_empty_state_stays_empty(self):
        # a domain that misses the initial support: zero density is a solution
        mesh = build_structured_mesh("interval", (20, 30), 10)
        st = init_log_state(mesh, get_problem("barenblatt1d", 2.0).rho0, 2.0)
        assert not st.active.any()
        new = step_logdensity(st, 0.1)
        assert np.array_equal(new.u, st.u) and not new.active.any()


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

    def test_fresh_vertices_take_exactly_the_solve(self, monkeypatch):
        # the incoming iterate has density 0 at a fresh vertex, where the
        # functional is +inf: the line search takes the full step, which is
        # the solve's x itself (the row correction is switched off)
        mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (16, 16))
        st = init_log_state(mesh, get_problem("horseshoe", 3.0).rho0, 3.0)
        system = StepSystem(st, 1e-3, "vertex")
        solved = []
        monkeypatch.setattr(logdensity, "ROW_LIFT", np.inf)
        monkeypatch.setattr(logdensity, "spd_solve",
                            lambda *args, **kw: solved.append(spd_solve(*args, **kw)) or solved[-1].copy())
        u, act = newton_update(system, st.u, st.active)
        assert (act & ~st.active).any()
        assert np.array_equal(u[act], solved[0]) and system.halvings == 0
        assert np.all(u[~act] == logdensity.LOG_FLOOR)
        # an accepted full step without fresh vertices is x itself too
        for _ in range(5):
            prev, (u, act) = act, newton_update(system, u, act)
            if not (act & ~prev).any():
                break
        assert not (act & ~prev).any()
        assert system.halvings == 0 and np.array_equal(u[act], solved[-1])

    def test_slack_is_relative_at_small_amplitude(self):
        # the line search's slack is the roundoff of the functional: from
        # 1e-8 rho0, where |f0| < 1, it stays at 1e-12 |f0| and below (an
        # absolute floor of 1e-12 cannot)
        mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (16, 16))
        st = init_log_state(mesh, lambda pts: 1e-8 * get_problem("horseshoe", 3.0).rho0(pts), 3.0)
        system = StepSystem(st, 1e-3, "vertex")
        f0 = system.functional(st.u, st.active)
        assert 0 < abs(f0) < 1
        assert system.record(st.u, st.active).slack <= 1e-12 * abs(f0)
        u, act = newton_update(system, st.u, st.active)
        assert system.functional(u, act) <= f0


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
        monkeypatch.setattr(logdensity, "spd_solve",
                            lambda *args, **kw: solved.append(spd_solve(*args, **kw)) or solved[-1].copy())
        u, act = newton_update(system, st.u, st.active)
        assert (act & ~st.active).any()  # fresh vertices: the full step is taken
        x = solved[0]
        up = x - np.where(st.active, st.u, -np.inf)[act] > logdensity.ROW_LIFT
        moved = u[act] != x
        assert moved.any() and up.any()
        assert not np.any(moved & ~up)
        assert np.all(u[act] <= x)
        # a moved vertex solves its own nonlinear row M e^v + a v = c with its
        # neighbours at the (inexact) linear solution x, c = b - (off-diagonal
        # part of the step operator K) x, to roundoff
        K = system.operator(act)
        i, v = np.flatnonzero(act)[moved], u[act][moved]
        M, a = system.M[i], K.diagonal()[moved]
        c = system.b[i] - (K @ x - K.diagonal() * x)[moved]
        assert np.all(np.abs(M * np.exp(v) + a * v - c) <= 1e-13 * (M * np.exp(v) + np.abs(a * v) + np.abs(c)))

    def test_keeps_an_inexact_solution_below_its_row_root(self, monkeypatch):
        # a solve that stops short can leave x_i below the root of its own row:
        # the correction only ever lowers, so such a vertex keeps x_i
        mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (16, 16))
        st = init_log_state(mesh, get_problem("horseshoe", 3.0).rho0, 3.0)
        system = StepSystem(st, 1e-3, "vertex")
        solved = []
        monkeypatch.setattr(logdensity, "spd_solve",
                            lambda *args, **kw: solved.append(spd_solve(*args, **kw) - 0.05) or solved[-1].copy())
        u, act = newton_update(system, st.u, st.active)
        x = solved[0]
        up = x - np.where(st.active, st.u, -np.inf)[act] > logdensity.ROW_LIFT
        assert np.all(u[act] <= x)
        assert np.any(up & (u[act] == x)) and np.any(up & (u[act] < x))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=strategies.integers(min_value=2, max_value=40), seed=strategies.integers(min_value=0, max_value=2**32 - 1),
           log_dt=strategies.floats(min_value=-4.0, max_value=4.0), spread=strategies.floats(min_value=0.0, max_value=6.0))
    def test_row_root_never_above_an_exact_solve(self, n, seed, log_dt, spread):
        # row i of the Newton system is the tangent at u_i of the convex,
        # increasing M_i e^v + a_i v - c_i, so the root lies at or below the
        # solution x_i of the row; 1D solves are direct and hold every row
        mesh = build_structured_mesh("interval", (-1, 1), n)
        rng = np.random.default_rng(seed)
        active = rng.uniform(size=n + 1) < 0.8
        active[rng.integers(n + 1)] = True
        prev = make_state(mesh, rng.normal(0.0, spread, n + 1), active)
        system = StepSystem(prev, 10.0**log_dt)
        u = prev.u + rng.normal(0.0, spread, n + 1)
        solves = []
        with mock.patch.object(logdensity, "spd_solve",
                               lambda *args, **kw: solves.append((args[0], spd_solve(*args, **kw))) or solves[-1][1].copy()):
            newton_update(system, u, active)
        K, x = solves[0]
        a = K.diagonal()
        idx = np.flatnonzero(system.record(u, active).act)
        c = system.b[idx] - (K @ x - a * x)
        pos = a > 0
        v = row_solution(system.M[idx][pos], a[pos], c[pos])
        eps = np.finfo(float).eps
        assert np.all(v <= x[pos] + 64 * eps * (1 + np.abs(x[pos]) + np.abs(np.log(system.M[idx][pos] / a[pos]))))

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
        assert max(per_step) <= 5  # 12-23 per step without the row correction


class TestWarmStart:
    def test_fewer_pcg_products_than_a_cold_start(self, monkeypatch):
        # the Newton solve is for the next iterate itself, so starting PCG
        # from the current iterate saves matrix-vector products
        mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (16, 16))
        st = init_log_state(mesh, get_problem("horseshoe", 3.0).rho0, 3.0)
        products, iterations = [], []

        class Counted(GraphMatrix):
            def matvec(self, x, out):  # every product, ``@`` included
                products.append(1)
                return super().matvec(x, out)

        pcg, update = assembly._jacobi_pcg, logdensity.newton_update
        monkeypatch.setattr(assembly, "_jacobi_pcg", lambda K, *args: pcg(Counted(K.pattern, K.data), *args))
        monkeypatch.setattr(assembly, "splu", lambda K: pytest.fail("a 2D solve left the PCG path"))
        monkeypatch.setattr(logdensity, "newton_update", lambda *args: iterations.append(1) or update(*args))

        def first_step():
            products.clear()
            iterations.clear()
            return step_logdensity(st, 1e-3, "vertex"), len(products), len(iterations)

        # both at the strict tolerance: a cold start's first residual is the
        # right-hand side, not the Newton residual the forcing term is tied to
        monkeypatch.setattr(logdensity, "spd_solve", lambda *args, **kw: spd_solve(*args))
        warm, warm_products, warm_iterations = first_step()
        monkeypatch.setattr(logdensity, "spd_solve", lambda *args, **kw: spd_solve(*args[:3], np.zeros(len(args[2]))))
        cold, cold_products, cold_iterations = first_step()
        assert warm_iterations == cold_iterations > 1
        assert warm_products < cold_products
        assert np.array_equal(warm.active, cold.active)


class TestInexactNewton:
    def test_horseshoe_newton_solves(self, monkeypatch):
        # the benchmark's ld-horseshoe run, one solve per Newton iteration:
        # 158 with exact solves and with forcing (165 at a tolerance of
        # 1e-10 S, 215 with the row correction only above one log-unit)
        solves = []
        monkeypatch.setattr(logdensity, "spd_solve", lambda *args, **kw: solves.append(1) or spd_solve(*args, **kw))
        run_simulation(RunConfig(scheme="logdensity", problem="horseshoe", m=3.0, dt=1e-3, T=0.05,
                                 counts=(40, 40), variant="vertex"))
        assert len(solves) <= 170

    def test_barenblatt_study_newton_iterations(self, monkeypatch):
        # the benchmark's 1D log-density study: 1,303 (1,383 at a tolerance of
        # 1e-10 S, 1,702 with the row correction only above one log-unit)
        iterations = []
        update = logdensity.newton_update
        monkeypatch.setattr(logdensity, "newton_update", lambda *args: iterations.append(1) or update(*args))
        run_convergence(RunConfig(scheme="logdensity", problem="barenblatt1d", m=2.0, dt=0.2, T=1.0,
                                  counts=(100,), levels=4))
        assert len(iterations) <= 1400


class TestIterateRecord:
    def case(self):
        mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (8, 8))
        st = init_log_state(mesh, get_problem("horseshoe", 2.0).rho0, 2.0)
        rng = np.random.default_rng(5)
        iterates = [st.u + rng.normal(0.0, 0.3, mesh.n_vertices) for _ in range(2)]
        masks = [st.active.copy(), st.active & (rng.uniform(size=mesh.n_vertices) < 0.7)]
        return st, iterates, masks

    def test_interleaved_calls_match_a_fresh_system(self):
        st, iterates, masks = self.case()
        system = StepSystem(st, 1e-2, "vertex")
        read = {"residual": StepSystem.residual, "functional": StepSystem.functional,
                "act": lambda s, u, a: s.record(u, a).act, "tol": lambda s, u, a: s.record(u, a).tol,
                "slack": lambda s, u, a: (s.functional(u, a), s.record(u, a).slack)}
        calls = [(name, i, j) for name in read for i in range(2) for j in range(2)]
        order = np.random.default_rng(6).permutation(2 * len(calls)) % len(calls)
        for name, i, j in (calls[k] for k in order):
            got = read[name](system, iterates[i], masks[j])
            want = read[name](StepSystem(st, 1e-2, "vertex"), iterates[i], masks[j])
            assert np.array_equal(got, want), (name, i, j)

    def test_recorded_arrays_are_read_only(self):
        st, (u, _), (active, _) = self.case()
        StepSystem(st, 1e-2, "vertex").residual(u, active)
        with pytest.raises(ValueError, match="read-only"):
            u[0] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            active[0] = not active[0]

    def test_two_products_per_newton_iteration(self, monkeypatch):
        # the acceptance test and the line search's f0 read the record: a
        # Newton iteration without fresh vertices, with the acceptance test of
        # its result, multiplies with K for the row correction and for the
        # candidate alone (3 or 4 products before the record).  The linear
        # solve's own products, such as its refinement residual, are not counted
        products, marks, fresh, solving = [], [], [], []
        matmul, update, step = GraphMatrix.__matmul__, logdensity.newton_update, logdensity.step_logdensity

        def counted_matmul(self, x):
            if not solving:
                products.append(1)
            return matmul(self, x)

        def uncounted_solve(*args, **kwargs):
            solving.append(1)
            try:
                return spd_solve(*args, **kwargs)
            finally:
                solving.clear()

        monkeypatch.setattr(GraphMatrix, "__matmul__", counted_matmul)
        monkeypatch.setattr(logdensity, "spd_solve", uncounted_solve)

        def counted_update(system, u, active):
            marks.append(len(products))
            u_next, act = update(system, u, active)
            fresh.append(bool((act & ~active).any()))
            return u_next, act

        def counted_step(*args, **kwargs):
            new = step(*args, **kwargs)
            marks.append(len(products))  # the step's end closes its last iteration
            fresh.append(None)
            return new

        monkeypatch.setattr(logdensity, "newton_update", counted_update)
        monkeypatch.setattr(logdensity, "step_logdensity", counted_step)
        run_simulation(RunConfig(scheme="logdensity", problem="barenblatt1d", m=2.0, dt=0.05, T=1.0, counts=(200,)))
        made = [marks[k + 1] - marks[k] for k in range(len(marks) - 1) if fresh[k] is False]
        assert len(made) > 20 and max(made) == 2


class TestStepOperator:
    @pytest.mark.parametrize("problem,variant,kind,counts", [
        ("horseshoe", "vertex", "acute_triangle", (16, 16)),
        ("gaussians", "edge", "acute_triangle", (16, 16)),
        ("barenblatt1d", "vertex", "interval", (30,)),
    ])
    def test_moves_no_mass_on_any_mask(self, problem, variant, kind, counts):
        # the residual's sum is the mass change of the masked vertices alone:
        # the operator keeps no coupling to a vertex outside the mask
        spec = get_problem(problem, 2.0)
        mesh = build_structured_mesh(kind, spec.domain, counts)
        st = init_log_state(mesh, spec.rho0, 2.0)
        system = StepSystem(st, 1e-2, variant)
        rng = np.random.default_rng(7)
        mask = st.active & (rng.uniform(size=mesh.n_vertices) < 0.8)
        u = st.u + rng.normal(0.0, 0.3, mesh.n_vertices)
        change = system.M[mask] * (np.exp(u[mask]) - system.exp_prev[mask])
        scale = np.sum(system.M[mask] * (np.exp(u[mask]) + system.exp_prev[mask]))
        assert abs(system.residual(u, mask).sum() - change.sum()) <= 1e-14 * scale
        K = system.operator(mask)
        assert np.max(np.abs(K.tocsr().sum(axis=1).A1)) <= 1e-14 * np.max(np.abs(K.diagonal()))

    def test_built_once_per_mask(self):
        mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (8, 8))
        st = init_log_state(mesh, get_problem("horseshoe", 2.0).rho0, 2.0)
        system = StepSystem(st, 1e-3, "vertex")
        mask = st.active.copy()
        K = system.operator(mask)
        mask[0] = ~mask[0]  # the cache holds its own copy of the mask
        assert system.operator(st.active) is K
        assert system.operator(mask) is not K


class TestMassCorrection:
    def corrections(self, caplog, cfg):
        with caplog.at_level(logging.DEBUG, logger="pmefem.logdensity"):
            _, series = run_simulation(cfg)
        c = [r.args[1] for r in caplog.records if r.name == "pmefem.logdensity"]
        assert len(c) == len(series)  # one per step
        return np.array(c)

    @pytest.mark.parametrize("cfg", [
        RunConfig(scheme="logdensity", problem="horseshoe", m=1.5, dt=1e-3, T=0.02, counts=(16, 16)),
        RunConfig(scheme="logdensity", problem="horseshoe", m=3.0, dt=1e-3, T=0.02, counts=(16, 16)),
        RunConfig(scheme="logdensity", problem="barenblatt1d", m=2.0, dt=0.1, T=1.0, counts=(100,)),
    ], ids=["horseshoe-1.5", "horseshoe-3", "barenblatt1d"])
    def test_correction_is_of_the_tolerance_size(self, caplog, cfg):
        # the correction hides a mass defect: bound it, so that a leaking
        # operator or a loose tolerance still fails
        assert np.max(np.abs(self.corrections(caplog, cfg))) <= assembly.NEWTON_RTOL

    def test_benchmark_horseshoe_drift(self):
        # the ld-horseshoe benchmark run, against its initial mass
        spec = get_problem("horseshoe", 3.0)
        st = init_log_state(build_structured_mesh("acute_triangle", spec.domain, (40, 40)), spec.rho0, 3.0)
        mass0 = st.total_mass()
        for _ in range(50):
            st = step_logdensity(st, 1e-3, "vertex")
            assert st.total_mass() == pytest.approx(mass0, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("dt", [1e3, 1e5])
    def test_large_steps(self, dt):
        # the LU solves of these steps are backward stable but miss 1e-12 ||rhs||
        mesh = build_structured_mesh("interval", (-10, 10), 30)
        st = init_log_state(mesh, get_problem("barenblatt1d", 2.0).rho0, 2.0)
        new = step_logdensity(step_logdensity(st, dt), dt)
        assert new.total_mass() == pytest.approx(st.total_mass(), rel=1e-14, abs=0.0)


class TestStepLog:
    def test_debug_line_counts(self, caplog, monkeypatch):
        # a 1D step with every vertex active, whose first solve is pushed to
        # 30 times the Newton step: the line search halves and the lifted
        # vertices get the row correction
        mesh = build_structured_mesh("interval", (-2, 2), 24)
        st = make_state(mesh, np.random.default_rng(1).normal(0.0, 1.0, 25))
        seen = {"solves": 0, "rows": 0, "functionals": 0}

        def solve(K, shift, rhs, x0, **kw):
            x = spd_solve(K, shift, rhs, x0, **kw)
            if not seen["solves"]:
                x = x0 + 30.0 * (x - x0)
            seen["solves"] += 1
            seen["rows"] += int(np.sum((x - x0 > logdensity.ROW_LIFT) & (K.diagonal() > 0)))
            return x

        functional = StepSystem.functional

        def counted_functional(system, u, active):
            seen["functionals"] += 1
            return functional(system, u, active)

        monkeypatch.setattr(logdensity, "spd_solve", solve)
        monkeypatch.setattr(StepSystem, "functional", counted_functional)
        with caplog.at_level(logging.DEBUG, logger="pmefem.logdensity"):
            step_logdensity(st, 0.05)
        (record,) = [r for r in caplog.records if r.name == "pmefem.logdensity"]
        t, c, iterations, halvings, rows = record.args
        assert t == 0.05 and iterations == seen["solves"]
        # each iteration evaluates f0 and one candidate per halving, plus one
        assert halvings == seen["functionals"] - 2 * iterations > 0
        assert rows == seen["rows"] > 0
        assert record.getMessage().endswith(f"after {iterations} Newton iterations, {halvings} line-search "
                                            f"halvings, {rows} row-corrected vertices")


class TestScaleCovariance:
    # the PME is invariant under rho -> lam rho, t -> lam^(1-m) t, and so is
    # the scheme: a run from lam rho0 is lam times the unit run
    MESH = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (16, 16))

    def run(self, lam, variant):
        def rho0(pts):
            cap = lam * np.maximum(0.5 - (pts ** 2).sum(axis=1), 0.0)
            return cap + 0.1 * lam if variant == "edge" else cap
        st = init_log_state(self.MESH, rho0, 2.0)
        for _ in range(10):
            st = step_logdensity(st, 2e-3 / lam, variant)
        return st.density()

    @pytest.mark.parametrize("variant", ["vertex", "edge"])
    def test_amplitude_scaling(self, variant):
        unit = self.run(1.0, variant)
        for lam in (1e-8, 1e-4, 1e4, 1e8):
            assert np.max(np.abs(self.run(lam, variant) / lam - unit)) <= 1e-9 * unit.max()


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
    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(assembly, "NEWTON_MAXITER", 1)
        mesh = build_structured_mesh("interval", (0, 1), 8)
        st = positive_state(mesh, seed=3)
        with pytest.raises(SolverError, match="Newton did not converge"):
            step_logdensity(st, 1e6)

    def test_nonconvergence_message(self, monkeypatch):
        # one iteration does not reach the tolerance
        monkeypatch.setattr(assembly, "NEWTON_MAXITER", 1)
        mesh = build_structured_mesh("interval", (-10, 10), 30)
        st = init_log_state(mesh, get_problem("barenblatt1d", 2.0).rho0, 2.0)
        with pytest.raises(SolverError, match=r"^log-density Newton did not converge in 1 iterations: "
                                              r"residual \d\.\d{3}e-0\d on 19 active vertices$"):
            step_logdensity(st, 0.1)

    def test_zero_budget_message(self, monkeypatch):
        monkeypatch.setattr(assembly, "NEWTON_MAXITER", 0)
        mesh = build_structured_mesh("interval", (-10, 10), 30)
        st = init_log_state(mesh, get_problem("barenblatt1d", 2.0).rho0, 2.0)
        with pytest.raises(SolverError, match=r"^log-density Newton did not converge in 0 iterations: "
                                              r"residual \d\.\d{3}e[+-]\d\d on 17 active vertices$"):
            step_logdensity(st, 0.1)

    def test_linear_solve_failure_message(self, monkeypatch):
        # a failed update keeps its type and gains the iteration and the
        # residual of the iterate it started from
        def failing(*args, **kwargs):
            raise SolverError("singular system: injected")

        monkeypatch.setattr(logdensity, "spd_solve", failing)
        mesh = build_structured_mesh("interval", (-10, 10), 30)
        st = init_log_state(mesh, get_problem("barenblatt1d", 2.0).rho0, 2.0)
        with pytest.raises(SolverError, match=r"^log-density Newton iteration 1: singular system: injected; "
                                              r"residual \d\.\d{3}e[+-]\d\d on 17 active vertices$") as info:
            step_logdensity(st, 0.1)
        assert type(info.value.__cause__) is SolverError and str(info.value.__cause__) == "singular system: injected"

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
