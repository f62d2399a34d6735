"""Mixed scheme: condensation, upwinding, conservation, CFL positivity."""

import numpy as np
import pytest

from pmefem import harness, mixed
from pmefem.assembly import SolverError, spd_solve
from pmefem.harness import RunConfig, run_simulation
from pmefem.mesh import MeshError, build_structured_mesh, compute_edge_geometry, make_mesh
from pmefem.mixed import (
    CellGraph,
    MixedState,
    _dmu,
    _newton_update,
    cfl_max_dt,
    init_mixed_state,
    physical_energy,
    potential_from_density,
    step_mixed,
)
from pmefem.problems import barenblatt, get_problem, merging_gaussians


def state_from_rho(mesh, rho, m=2.0):
    graph = CellGraph(mesh, compute_edge_geometry(mesh))
    return MixedState(mesh=mesh, m=m, rho=np.asarray(rho, float), graph=graph)


def fluxes(state):
    """The state's interior-face fluxes, from its potential."""
    return state.graph.flux(state.potential())


class TestInit:
    def test_uniform(self):
        mesh = build_structured_mesh("quad", ((0, 1), (0, 1)), (3, 3))
        st = init_mixed_state(mesh, lambda pts: np.ones(len(pts)), 2.0, compute_edge_geometry(mesh))
        assert st.rho == pytest.approx(np.ones(9))
        assert fluxes(st) == pytest.approx(np.zeros(mesh.interior_faces.sum()))

    def test_barenblatt_outside_cells_zero(self):
        mesh = build_structured_mesh("interval", (-10, 10), 100)
        st = init_mixed_state(mesh, lambda pts: barenblatt(pts[:, 0], 0.0, 2, 3.0, 1), 2.0,
                              compute_edge_geometry(mesh))
        bary = mesh.cell_barycenters()[:, 0]
        assert np.all(st.rho[np.abs(bary) > 6.0] == 0.0)

    def test_gaussian_origin_cell(self):
        # symmetric mesh: a cell barycenter sits at the origin
        mesh = build_structured_mesh("quad", ((-1, 1), (-1, 1)), (5, 5))
        st = init_mixed_state(mesh, lambda pts: merging_gaussians(pts[:, 0], pts[:, 1]), 3.0,
                              compute_edge_geometry(mesh))
        center = np.argmin(np.linalg.norm(mesh.cell_barycenters(), axis=1))
        assert st.rho[center] == pytest.approx(2 * np.exp(-3.6), rel=1e-12)
        assert st.rho[center] == pytest.approx(0.05465, abs=1e-5)

    def test_negative_rejected(self):
        mesh = build_structured_mesh("interval", (0, 1), 4)
        with pytest.raises(ValueError):
            init_mixed_state(mesh, lambda pts: np.full(len(pts), -1.0), 2.0, compute_edge_geometry(mesh))


class TestCondensation:
    def test_equal_potentials_no_flow(self):
        mesh = build_structured_mesh("interval", (0, 2), 2)
        omega = compute_edge_geometry(mesh)
        flux = CellGraph(mesh, omega).flux(np.array([1.3, 1.3]))
        assert flux == pytest.approx(np.zeros(1))

    def test_1d_hand_value(self):
        # uniform h=1: interior node weight d_E/|E| = 1, mu=(2,0) -> flux 2
        mesh = build_structured_mesh("interval", (0, 2), 2)
        omega = compute_edge_geometry(mesh)
        assert CellGraph(mesh, omega).flux(np.array([2.0, 0.0])) == pytest.approx([2.0])

    def test_boundary_faces_zero(self):
        # the face table holds the interior faces only, so the fluxes of any
        # potential move no mass across the boundary
        mesh = build_structured_mesh("quad", ((0, 1), (0, 1)), (3, 3))
        graph = CellGraph(mesh, compute_edge_geometry(mesh))
        assert np.array_equal(np.column_stack([graph.k1, graph.k2]), mesh.face_cells[mesh.interior_faces])
        flux = graph.flux(np.random.default_rng(0).uniform(0, 2, mesh.n_cells))
        assert flux.shape == (12,)
        net = np.bincount(graph.k2, flux, mesh.n_cells) - np.bincount(graph.k1, flux, mesh.n_cells)
        assert net.sum() == pytest.approx(0.0, abs=1e-14)

    def test_nonstrict_mesh_rejected(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        mesh = make_mesh(verts, [(0, 1, 2), (0, 2, 3)], "triangle")  # right angles
        omega = compute_edge_geometry(mesh)
        with pytest.raises(MeshError, match="not strictly Delaunay"):
            CellGraph(mesh, omega)
        with pytest.raises(MeshError, match="not strictly Delaunay"):
            init_mixed_state(mesh, lambda pts: np.ones(len(pts)), 2.0, omega)

    def test_consistency_on_acute_triangles(self):
        # the aggregated cotangent weight equals (circumcenter distance)/|E|,
        # so a linear potential sampled at circumcenters reproduces its
        # integrated normal gradient |E| dmu/dn exactly through the two-point
        # formula
        mesh = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (8, 8))
        omega = compute_edge_geometry(mesh)
        cc = np.empty((mesh.n_cells, 2))
        for ci, cell in enumerate(mesh.cells):
            A, B, C = mesh.vertices[cell]
            lhs = 2.0 * np.array([B - A, C - A])
            rhs = np.array([B @ B - A @ A, C @ C - A @ A])
            cc[ci] = np.linalg.solve(lhs, rhs)
        mu = 2.0 * cc[:, 0]                         # grad(mu) = (2, 0)
        flux = CellGraph(mesh, omega).flux(mu)
        interior = mesh.interior_faces
        # unit normal of each face: the right-rotation of its edge, outward
        # from its first (counterclockwise) cell
        t = mesh.vertices[mesh.faces[:, 1]] - mesh.vertices[mesh.faces[:, 0]]
        normal_x = t[:, 1] / np.hypot(t[:, 0], t[:, 1])
        expected = -2.0 * normal_x[interior] * mesh.face_measures[interior]
        assert flux == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("kind", ["interval", "quad"])
    def test_consistency_on_tensor_grids(self, kind):
        # omega_E = d_E/|E| on intervals and quads, so a linear potential
        # sampled at the cell centres gives each face's |E| dmu/dn through
        # the two-point formula, here on grids of random spacings
        rng = np.random.default_rng(4)
        xs, ys = (np.cumsum(rng.uniform(0.5, 1.5, 9)) for _ in range(2))
        i, j = (a.ravel() for a in np.meshgrid(np.arange(8), np.arange(8)))
        if kind == "interval":
            mesh = make_mesh(xs, np.column_stack([np.arange(8), np.arange(1, 9)]), kind)
        else:
            v00 = 9 * j + i
            mesh = make_mesh(np.column_stack([np.tile(xs, 9), np.repeat(ys, 9)]),
                             np.column_stack([v00, v00 + 1, v00 + 10, v00 + 9]), kind)
        grad = np.array([2.0, -0.7])[:mesh.dim]
        centres = mesh.cell_barycenters()
        graph = CellGraph(mesh, compute_edge_geometry(mesh))
        d = centres[graph.k2] - centres[graph.k1]
        normal = d / np.linalg.norm(d, axis=1)[:, None]
        expected = -mesh.face_measures[mesh.interior_faces] * (normal @ grad)
        assert graph.flux(centres @ grad) == pytest.approx(expected, rel=1e-12)


class TestCellGraph:
    def test_face_table_built_once_per_run(self, monkeypatch):
        geometry, graphs = [], []
        real_geometry, real_graph = harness.compute_edge_geometry, mixed.CellGraph
        monkeypatch.setattr(harness, "compute_edge_geometry",
                            lambda *args: geometry.append(1) or real_geometry(*args))
        monkeypatch.setattr(mixed, "CellGraph", lambda *args: graphs.append(1) or real_graph(*args))
        cfg = RunConfig(scheme="mixed", problem="horseshoe", m=3.0, dt=1e-3, T=5e-3, counts=(8, 8))
        _, records = run_simulation(cfg)
        assert len(records) == 5
        assert len(geometry) == 1
        assert len(graphs) == 1


class TestUpwind:
    def test_direction(self):
        # h = 1, omega_E = 1, m = 2 and the normal points from cell 0 to cell
        # 1: the flux is 2 (rho_0 - rho_1), so the step keeps rho_0 + rho_1
        # and solves (rho_0 - rho_1)(1 + 4 dt rhat) = rho_0^prev - rho_1^prev.
        # The upwind cell is cell 0 when the flux is positive (along the
        # normal) and cell 1 when it is negative (against it); either way
        # rhat = 2, where the downwind value 1 would give another step.  With
        # no flux the choice is immaterial.
        mesh = build_structured_mesh("interval", (0, 2), 2)
        dt = 0.25
        for rho_prev in ([2.0, 1.0], [1.0, 2.0], [1.0, 1.0]):
            new = step_mixed(state_from_rho(mesh, rho_prev), dt)
            diff = (rho_prev[0] - rho_prev[1]) / (1 + 4 * dt * max(rho_prev))
            total = sum(rho_prev)
            assert new.rho == pytest.approx([(total + diff) / 2, (total - diff) / 2], abs=1e-10)
            assert np.sign(fluxes(new)) == np.sign(rho_prev[0] - rho_prev[1])


class TestStep:
    def test_two_cell_hand_solution(self):
        mesh = build_structured_mesh("interval", (0, 2), 2)
        st = state_from_rho(mesh, [1.0, 0.0], m=2.0)
        new = step_mixed(st, 0.25)
        assert new.rho == pytest.approx([0.75, 0.25], abs=1e-9)
        assert fluxes(new) == pytest.approx([1.0], abs=1e-9)

    def test_two_cell_against_2x2_oracle(self):
        # direct solve of the frozen-sign nonlinear 2x2 system by bisection on
        # rho_left with the mass constraint rho_l + rho_r = 1
        from scipy.optimize import brentq
        f = lambda rl: rl - 1 + 0.25 * 1.0 * 2.0 * (rl - (1 - rl))
        rl = brentq(f, 0.5, 1.0, xtol=1e-15)
        mesh = build_structured_mesh("interval", (0, 2), 2)
        st = state_from_rho(mesh, [1.0, 0.0], m=2.0)
        new = step_mixed(st, 0.25)
        assert new.rho[0] == pytest.approx(rl, abs=1e-6)

    def test_uniform_fixed_point_bitwise(self):
        mesh = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (4, 4))
        st = state_from_rho(mesh, np.full(mesh.n_cells, 0.8), m=3.0)
        new = step_mixed(st, 0.3)
        assert np.array_equal(new.rho, st.rho)
        assert not np.any(fluxes(new))

    def test_local_mass_balance(self):
        mesh = build_structured_mesh("interval", (-10, 10), 50)
        st = init_mixed_state(mesh, lambda pts: barenblatt(pts[:, 0], 0.0, 2, 3.0, 1), 2.0,
                              compute_edge_geometry(mesh))
        dt = 0.02
        new = step_mixed(st, dt)
        # recompute the per-cell balance from the returned state
        resid = mesh.cell_volumes * (new.rho - st.rho)
        interior = mesh.interior_faces
        k1 = mesh.face_cells[interior, 0]
        k2 = mesh.face_cells[interior, 1]
        uf = fluxes(new)
        rhat = np.where(uf >= 0, st.rho[k1], st.rho[k2])
        flux = rhat * uf
        np.add.at(resid, k1, dt * flux)
        np.subtract.at(resid, k2, dt * flux)
        assert np.max(np.abs(resid)) <= 1e-10

    def test_condensation_consistency_after_step(self):
        # the stepped state's potential and fluxes follow from its density:
        # on quads, the flux |E| u.n_E with the lumped velocity weight
        # w_E = (|K1| + |K2|)/2 of the normal component
        mesh = build_structured_mesh("quad", ((-6, 6), (-5, 5)), (8, 10))
        st = init_mixed_state(mesh, lambda pts: barenblatt(pts, 0.0, 2, 1.0, 2), 2.0,
                              compute_edge_geometry(mesh))
        new = step_mixed(st, 0.05)
        mu = new.potential()
        assert mu == pytest.approx(2.0 * new.rho, rel=1e-15)
        interior = mesh.interior_faces
        k1, k2 = mesh.face_cells[interior].T
        measure = mesh.face_measures[interior]
        u = measure * (mu[k1] - mu[k2]) / (0.5 * (mesh.cell_volumes[k1] + mesh.cell_volumes[k2]))
        assert fluxes(new) == pytest.approx(measure * u, rel=1e-13, abs=1e-15)

    def test_nonpositive_dt(self):
        mesh = build_structured_mesh("interval", (0, 1), 2)
        st = state_from_rho(mesh, [1.0, 1.0])
        with pytest.raises(ValueError):
            step_mixed(st, -0.1)


class TestConservationAndDissipation:
    @pytest.mark.parametrize("maker,m", [
        (lambda: build_structured_mesh("interval", (-10, 10), 40), 2.0),
        (lambda: build_structured_mesh("quad", ((-6, 6), (-6, 6)), (10, 10)), 2.0),
        (lambda: build_structured_mesh("acute_triangle", ((-6, 6), (-6, 6)), (10, 10)), 3.0),
    ])
    def test_mass_and_energy(self, maker, m):
        mesh = maker()
        if mesh.dim == 1:
            rho0 = lambda pts: barenblatt(pts[:, 0], 0.0, m, 3.0, 1)
        else:
            rho0 = lambda pts: barenblatt(pts, 0.0, m, 1.0, 2)
        st = init_mixed_state(mesh, rho0, m, compute_edge_geometry(mesh))
        mass0 = st.total_mass()
        energy = physical_energy(st)
        for _ in range(5):
            st = step_mixed(st, 0.02)
            assert st.total_mass() == pytest.approx(mass0, rel=1e-10)
            e = physical_energy(st)
            assert e <= energy + 1e-10
            energy = e

    def test_positivity_under_cfl(self):
        mesh = build_structured_mesh("interval", (-10, 10), 80)
        st = init_mixed_state(mesh, lambda pts: barenblatt(pts[:, 0], 0.0, 2, 3.0, 1), 2.0,
                              compute_edge_geometry(mesh))
        dt = 0.01
        for _ in range(10):
            st = step_mixed(st, dt)
            _, bound = cfl_max_dt(st)
            if dt <= bound:
                assert st.rho.min() >= -1e-12


class TestCfl:
    def test_no_outflow_unbounded(self):
        mesh = build_structured_mesh("interval", (0, 2), 2)
        st = state_from_rho(mesh, [1.0, 1.0])
        per_cell, bound = cfl_max_dt(st)
        assert np.all(np.isinf(per_cell))
        assert np.isinf(bound)

    def test_single_outflow_unit(self):
        # m = 2: mu = (2, 1), so flux 1 leaves the left cell (|K| = 1) on its
        # one outflow face
        mesh = build_structured_mesh("interval", (0, 2), 2)
        st = state_from_rho(mesh, [1.0, 0.5])
        assert fluxes(st) == pytest.approx([1.0])
        per_cell, bound = cfl_max_dt(st)
        assert bound == pytest.approx(1.0)
        assert per_cell[1] == np.inf

    def test_two_outflow_faces_halve(self):
        # m = 2: mu = (1, 2, 1), so the middle cell loses mass through both
        # faces at unit flux
        mesh = build_structured_mesh("interval", (0, 3), 3)
        st = state_from_rho(mesh, [0.5, 1.0, 0.5])
        assert np.abs(fluxes(st)) == pytest.approx([1.0, 1.0])
        per_cell, _ = cfl_max_dt(st)
        assert per_cell[1] == pytest.approx(0.5)


class TestEnergy:
    def test_values(self):
        mesh = build_structured_mesh("interval", (0, 1), 2)
        st = state_from_rho(mesh, [1.0, 1.0], m=2.0)
        assert physical_energy(st) == pytest.approx(1.0)
        st0 = state_from_rho(mesh, [0.0, 0.0], m=2.0)
        assert physical_energy(st0) == 0.0

    def test_hand_sum(self):
        mesh = build_structured_mesh("interval", (0, 2), 2)
        st = state_from_rho(mesh, [0.75, 0.25], m=2.0)
        assert physical_energy(st) == pytest.approx(0.625)

    def test_m_validation(self):
        mesh = build_structured_mesh("interval", (0, 1), 2)
        st = state_from_rho(mesh, [1.0, 1.0], m=1.0)
        with pytest.raises(ValueError):
            physical_energy(st)


class TestSignChatter:
    def test_flips_that_keep_the_upwind_values_converge(self):
        # near-zero fluxes change sign on roundoff from one iteration to the
        # next; between cells of equal previous density the step is the same
        mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (8, 8))
        rho0 = lambda pts: np.maximum(1 - ((pts[:, 0] - 0.053) ** 2 + (pts[:, 1] - 0.25) ** 2) / 0.36, 0)
        st = init_mixed_state(mesh, rho0, 1.1, compute_edge_geometry(mesh))
        new = step_mixed(st, 0.005)
        assert new.total_mass() == pytest.approx(st.total_mass(), rel=1e-12)
        assert physical_energy(new) <= physical_energy(st)


class TestNewtonUpdate:
    """The update meets the unsymmetric Newton system (V + L_g D) delta = -r,
    with V = diag|K|, L_g the Laplacian of the face weights
    g = dt rhat / omega_E and D = diag(dmu/drho), although only SPD systems
    are solved."""

    MESH = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (10, 10))

    @staticmethod
    def cap(pts):
        return np.maximum(1 - ((pts[:, 0] - 0.1) ** 2 + (pts[:, 1] + 0.05) ** 2) / 0.5, 0)

    def check(self, state, rho, dt=0.01):
        mesh = state.mesh
        interior = mesh.interior_faces
        k1, k2 = mesh.face_cells[interior].T
        mu = potential_from_density(rho, state.m)
        rhat = np.where(mu[k1] >= mu[k2], state.rho[k1], state.rho[k2])
        g = dt * rhat / compute_edge_geometry(mesh)[interior]
        dmu = _dmu(rho, state.m)
        jac = np.diag(mesh.cell_volumes)
        for a, b, ga in zip(k1, k2, g):
            jac[a, a] += ga * dmu[a]
            jac[a, b] -= ga * dmu[b]
            jac[b, a] -= ga * dmu[a]
            jac[b, b] += ga * dmu[b]
        r = np.random.default_rng(1).standard_normal(mesh.n_cells)
        graph = state.graph
        delta, _ = _newton_update(graph.laplacian(np.bincount(graph.pair_edge, g, graph.n_edges)),
                                  dmu, mesh.cell_volumes, r)
        assert np.all(np.isfinite(delta))
        assert np.linalg.norm(jac @ delta + r) <= 1e-11 * np.linalg.norm(r)

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_empty_cells(self, m):
        st = init_mixed_state(self.MESH, self.cap, m, compute_edge_geometry(self.MESH))
        empty = st.rho == 0
        assert 0 < empty.sum() < self.MESH.n_cells
        rho = st.rho * np.random.default_rng(0).uniform(0.5, 1.5, self.MESH.n_cells)
        self.check(st, rho)

    @pytest.mark.parametrize("m", [2.5, 3.0])
    def test_subnormal_cells(self, m):
        st = init_mixed_state(self.MESH, self.cap, m, compute_edge_geometry(self.MESH))
        rho = st.rho.copy()
        rho[st.rho == 0] = 1e-310
        rho[::7] = 5e-324
        self.check(st, rho)

    def test_all_cells_decoupled(self, monkeypatch):
        # subnormal densities everywhere: D L_g is below roundoff of V in
        # every column although the face weights are not zero
        monkeypatch.setattr(mixed, "spsolve", lambda *args: pytest.fail("no cell is coupled"))
        st = init_mixed_state(self.MESH, self.cap, 3.0, compute_edge_geometry(self.MESH))
        self.check(st, np.full(self.MESH.n_cells, 1e-310))

    def test_horseshoe_first_step_iterations(self, monkeypatch):
        solves = []
        monkeypatch.setattr(mixed, "spsolve", lambda *args: solves.append(1) or spd_solve(*args))
        run_simulation(RunConfig(scheme="mixed", problem="horseshoe", m=3.0, dt=1e-3, T=1e-3,
                                 counts=(40, 40)))
        assert 0 < len(solves) <= 12


class TestFailureModes:
    def test_nonconvergence_raises(self):
        mesh = build_structured_mesh("interval", (-10, 10), 30)
        st = init_mixed_state(mesh, lambda pts: barenblatt(pts[:, 0], 0.0, 2, 3.0, 1), 2.0,
                              compute_edge_geometry(mesh))
        with pytest.raises(SolverError):
            step_mixed(st, 1e9, max_iter=1)

    def test_nonconvergence_message(self):
        # one full and one halved iteration
        problem = get_problem("horseshoe", 3.0)
        mesh = build_structured_mesh("acute_triangle", problem.domain, (8, 8))
        st = init_mixed_state(mesh, problem.rho0, 3.0, compute_edge_geometry(mesh))
        with pytest.raises(SolverError, match=r"^mixed Newton did not converge in 2 iterations: "
                                              r"residual \d\.\d{3}e-0\d on 32 coupled cells$"):
            step_mixed(st, 1e-3, max_iter=1)
