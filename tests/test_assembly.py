"""Lumped mass, harmonic averages, the two stiffness variants, SPD solves."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from pmefem import assembly
from pmefem.assembly import (
    GraphMatrix,
    GraphOperator,
    Pattern,
    SolverError,
    VertexGraph,
    harmonic_edge_average,
    lumped_mass,
    spd_solve,
    stiffness_edge_based,
    stiffness_vertex_quadrature,
)
from pmefem.logdensity import init_log_state, step_logdensity
from pmefem.mesh import build_structured_mesh, compute_edge_geometry, make_mesh
from pmefem.mixed import init_mixed_state
from pmefem.problems import get_problem


def all_active(mesh):
    return np.ones(mesh.n_vertices, dtype=bool)


def p1_stiffness_oracle(mesh, coeff=1.0):
    """Direct P1/Q1 stiffness, independently of the assembly module: basis
    gradients from a local linear solve, high-order Gauss on quads."""
    n = mesh.n_vertices
    A = np.zeros((n, n))
    for ci, cell in enumerate(mesh.cells):
        pts = mesh.vertices[cell]
        if mesh.cell_kind == "interval":
            h = pts[1, 0] - pts[0, 0]
            local = coeff / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
        elif mesh.cell_kind == "triangle":
            V = np.column_stack([np.ones(3), pts])
            grads = np.linalg.solve(V, np.eye(3))[1:, :]  # rows: d/dx, d/dy
            local = coeff * mesh.cell_volumes[ci] * grads.T @ grads
        else:  # quad: 4x4 Gauss, ample for the bilinear integrand
            x0, x1 = pts[0, 0], pts[1, 0]
            y0, y1 = pts[0, 1], pts[3, 1]
            gx, gw = np.polynomial.legendre.leggauss(4)
            local = np.zeros((4, 4))
            for xi, wx in zip(gx, gw):
                for eta, wy in zip(gx, gw):
                    s, t = (xi + 1) / 2, (eta + 1) / 2
                    dsdx, dtdy = 1 / (x1 - x0), 1 / (y1 - y0)
                    dphi = np.array([
                        [-(1 - t) * dsdx, -(1 - s) * dtdy],
                        [(1 - t) * dsdx, -s * dtdy],
                        [t * dsdx, s * dtdy],
                        [-t * dsdx, (1 - s) * dtdy],
                    ])
                    jac = (x1 - x0) * (y1 - y0) / 4
                    local += coeff * wx * wy * jac * dphi @ dphi.T
        for a in range(len(cell)):
            for b in range(len(cell)):
                A[cell[a], cell[b]] += local[a, b]
    return A


MESHES = {
    "interval": lambda: build_structured_mesh("interval", (0, 2), 7),
    "triangle": lambda: build_structured_mesh("triangle", ((0, 1), (0, 1)), (3, 3)),
    "acute": lambda: build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (4, 4)),
    "quad": lambda: build_structured_mesh("quad", ((0, 1), (0, 2)), (3, 4)),
}


class TestLumpedMass:
    def test_interval_weights(self):
        m = build_structured_mesh("interval", (0, 1), 2)
        assert lumped_mass(m) == pytest.approx([0.25, 0.5, 0.25])

    def test_two_triangle_square(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        m = make_mesh(verts, [(0, 1, 2), (0, 2, 3)], "triangle")
        assert lumped_mass(m) == pytest.approx([1 / 3, 1 / 6, 1 / 3, 1 / 6])

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_partition_of_unity(self, name):
        m = MESHES[name]()
        assert lumped_mass(m).sum() == pytest.approx(m.volume, rel=1e-12)
        assert np.all(lumped_mass(m) > 0)


class TestHarmonicAverage:
    def test_constant(self):
        for m, c in ((2.0, 0.3), (3.0, -1.0), (1.5, 0.0)):
            assert harmonic_edge_average(c, c, m) == pytest.approx(m * np.exp(m * c))

    def test_quadrature_oracle(self):
        # invert the edge integral of 1/gamma computed by adaptive quadrature
        for m, ui, uj in ((2.0, 0.0, np.log(2)), (3.0, -0.5, 1.2), (2.5, 2.0, -3.0)):
            integral, _ = quad(lambda s: np.exp(-m * (ui + s * (uj - ui))) / m, 0, 1)
            assert harmonic_edge_average(ui, uj, m) == pytest.approx(1 / integral, rel=1e-10)
        assert harmonic_edge_average(0.0, np.log(2), 2.0) == pytest.approx(3.6967849, rel=1e-6)

    def test_branch_continuity(self):
        m, u = 2.0, 0.4
        tiny = harmonic_edge_average(u, u + 1e-13, m)
        assert tiny == pytest.approx(m * np.exp(m * (u + 5e-14)), rel=1e-9)
        above = harmonic_edge_average(u, u + 2e-10, m)
        below = harmonic_edge_average(u, u + 0.5e-10, m)
        assert above == pytest.approx(below, rel=1e-9)

    def test_vectorized(self):
        ui = np.array([0.0, 1.0, -2.0])
        uj = np.array([0.0, 1.5, -2.0])
        out = harmonic_edge_average(ui, uj, 2.0)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(2.0)


class TestStiffness:
    @pytest.mark.parametrize("name", ["interval", "triangle", "acute"])
    def test_constant_coefficient_equivalence(self, name):
        m = MESHES[name]()
        u0 = np.zeros(m.n_vertices)
        oracle = p1_stiffness_oracle(m, coeff=2.0)  # gamma = m*exp(0) = 2
        edge = stiffness_edge_based(VertexGraph(m), u0, 2.0, all_active(m)).tocsr().toarray()
        vertex = stiffness_vertex_quadrature(VertexGraph(m), u0, 2.0, all_active(m)).tocsr().toarray()
        assert np.max(np.abs(edge - oracle)) < 1e-12
        assert np.max(np.abs(vertex - oracle)) < 1e-12

    def test_constant_coefficient_quads(self):
        m = MESHES["quad"]()
        oracle = p1_stiffness_oracle(m, coeff=3.0)
        vertex = stiffness_vertex_quadrature(VertexGraph(m), np.zeros(m.n_vertices), 3.0,
                                             all_active(m)).tocsr().toarray()
        assert np.max(np.abs(vertex - oracle)) < 1e-12

    def test_edge_rejects_quads(self):
        m = MESHES["quad"]()
        with pytest.raises(ValueError):
            stiffness_edge_based(VertexGraph(m), np.zeros(m.n_vertices), 2.0, all_active(m))

    @pytest.mark.parametrize("mesh", [
        make_mesh([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-9)], [(0, 1, 2)], "triangle"),  # sliver
        build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (16, 16)),
        build_structured_mesh("triangle", ((0, 2), (-1, 1)), (5, 4)),
    ], ids=["sliver", "acute", "triangle"])
    def test_triangle_blocks_match_einsum_bitwise(self, mesh):
        # the Gram matrix of the opposite edges by the generic einsum; bytes
        # are compared, so a -0 in place of +0 (right angles) counts as a change
        pts = mesh.vertices[mesh.cells]
        e = np.stack([pts[:, 2] - pts[:, 1], pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 0]], axis=1)
        reference = np.einsum("cid,cjd->cij", e, e) / (4.0 * mesh.cell_volumes)[:, None, None]
        assert assembly.element_stiffness(mesh).tobytes() == reference.tobytes()

    def test_1d_single_element_values(self):
        m = build_structured_mesh("interval", (0, 1), 1)
        u = np.array([0.0, np.log(2)])
        edge = stiffness_edge_based(VertexGraph(m), u, 2.0, all_active(m)).tocsr().toarray()
        assert edge[0, 1] == pytest.approx(-3.6967849, rel=1e-6)
        vertex = stiffness_vertex_quadrature(VertexGraph(m), u, 2.0, all_active(m)).tocsr().toarray()
        assert vertex[0, 1] == pytest.approx(-5.0)  # -(2 + 8)/2

    @pytest.mark.parametrize("name", sorted(MESHES))
    @pytest.mark.parametrize("variant", ["edge", "vertex"])
    def test_row_sums_zero(self, name, variant):
        m = MESHES[name]()
        if variant == "edge" and m.cell_kind == "quad":
            pytest.skip("edge variant is simplex-only")
        rng = np.random.default_rng(7)
        u = rng.normal(size=m.n_vertices)
        if variant == "edge":
            A = stiffness_edge_based(VertexGraph(m), u, 2.0, all_active(m))
        else:
            A = stiffness_vertex_quadrature(VertexGraph(m), u, 2.0, all_active(m))
        assert np.max(np.abs(A.tocsr().sum(axis=1).A1)) < 1e-12

    @pytest.mark.parametrize("name", ["interval", "triangle", "acute", "quad"])
    def test_positive_semidefinite(self, name):
        m = MESHES[name]()
        rng = np.random.default_rng(3)
        u = rng.normal(scale=0.5, size=m.n_vertices)
        mats = [stiffness_vertex_quadrature(VertexGraph(m), u, 2.0, all_active(m))]
        if m.cell_kind != "quad":
            mats.append(stiffness_edge_based(VertexGraph(m), u, 2.0, all_active(m)))
        for A in mats:
            for _ in range(10):
                x = rng.normal(size=m.n_vertices)
                assert x @ (A @ x) >= -1e-12 * (x @ x)

    @pytest.mark.parametrize("variant", ["edge", "vertex"])
    def test_shift_scales_exponentially(self, variant):
        m = MESHES["triangle"]()
        rng = np.random.default_rng(11)
        u = rng.normal(scale=0.3, size=m.n_vertices)
        c, mexp = 0.7, 2.0
        if variant == "edge":
            A0 = stiffness_edge_based(VertexGraph(m), u, mexp, all_active(m)).tocsr().toarray()
            A1 = stiffness_edge_based(VertexGraph(m), u + c, mexp, all_active(m)).tocsr().toarray()
        else:
            A0 = stiffness_vertex_quadrature(VertexGraph(m), u, mexp, all_active(m)).tocsr().toarray()
            A1 = stiffness_vertex_quadrature(VertexGraph(m), u + c, mexp, all_active(m)).tocsr().toarray()
        assert np.allclose(A1, np.exp(mexp * c) * A0, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("name", ["interval", "acute", "quad"])
    def test_vertex_graph_caches_element_stiffness(self, monkeypatch, name):
        m = MESHES[name]()
        rng = np.random.default_rng(4)
        u, active = rng.normal(size=m.n_vertices), rng.uniform(size=m.n_vertices) < 0.8
        iu, ju = np.triu_indices(m.cells.shape[1], 1)
        gamma = np.where(active, 2.0 * np.exp(2.0 * u), 0.0)
        off = assembly.element_stiffness(m)[:, iu, ju] * gamma[m.cells].mean(axis=1)[:, None]
        graph = VertexGraph(m)
        expected = graph.laplacian(-np.bincount(graph.pair_edge, off.ravel(), graph.n_edges)).data
        calls = []
        real = assembly.element_stiffness
        monkeypatch.setattr(assembly, "element_stiffness", lambda mesh: calls.append(1) or real(mesh))
        for _ in range(3):
            A = stiffness_vertex_quadrature(graph, u, 2.0, active)
            assert np.array_equal(A.data, expected)  # bitwise: same products, same order
        assert len(calls) == 1

    def test_inactive_endpoints_drop_edges(self):
        m = build_structured_mesh("interval", (0, 1), 3)
        u = np.zeros(4)
        active = np.array([True, True, False, True])
        A = stiffness_edge_based(VertexGraph(m), u, 2.0, active).tocsr().toarray()
        assert A[2, :] == pytest.approx(0.0)
        assert A[0, 1] != 0.0


class TestEdgeWeights:
    """The edge variant's weights are -A_ij of the constant-coefficient P1
    stiffness, summed over the cells of each edge."""

    def test_right_angle_diagonals_are_exactly_zero(self):
        # both angles opposite a diagonal of the structured split are right angles
        m = build_structured_mesh("triangle", ((0, 1), (0, 1)), (4, 4))
        u = np.random.default_rng(2).normal(size=m.n_vertices)
        A = stiffness_edge_based(VertexGraph(m), u, 2.0, all_active(m)).tocsr()
        d = m.vertices[m.faces[:, 1]] - m.vertices[m.faces[:, 0]]
        diagonals = m.faces[(d[:, 0] != 0) & (d[:, 1] != 0)]
        assert len(diagonals) == 16
        assert all(A[i, j] == 0.0 and A[j, i] == 0.0 for i, j in diagonals)

    def test_intervals_get_one_over_h_bitwise(self):
        xs = np.sort(np.random.default_rng(8).uniform(-1, 3, 12))
        m = make_mesh(xs, np.column_stack([np.arange(11), np.arange(1, 12)]), "interval")
        graph = VertexGraph(m)
        assert np.array_equal(np.column_stack([graph.ei, graph.ej]), m.cells)
        assert np.array_equal(graph.edge_weight, 1.0 / m.cell_volumes)

    @pytest.mark.parametrize("box,counts", [(((0, 1), (0, 1)), (4, 4)), (((-2, 2), (-1, 2)), (7, 5)),
                                            (((-1, 1), (-1, 1)), (16, 16))])
    def test_acute_weights_match_cotangent_weights(self, box, counts):
        m = build_structured_mesh("acute_triangle", box, counts)
        graph = VertexGraph(m)
        omega = compute_edge_geometry(m)
        ends = np.sort(m.faces, axis=1)
        edge = np.searchsorted(graph.ei * m.n_vertices + graph.ej, ends[:, 0] * m.n_vertices + ends[:, 1])
        assert graph.n_edges == m.n_faces
        assert np.max(np.abs(graph.edge_weight[edge] - omega) / omega) <= 1e-15

    @pytest.mark.parametrize("mesh", [
        make_mesh([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-9)], [(0, 1, 2)], "triangle"),  # sliver
        make_mesh([(0.0, 0.0), (1.0, 0.0), (0.3, 1e-5)], [(0, 1, 2)], "triangle"),
        build_structured_mesh("triangle", ((0, 2), (-1, 1)), (5, 4)),
        build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (16, 16)),
    ], ids=["sliver", "thin", "triangle", "acute"])
    def test_face_weights_match_p1_stiffness(self, mesh):
        # both from (pa . pb) / (4|K|): no angle is formed, so slivers keep
        # their weights finite and exact
        graph = VertexGraph(mesh)
        with np.errstate(all="raise"):
            omega = compute_edge_geometry(mesh)
        ends = np.sort(mesh.faces, axis=1)
        edge = np.searchsorted(graph.ei * mesh.n_vertices + graph.ej,
                               ends[:, 0] * mesh.n_vertices + ends[:, 1])
        assert graph.n_edges == mesh.n_faces
        w = graph.edge_weight[edge]
        assert np.all(np.abs(omega - w) <= 1e-13 * np.abs(w))

    def test_weights_computed_once_on_first_use(self, monkeypatch):
        m = MESHES["acute"]()
        calls = []
        real = assembly.element_stiffness
        monkeypatch.setattr(assembly, "element_stiffness", lambda mesh: calls.append(1) or real(mesh))
        graph = VertexGraph(m)
        assert calls == []
        u = np.random.default_rng(9).normal(size=m.n_vertices)
        first = stiffness_edge_based(graph, u, 2.0, all_active(m)).data
        for _ in range(2):
            assert np.array_equal(stiffness_edge_based(graph, u, 2.0, all_active(m)).data, first)
        assert len(calls) == 1


class TestVelocityWeights:
    """The lumped velocity weights through the mixed scheme's face weights
    omega_E = d_E/|E|: the weight of the normal component is omega_E |E|^2."""

    def test_uniform_quad_interior(self):
        h = 0.25
        m = build_structured_mesh("quad", ((0, 1), (0, 1)), (4, 4))
        omega = compute_edge_geometry(m)
        assert omega[m.interior_faces] == pytest.approx(1.0)  # d_E = |E| = h
        assert (omega * m.face_measures**2)[m.interior_faces] == pytest.approx(h * h)

    def test_two_equilateral_triangles(self):
        s3 = np.sqrt(3) / 2
        verts = [(0.0, 0.0), (1.0, 0.0), (0.5, s3), (0.5, -s3)]
        m = make_mesh(verts, [(0, 1, 2), (0, 3, 1)], "triangle")
        omega = compute_edge_geometry(m)
        shared = int(np.flatnonzero(m.interior_faces)[0])
        assert omega[shared] == pytest.approx(1 / np.sqrt(3))  # unit edge: cot factor

    def test_right_angle_contributes_zero(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        m = make_mesh(verts, [(0, 1, 2)], "triangle")
        omega = compute_edge_geometry(m)
        hyp = [i for i, f in enumerate(m.faces) if set(f) == {1, 2}][0]
        assert omega[hyp] == pytest.approx(0.0, abs=1e-14)

    def test_strict_delaunay_weights_positive(self):
        m = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (6, 6))
        omega = compute_edge_geometry(m)
        assert np.all(omega[m.interior_faces] > 0)


def graph_matrix(n, pairs, off, diag):
    """Symmetric matrix with off-diagonal entries `off` on `pairs` (summed
    per pair) and the given diagonal."""
    op = GraphOperator(n, pairs)
    data = np.zeros(op.nnz)
    data[op.upper] = data[op.lower] = np.bincount(op.pair_edge, off, op.n_edges)
    data[op.diag] = diag
    return GraphMatrix(op, data)


def no_lu(*args):
    raise AssertionError("2D system left the PCG path")


def stiffness_2d(seed=5, counts=(8, 8)):
    rng = np.random.default_rng(seed)
    m = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), counts)
    return m, stiffness_vertex_quadrature(VertexGraph(m), rng.normal(size=m.n_vertices), 2.0,
                                          all_active(m)), rng


class TestSpdSolve:
    def test_identity_shift(self):
        A = graph_matrix(3, [], [], np.zeros(3))
        rhs = np.array([1.0, -2.0, 0.5])
        assert spd_solve(A, np.ones(3), rhs) == pytest.approx(rhs)

    def test_hand_2x2(self):
        A = graph_matrix(2, [(0, 1)], [-1.0], [2.0, 2.0])
        x = spd_solve(A, np.zeros(2), np.array([1.0, 0.0]))
        assert x == pytest.approx([2 / 3, 1 / 3])

    def test_zero_matrix_fails(self):
        A = graph_matrix(2, [], [], np.zeros(2))
        with pytest.raises(SolverError):
            spd_solve(A, np.zeros(2), np.array([1.0, 1.0]))

    def test_negative_shift_rejected(self):
        A = graph_matrix(1, [], [], [1.0])
        with pytest.raises(ValueError):
            spd_solve(A, np.array([-1.0]), np.array([1.0]))

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        n = 40
        m = build_structured_mesh("interval", (0, 1), n)
        A = stiffness_vertex_quadrature(VertexGraph(m), rng.normal(size=n + 1), 2.0, all_active(m))
        shift = rng.uniform(0.5, 2.0, size=n + 1)
        rhs = rng.normal(size=n + 1)
        x = spd_solve(A, shift, rhs)
        res = A @ x + shift * x - rhs
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)

    def test_pcg_path_contract(self, monkeypatch):
        m, A, rng = stiffness_2d()
        active = rng.uniform(size=m.n_vertices) < 0.8
        K = A.scaled(1e-2).restrict(active)
        shift = rng.uniform(0.5, 2.0, size=K.n) / m.n_vertices
        rhs = rng.normal(size=K.n)
        monkeypatch.setattr(assembly, "splu", no_lu)
        x = spd_solve(K, shift, rhs)
        res = K @ x + shift * x - rhs
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)

    def test_start_point_keeps_contract(self, monkeypatch):
        m, A, rng = stiffness_2d()
        K = A.scaled(1e-2)
        shift = rng.uniform(0.5, 2.0, size=K.n) / m.n_vertices
        rhs = rng.normal(size=K.n)
        monkeypatch.setattr(assembly, "splu", no_lu)
        exact = np.linalg.solve(K.tocsr().toarray() + np.diag(shift), rhs)
        for x0 in (rng.normal(size=K.n), exact):
            x = spd_solve(K, shift, rhs, x0)
            assert np.linalg.norm(K @ x + shift * x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_zero_start_point_is_the_cold_start(self, monkeypatch):
        m, A, rng = stiffness_2d()
        shift = np.full(m.n_vertices, 1e-3)
        rhs = rng.normal(size=m.n_vertices)
        monkeypatch.setattr(assembly, "splu", no_lu)
        assert np.array_equal(spd_solve(A, shift, rhs, np.zeros(m.n_vertices)), spd_solve(A, shift, rhs))

    def test_path_graph_solves_directly(self, monkeypatch):
        m = build_structured_mesh("interval", (0, 1), 30)
        A = stiffness_vertex_quadrature(VertexGraph(m), np.zeros(31), 2.0, all_active(m))
        monkeypatch.setattr(assembly, "_jacobi_pcg", lambda *args: pytest.fail("PCG on a path graph"))
        rhs = np.linspace(-1.0, 1.0, 31)
        x = spd_solve(A, np.full(31, 0.1), rhs)
        assert np.linalg.norm(A @ x + 0.1 * x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        # the LU path ignores a start point
        for x0 in (np.random.default_rng(3).normal(size=31), x):
            assert np.array_equal(spd_solve(A, np.full(31, 0.1), rhs, x0), x)

    @pytest.mark.parametrize("mesh", [("interval", (0, 1), 4), ("acute_triangle", ((0, 1), (0, 1)), (4, 4))],
                             ids=["lu", "pcg"])
    @pytest.mark.parametrize("bad", ["short", "column", "nan", "inf"])
    def test_bad_start_point_rejected(self, mesh, bad):
        m = build_structured_mesh(*mesh)
        A = stiffness_vertex_quadrature(VertexGraph(m), np.zeros(m.n_vertices), 2.0, all_active(m))
        n = m.n_vertices
        x0 = {"short": np.zeros(n - 1), "column": np.zeros((n, 1)),
              "nan": np.where(np.arange(n) == 2, np.nan, 0.0), "inf": np.where(np.arange(n) == 2, -np.inf, 0.0)}[bad]
        with pytest.raises(ValueError, match="start point"):
            spd_solve(A, np.ones(n), np.ones(n), x0)

    @pytest.mark.parametrize("case", ["iteration_cap", "indefinite"])
    def test_forced_fallback(self, monkeypatch, case):
        m, A, rng = stiffness_2d()
        shift = np.full(m.n_vertices, 1e-3)
        if case == "iteration_cap":
            monkeypatch.setattr(assembly, "PCG_MAXITER", 1)
        else:
            A = A.scaled(-1.0)  # negative definite plus a small shift: PCG breaks down
        calls = []
        real_splu = assembly.splu
        monkeypatch.setattr(assembly, "splu", lambda K: calls.append(K) or real_splu(K))
        rhs = rng.normal(size=m.n_vertices)
        x = spd_solve(A, shift, rhs)
        assert len(calls) == 1
        assert np.linalg.norm(A @ x + shift * x - rhs) <= 1e-12 * np.linalg.norm(rhs)


class TestGraphOperator:
    def test_exact_symmetry_and_pair_accumulation(self):
        op = GraphOperator(3, [(0, 1), (1, 0), (1, 2)])
        assert op.n_edges == 2
        A = op.laplacian(np.bincount(op.pair_edge, [0.1, 0.2, 0.3], op.n_edges)).tocsr().toarray()
        assert np.array_equal(A, A.T)
        assert A[0, 1] == pytest.approx(-0.3)  # (0,1) and (1,0) accumulate together
        m, K, rng = stiffness_2d()
        for B in (K, stiffness_edge_based(VertexGraph(m), rng.normal(size=m.n_vertices), 3.0, all_active(m))):
            arr = B.tocsr().toarray()
            assert np.array_equal(arr, arr.T)

    def test_restrict(self):
        m, A, rng = stiffness_2d()
        active = rng.uniform(size=m.n_vertices) < 0.6
        sub = A.restrict(active)
        full = A.tocsr().toarray()
        assert sub.n == int(active.sum())
        assert np.array_equal(sub.tocsr().toarray(), full[active][:, active])
        assert np.array_equal(sub.diagonal(), full.diagonal()[active])
        # rows lose exactly their coupling to the dropped vertices
        assert sub.tocsr().sum(axis=1).A1 == pytest.approx(-full[active][:, ~active].sum(axis=1), abs=1e-12)
        assert np.max(np.abs(A.tocsr().sum(axis=1).A1)) < 1e-12

    def test_scaled(self):
        A = graph_matrix(2, [(0, 1)], [1.0], [0.0, 1.0])
        assert np.allclose(A.scaled(0.5).tocsr().toarray(), [[0.0, 0.5], [0.5, 0.5]])

    def test_inactive_edges_keep_the_pattern(self):
        m = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (4, 4))
        active = np.ones(m.n_vertices, bool)
        active[::3] = False
        graph = VertexGraph(m)
        A = stiffness_edge_based(graph, np.zeros(m.n_vertices), 2.0, active)
        assert A.data.size == graph.nnz
        arr = A.tocsr().toarray()
        assert np.all(arr[~active][:, active] == 0.0)

    def test_cell_graph_face_positions(self):
        m = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (3, 3))
        op = init_mixed_state(m, lambda pts: np.ones(len(pts)), 2.0, compute_edge_geometry(m)).graph
        pairs = m.face_cells[m.interior_faces]
        assert op.n_edges == len(pairs)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        upper, lower = op.upper[op.pair_edge], op.lower[op.pair_edge]
        assert np.array_equal(op.rows[upper], lo)
        assert np.array_equal(op.indices[upper], hi)
        assert np.array_equal(op.rows[lower], hi)
        assert np.array_equal(op.indices[lower], lo)

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_pattern_matches_lexsort_reference(self, name):
        # vertex graph and cell graph: edges from min/max of each pair, the
        # (row, column) order of np.lexsort
        m = MESHES[name]()
        iu, ju = np.triu_indices(m.cells.shape[1], 1)
        for n, pairs in ((m.n_vertices, np.stack([m.cells[:, iu], m.cells[:, ju]], axis=-1).reshape(-1, 2)),
                         (m.n_cells, m.face_cells[m.interior_faces])):
            op = GraphOperator(n, pairs)
            keys, pair_edge = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1), return_inverse=True)
            ei, ej = keys // n, keys % n
            rows = np.concatenate([ei, ej, np.arange(n)])
            cols = np.concatenate([ej, ei, np.arange(n)])
            order = np.lexsort((cols, rows))
            pos = np.empty_like(order)
            pos[order] = np.arange(order.size)
            ne = len(keys)
            expected = (ei, ej, pair_edge, pos[:ne], pos[ne:2 * ne], pos[2 * ne:], rows[order], cols[order],
                        np.searchsorted(rows[order], np.arange(n + 1)))
            got = (op.ei, op.ej, op.pair_edge, op.upper, op.lower, op.diag, op.rows, op.indices, op.indptr)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def fresh_masking(A, mask):
    """A restricted to the mask by a sub-pattern built now, past the cache."""
    keep, sub = A.pattern._sub_pattern(mask)
    return GraphMatrix(sub, A.data[keep])


def assert_same(sub, ref):
    for a, b in ((sub.pattern.indptr, ref.pattern.indptr), (sub.pattern.indices, ref.pattern.indices),
                 (sub.pattern.rows, ref.pattern.rows), (sub.pattern.diag, ref.pattern.diag), (sub.data, ref.data)):
        assert a.tobytes() == b.tobytes()


class TestRestrictCache:
    """The pattern keeps the sub-pattern of the last mask; every restricted
    matrix equals a fresh masking bitwise."""

    def test_hit_equals_a_fresh_masking(self):
        m, A, rng = stiffness_2d()
        mask = rng.uniform(size=m.n_vertices) < 0.6
        first = A.restrict(mask)
        B = GraphMatrix(A.pattern, rng.normal(size=A.data.size))  # new values on the same pattern
        hit = B.restrict(mask.copy())
        assert hit.pattern is first.pattern
        assert_same(hit, fresh_masking(B, mask))

    def test_caller_mutating_its_mask_afterwards(self):
        m, A, rng = stiffness_2d()
        mask = rng.uniform(size=m.n_vertices) < 0.6
        A.restrict(mask)
        mask[np.flatnonzero(mask)[::4]] = False  # in place, after the call
        assert_same(A.restrict(mask), fresh_masking(A, mask))

    def test_alternating_masks(self):
        m, A, rng = stiffness_2d()
        a = rng.uniform(size=m.n_vertices) < 0.6
        b = rng.permutation(a)  # as many nodes as a
        for mask in (a, b, a, a, b, b):
            assert_same(A.restrict(mask), fresh_masking(A, mask))

    def test_two_meshes_in_two_threads(self):
        # same node count, different patterns, the same masks in lockstep
        meshes = [build_structured_mesh(kind, ((0, 1), (0, 1)), (8, 8)) for kind in ("triangle", "quad")]
        rng = np.random.default_rng(6)
        masks = [rng.uniform(size=81) < p for p in (0.5, 0.5, 0.7, 0.7, 0.9)]
        barrier = threading.Barrier(2, timeout=60)

        def run(mesh):
            A = stiffness_vertex_quadrature(VertexGraph(mesh), np.zeros(81), 2.0, all_active(mesh))
            full, same = A.tocsr().toarray(), []
            try:
                for mask in masks:
                    barrier.wait()
                    same.append(np.array_equal(A.restrict(mask).tocsr().toarray(), full[mask][:, mask]))
            except BaseException:
                barrier.abort()  # release the other thread's wait
                raise
            return same

        with ThreadPoolExecutor(2) as pool:
            assert [all(same) for same in pool.map(run, meshes)] == [True, True]

    def test_builds_only_when_the_mask_changes(self, monkeypatch):
        masks, builds = [], []
        restricted, sub_pattern = Pattern.restricted, Pattern._sub_pattern
        monkeypatch.setattr(Pattern, "restricted", lambda self, mask: masks.append(mask.copy()) or restricted(self, mask))
        monkeypatch.setattr(Pattern, "_sub_pattern", lambda self, mask: builds.append(1) or sub_pattern(self, mask))
        mesh = build_structured_mesh("acute_triangle", ((-2, 2), (-2, 2)), (16, 16))
        st = init_log_state(mesh, get_problem("horseshoe", 3.0).rho0, 3.0)
        for _ in range(10):
            st = step_logdensity(st, 1e-3, "vertex")
        changes = 1 + sum(not np.array_equal(a, b) for a, b in zip(masks, masks[1:]))
        assert len(builds) == changes < len(masks)
