"""Lumped mass, harmonic averages, the two stiffness variants, SPD solves."""

import numpy as np
import pytest
from scipy.integrate import quad

from pmefem import assembly
from pmefem.assembly import (
    GraphMatrix,
    GraphOperator,
    SolverError,
    VertexGraph,
    harmonic_edge_average,
    lumped_mass,
    spd_solve,
    stiffness_edge_based,
    stiffness_vertex_quadrature,
    velocity_lumped_weights,
)
from pmefem.mesh import build_structured_mesh, compute_edge_geometry, make_mesh
from pmefem.mixed import init_mixed_state


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
        geom = compute_edge_geometry(m)
        u0 = np.zeros(m.n_vertices)
        oracle = p1_stiffness_oracle(m, coeff=2.0)  # gamma = m*exp(0) = 2
        edge = stiffness_edge_based(m, geom, u0, 2.0).tocsr().toarray()
        vertex = stiffness_vertex_quadrature(m, u0, 2.0).tocsr().toarray()
        assert np.max(np.abs(edge - oracle)) < 1e-12
        assert np.max(np.abs(vertex - oracle)) < 1e-12

    def test_constant_coefficient_quads(self):
        m = MESHES["quad"]()
        oracle = p1_stiffness_oracle(m, coeff=3.0)
        vertex = stiffness_vertex_quadrature(m, np.zeros(m.n_vertices), 3.0).tocsr().toarray()
        assert np.max(np.abs(vertex - oracle)) < 1e-12

    def test_edge_rejects_quads(self):
        m = MESHES["quad"]()
        geom = compute_edge_geometry(m)
        with pytest.raises(ValueError):
            stiffness_edge_based(m, geom, np.zeros(m.n_vertices), 2.0)

    def test_1d_single_element_values(self):
        m = build_structured_mesh("interval", (0, 1), 1)
        geom = compute_edge_geometry(m)
        u = np.array([0.0, np.log(2)])
        edge = stiffness_edge_based(m, geom, u, 2.0).tocsr().toarray()
        assert edge[0, 1] == pytest.approx(-3.6967849, rel=1e-6)
        vertex = stiffness_vertex_quadrature(m, u, 2.0).tocsr().toarray()
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
            A = stiffness_edge_based(m, compute_edge_geometry(m), u, 2.0)
        else:
            A = stiffness_vertex_quadrature(m, u, 2.0)
        assert np.max(np.abs(A.tocsr().sum(axis=1).A1)) < 1e-12

    @pytest.mark.parametrize("name", ["interval", "triangle", "acute", "quad"])
    def test_positive_semidefinite(self, name):
        m = MESHES[name]()
        rng = np.random.default_rng(3)
        u = rng.normal(scale=0.5, size=m.n_vertices)
        mats = [stiffness_vertex_quadrature(m, u, 2.0)]
        if m.cell_kind != "quad":
            mats.append(stiffness_edge_based(m, compute_edge_geometry(m), u, 2.0))
        for A in mats:
            for _ in range(10):
                x = rng.normal(size=m.n_vertices)
                assert A.quad_form(x) >= -1e-12 * (x @ x)

    @pytest.mark.parametrize("variant", ["edge", "vertex"])
    def test_shift_scales_exponentially(self, variant):
        m = MESHES["triangle"]()
        geom = compute_edge_geometry(m)
        rng = np.random.default_rng(11)
        u = rng.normal(scale=0.3, size=m.n_vertices)
        c, mexp = 0.7, 2.0
        if variant == "edge":
            A0 = stiffness_edge_based(m, geom, u, mexp).tocsr().toarray()
            A1 = stiffness_edge_based(m, geom, u + c, mexp).tocsr().toarray()
        else:
            A0 = stiffness_vertex_quadrature(m, u, mexp).tocsr().toarray()
            A1 = stiffness_vertex_quadrature(m, u + c, mexp).tocsr().toarray()
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
        expected = graph.laplacian(-np.bincount(graph.cell_edge, off.ravel(), graph.n_edges)).data
        calls = []
        real = assembly.element_stiffness
        monkeypatch.setattr(assembly, "element_stiffness", lambda mesh: calls.append(1) or real(mesh))
        for _ in range(3):
            A = stiffness_vertex_quadrature(m, u, 2.0, active, graph)
            assert np.array_equal(A.data, expected)  # bitwise: same products, same order
        assert len(calls) == 1

    def test_inactive_endpoints_drop_edges(self):
        m = build_structured_mesh("interval", (0, 1), 3)
        geom = compute_edge_geometry(m)
        u = np.zeros(4)
        active = np.array([True, True, False, True])
        A = stiffness_edge_based(m, geom, u, 2.0, active).tocsr().toarray()
        assert A[2, :] == pytest.approx(0.0)
        assert A[0, 1] != 0.0


class TestVelocityWeights:
    def test_uniform_quad_interior(self):
        h = 0.25
        m = build_structured_mesh("quad", ((0, 1), (0, 1)), (4, 4))
        g = compute_edge_geometry(m)
        w = velocity_lumped_weights(m, g)
        assert w[m.interior_faces] == pytest.approx(h * h)

    def test_two_equilateral_triangles(self):
        s3 = np.sqrt(3) / 2
        verts = [(0.0, 0.0), (1.0, 0.0), (0.5, s3), (0.5, -s3)]
        m = make_mesh(verts, [(0, 1, 2), (0, 3, 1)], "triangle")
        g = compute_edge_geometry(m)
        w = velocity_lumped_weights(m, g)
        shared = int(np.flatnonzero(m.interior_faces)[0])
        assert w[shared] == pytest.approx(1 / np.sqrt(3))  # unit edge: cot factor

    def test_right_angle_contributes_zero(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        m = make_mesh(verts, [(0, 1, 2)], "triangle")
        g = compute_edge_geometry(m)
        w = velocity_lumped_weights(m, g)
        hyp = [i for i, f in enumerate(m.faces) if set(f) == {1, 2}][0]
        assert w[hyp] == pytest.approx(0.0, abs=1e-14)

    def test_strict_delaunay_weights_positive(self):
        m = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (6, 6))
        g = compute_edge_geometry(m)
        w = velocity_lumped_weights(m, g)
        assert np.all(w[m.interior_faces] > 0)


def graph_matrix(n, pairs, off, diag):
    """Symmetric matrix with off-diagonal entries `off` on `pairs` (summed
    per pair) and the given diagonal."""
    op = GraphOperator(n, face_pairs=pairs)
    data = np.zeros(op.nnz)
    data[op.upper] = data[op.lower] = np.bincount(op.face_edge, off, op.n_edges)
    data[op.diag] = diag
    return GraphMatrix(op.indptr, op.indices, op.rows, op.diag, data)


def stiffness_2d(seed=5, counts=(8, 8)):
    rng = np.random.default_rng(seed)
    m = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), counts)
    return m, stiffness_vertex_quadrature(m, rng.normal(size=m.n_vertices), 2.0), rng


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
        A = stiffness_vertex_quadrature(m, rng.normal(size=n + 1), 2.0)
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

        def no_lu(*args):
            raise AssertionError("2D system left the PCG path")

        monkeypatch.setattr(assembly, "splu", no_lu)
        x = spd_solve(K, shift, rhs)
        res = K @ x + shift * x - rhs
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)

    def test_path_graph_solves_directly(self, monkeypatch):
        m = build_structured_mesh("interval", (0, 1), 30)
        A = stiffness_vertex_quadrature(m, np.zeros(31), 2.0)
        monkeypatch.setattr(assembly, "_jacobi_pcg", lambda *args: pytest.fail("PCG on a path graph"))
        rhs = np.linspace(-1.0, 1.0, 31)
        x = spd_solve(A, np.full(31, 0.1), rhs)
        assert np.linalg.norm(A @ x + 0.1 * x - rhs) <= 1e-12 * np.linalg.norm(rhs)

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
        op = GraphOperator(3, cell_pairs=[(0, 1), (1, 0), (1, 2)])
        assert op.n_edges == 2
        A = op.laplacian(np.bincount(op.cell_edge, [0.1, 0.2, 0.3], op.n_edges)).tocsr().toarray()
        assert np.array_equal(A, A.T)
        assert A[0, 1] == pytest.approx(-0.3)  # (0,1) and (1,0) accumulate together
        m, K, rng = stiffness_2d()
        for B in (K, stiffness_edge_based(m, compute_edge_geometry(m), rng.normal(size=m.n_vertices), 3.0)):
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
        A = stiffness_edge_based(m, compute_edge_geometry(m), np.zeros(m.n_vertices), 2.0, active, graph)
        assert A.data.size == graph.nnz
        arr = A.tocsr().toarray()
        assert np.all(arr[~active][:, active] == 0.0)

    def test_cell_graph_face_positions(self):
        m = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (3, 3))
        op = init_mixed_state(m, lambda pts: np.ones(len(pts)), 2.0).graph
        pairs = m.face_cells[m.interior_faces]
        assert op.n_edges == len(pairs)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        upper, lower = op.upper[op.face_edge], op.lower[op.face_edge]
        assert np.array_equal(op.rows[upper], lo)
        assert np.array_equal(op.indices[upper], hi)
        assert np.array_equal(op.rows[lower], hi)
        assert np.array_equal(op.indices[lower], lo)
