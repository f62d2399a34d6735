"""Lumped mass, harmonic averages, the two stiffness variants, SPD solves."""

import itertools
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import quad
from scipy.sparse.linalg import splu

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
from pmefem.harness import SCHEMES, ConfigError, RunConfig, run_simulation, validate_config
from pmefem.logdensity import VARIANTS, init_log_state, step_logdensity
from pmefem.mesh import STRUCTURED_KINDS, build_structured_mesh, compute_edge_geometry, make_mesh
from pmefem.mixed import init_mixed_state, step_mixed
from pmefem.problems import PROBLEM_NAMES, get_problem


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

    @pytest.mark.parametrize("m", [1.0001, 2.0, 4.0])
    def test_equals_the_removed_midpoint_branch(self, m):
        # the midpoint branch once taken for |u_i - u_j| <= 1e-10: z / sinh(z)
        # rounds to exactly 1 there, so the one formula gives its numbers bitwise
        def branched(ui, uj):
            mid = np.exp(0.5 * m * (ui + uj)) * m
            small = np.abs(uj - ui) <= 1e-10
            zsafe = np.where(small, 1.0, 0.5 * m * (uj - ui))
            return mid * np.where(small, 1.0, zsafe / np.sinh(zsafe))

        du = np.array([0.0, 5e-324, 1e-300, 1e-13, 5e-11, 1e-10])
        for base in (0.0, -0.7, 2.3, -41.0):
            ui = np.full(2 * du.size, base)
            uj = base + np.concatenate([du, -du])
            assert np.array_equal(harmonic_edge_average(ui, uj, m), branched(ui, uj))
            assert np.array_equal(harmonic_edge_average(uj, ui, m), branched(uj, ui))

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
    raise AssertionError("the solve fell back to sparse LU")


def stiffness_2d(seed=5, counts=(8, 8)):
    rng = np.random.default_rng(seed)
    m = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), counts)
    return m, stiffness_vertex_quadrature(VertexGraph(m), rng.normal(size=m.n_vertices), 2.0,
                                          all_active(m)), rng


def reference_pcg(K, d, b, tol, x0=None):
    """Jacobi-PCG to the strict tolerance tol, the solver's stopping rule
    without forcing, kept as the reference: from x0 with the residual
    b - K x0, or without a start point from 0 with the residual b itself."""
    inv = 1.0 / d
    x, r = (np.zeros_like(b), b.copy()) if x0 is None else (x0.copy(), b - K @ x0)
    z = inv * r
    p = z.copy()
    rz = r @ z
    for _ in range(assembly.PCG_MAXITER):
        if r @ r <= 0.25 * tol * tol:
            assert np.linalg.norm(b - K @ x) <= tol
            return x
        q = K @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        z = inv * r
        rz_old, rz = rz, r @ z
        p = z + (rz / rz_old) * p
    pytest.fail("reference PCG did not converge")


def counted_pcg(monkeypatch):
    """Count the matrix-vector products of every PCG solve."""
    products = []

    class Counted(GraphMatrix):
        def matvec(self, x, out):  # every product, ``@`` included
            products.append(1)
            return super().matvec(x, out)

    pcg = assembly._jacobi_pcg
    monkeypatch.setattr(assembly, "_jacobi_pcg", lambda K, *args: pcg(Counted(K.pattern, K.data), *args))
    return products


class TestSpdSolve:
    def test_identity_shift(self):
        A = graph_matrix(3, [], [], np.zeros(3))
        rhs = np.array([1.0, -2.0, 0.5])
        assert spd_solve(A, np.ones(3), rhs, np.zeros(3)) == pytest.approx(rhs)

    def test_hand_2x2(self):
        A = graph_matrix(2, [(0, 1)], [-1.0], [2.0, 2.0])
        x = spd_solve(A, np.zeros(2), np.array([1.0, 0.0]), np.zeros(2))
        assert x == pytest.approx([2 / 3, 1 / 3])

    def test_zero_matrix_fails(self):
        A = graph_matrix(2, [], [], np.zeros(2))
        with pytest.raises(SolverError):
            spd_solve(A, np.zeros(2), np.array([1.0, 1.0]), np.zeros(2))

    def test_negative_shift_rejected(self):
        A = graph_matrix(1, [], [], [1.0])
        with pytest.raises(ValueError):
            spd_solve(A, np.array([-1.0]), np.array([1.0]), np.zeros(1))

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        n = 40
        m = build_structured_mesh("interval", (0, 1), n)
        A = stiffness_vertex_quadrature(VertexGraph(m), rng.normal(size=n + 1), 2.0, all_active(m))
        shift = rng.uniform(0.5, 2.0, size=n + 1)
        rhs = rng.normal(size=n + 1)
        x = spd_solve(A, shift, rhs, np.zeros(n + 1))
        res = A @ x + shift * x - rhs
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)

    def test_pcg_path_contract(self, monkeypatch):
        m, A, rng = stiffness_2d()
        active = rng.uniform(size=m.n_vertices) < 0.8
        K = GraphMatrix(A.pattern, 1e-2 * A.data).restrict(active)
        shift = rng.uniform(0.5, 2.0, size=K.n) / m.n_vertices
        rhs = rng.normal(size=K.n)
        monkeypatch.setattr(assembly, "splu", no_lu)
        x = spd_solve(K, shift, rhs, np.zeros(K.n))
        res = K @ x + shift * x - rhs
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)

    def test_start_point_keeps_contract(self, monkeypatch):
        m, A, rng = stiffness_2d()
        K = GraphMatrix(A.pattern, 1e-2 * A.data)
        shift = rng.uniform(0.5, 2.0, size=K.n) / m.n_vertices
        rhs = rng.normal(size=K.n)
        monkeypatch.setattr(assembly, "splu", no_lu)
        exact = np.linalg.solve(K.tocsr().toarray() + np.diag(shift), rhs)
        for x0 in (rng.normal(size=K.n), exact):
            x = spd_solve(K, shift, rhs, x0)
            assert np.linalg.norm(K @ x + shift * x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_zero_start_point_is_the_cold_start(self, monkeypatch):
        # x0 = 0 starts from the residual rhs itself, signed zeros included
        m, A, rng = stiffness_2d()
        shift = np.full(m.n_vertices, 1e-3)
        rhs = rng.normal(size=m.n_vertices)
        rhs[:3] = [0.0, -0.0, 0.0]
        monkeypatch.setattr(assembly, "splu", no_lu)
        K = A.shifted(shift)
        cold = reference_pcg(K.tocsr(), K.diagonal(), rhs, 1e-12 * np.linalg.norm(rhs))
        assert np.array_equal(spd_solve(A, shift, rhs, np.zeros(m.n_vertices)), cold)

    def test_path_graph_solves_directly(self, monkeypatch):
        m = build_structured_mesh("interval", (0, 1), 30)
        A = stiffness_vertex_quadrature(VertexGraph(m), np.zeros(31), 2.0, all_active(m))
        monkeypatch.setattr(assembly, "_jacobi_pcg", lambda *args: pytest.fail("PCG on a path graph"))
        rhs = np.linspace(-1.0, 1.0, 31)
        x = spd_solve(A, np.full(31, 0.1), rhs, np.zeros(31))
        assert np.linalg.norm(A @ x + 0.1 * x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        # the tridiagonal path ignores a start point
        for x0 in (np.random.default_rng(3).normal(size=31), x):
            assert np.array_equal(spd_solve(A, np.full(31, 0.1), rhs, x0), x)

    def test_default_is_the_strict_rule(self, monkeypatch):
        m, A, rng = stiffness_2d()
        shift = rng.uniform(0.5, 2.0, size=m.n_vertices) / m.n_vertices
        rhs, x0 = rng.normal(size=m.n_vertices), rng.normal(size=m.n_vertices)
        monkeypatch.setattr(assembly, "splu", no_lu)
        K = A.shifted(shift)
        ref = reference_pcg(K.tocsr(), K.diagonal(), rhs, 1e-12 * np.linalg.norm(rhs), x0)
        assert np.array_equal(spd_solve(A, shift, rhs, x0), ref)
        assert np.array_equal(spd_solve(A, shift, rhs, x0, forcing=None), ref)

    @pytest.mark.parametrize("offset", [1e-1, 1e-4, 1e-7])
    def test_forcing_bound_with_fewer_products(self, monkeypatch, offset):
        # a Newton tolerance 1e-12 ||rhs||, whose floor lies below the strict
        # bound, read as NEWTON_RTOL * S: eta = min(FORCING_CAP,
        # FORCING_SCALE ||r0|| / S), at the cap for the two larger offsets
        m, A, rng = stiffness_2d()
        shift = rng.uniform(0.5, 2.0, size=m.n_vertices) / m.n_vertices
        rhs = rng.normal(size=m.n_vertices)
        monkeypatch.setattr(assembly, "splu", no_lu)
        K = A.shifted(shift).tocsr()
        x0 = np.linalg.solve(K.toarray(), rhs) + offset * rng.normal(size=m.n_vertices)
        r0, tol = np.linalg.norm(rhs - K @ x0), 1e-12 * np.linalg.norm(rhs)
        eta = assembly.FORCING_SCALE * r0 / (tol / assembly.NEWTON_RTOL)
        assert (eta > assembly.FORCING_CAP) == (offset > 1e-5)
        bound = max(tol, min(assembly.FORCING_CAP, eta) * r0)
        assert bound > tol
        products = counted_pcg(monkeypatch)
        strict = spd_solve(A, shift, rhs, x0)
        strict_products = len(products)
        products.clear()
        x = spd_solve(A, shift, rhs, x0, forcing=tol)
        assert np.linalg.norm(rhs - K @ x) <= bound
        assert len(products) < strict_products
        assert not np.array_equal(x, strict)

    @pytest.mark.parametrize("ratio", [1.0, 3.0, 10.0])
    def test_floor_at_the_newton_tolerance(self, monkeypatch, ratio):
        # ||r0|| = ratio * tol: the floor FORCING_FLOOR * tol binds, so PCG
        # stops sooner than at the forcing term alone
        m, A, rng = stiffness_2d()
        shift = rng.uniform(0.5, 2.0, size=m.n_vertices) / m.n_vertices
        rhs = rng.normal(size=m.n_vertices)
        monkeypatch.setattr(assembly, "splu", no_lu)
        K = A.shifted(shift).tocsr()
        x0 = np.linalg.solve(K.toarray(), rhs) + 1e-6 * rng.normal(size=m.n_vertices)
        r0 = np.linalg.norm(rhs - K @ x0)
        tol = r0 / ratio
        eta = min(assembly.FORCING_CAP, assembly.FORCING_SCALE * r0 / (tol / assembly.NEWTON_RTOL))
        forced = max(1e-12 * np.linalg.norm(rhs), eta * r0)
        assert assembly.FORCING_FLOOR * tol > forced
        products = counted_pcg(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(assembly, "FORCING_FLOOR", 0.0)  # the forcing term alone
            spd_solve(A, shift, rhs, x0, forcing=tol)
        unfloored = len(products)
        products.clear()
        x = spd_solve(A, shift, rhs, x0, forcing=tol)
        assert np.linalg.norm(rhs - K @ x) <= max(forced, assembly.FORCING_FLOOR * tol)
        assert len(products) < unfloored

    @pytest.mark.parametrize("mesh", [("interval", (0, 1), 4), ("acute_triangle", ((0, 1), (0, 1)), (4, 4))],
                             ids=["dptsv", "pcg"])
    @pytest.mark.parametrize("forcing", [0.0, -1e-10, np.nan, np.inf])
    def test_bad_forcing_rejected(self, mesh, forcing):
        # the forcing term divides by the Newton tolerance
        m = build_structured_mesh(*mesh)
        A = stiffness_vertex_quadrature(VertexGraph(m), np.zeros(m.n_vertices), 2.0, all_active(m))
        n = m.n_vertices
        with pytest.raises(ValueError, match="forcing"):
            spd_solve(A, np.ones(n), np.ones(n), np.zeros(n), forcing=forcing)

    def test_zero_start_takes_no_product(self, monkeypatch):
        m, A, rng = stiffness_2d()
        shift = np.full(m.n_vertices, 1e-3)
        rhs = rng.normal(size=m.n_vertices)
        products = counted_pcg(monkeypatch)
        spd_solve(A, shift, rhs, np.zeros(m.n_vertices))
        cold = len(products)
        products.clear()
        spd_solve(A, shift, rhs, np.full(m.n_vertices, 1e-300))  # a nonzero start forms b - K x0
        assert len(products) == cold + 1

    def test_forcing_leaves_path_graphs_alone(self):
        m = build_structured_mesh("interval", (0, 1), 30)
        A = stiffness_vertex_quadrature(VertexGraph(m), np.zeros(31), 2.0, all_active(m))
        rng = np.random.default_rng(4)
        rhs, x0 = rng.normal(size=31), rng.normal(size=31)
        assert np.array_equal(spd_solve(A, np.full(31, 0.1), rhs, x0, forcing=1e-11),
                              spd_solve(A, np.full(31, 0.1), rhs, x0))

    def test_each_pcg_solve_is_logged(self, caplog, monkeypatch):
        m, A, rng = stiffness_2d()
        shift = np.full(m.n_vertices, 1e-3)
        rhs = rng.normal(size=m.n_vertices)
        monkeypatch.setattr(assembly, "splu", no_lu)
        x0 = spd_solve(A, shift, rhs, np.zeros(m.n_vertices)) + 1e-2
        with caplog.at_level(logging.DEBUG, logger="pmefem.assembly"):
            spd_solve(A, shift, rhs, x0)
            spd_solve(A, shift, rhs, x0, forcing=1e-12 * np.linalg.norm(rhs))
        ((n, strict, kind, tol, res, test), (_, forced, forced_kind, forced_tol, forced_res, forced_test)) = (
            r.args for r in caplog.records)
        assert n == m.n_vertices
        assert (kind, forced_kind) == ("strict", "forced")
        assert tol == 1e-12 * np.linalg.norm(rhs) < forced_tol
        assert 0 < forced < strict
        assert res <= tol and forced_res <= forced_tol
        assert test == forced_test == "accepted by the tolerance"

    def test_log_names_the_accepting_test(self, caplog):
        # the CI smoke config at dt = 1e5: 4 of its 16 PCG solves miss their
        # tolerance and pass on the backward-error bound, and their DEBUG
        # lines say so with the true residual
        cfg = validate_config(RunConfig(scheme="logdensity", problem="horseshoe", m=3.0, dt=1e5, T=3e5,
                                        mesh_kind="acute_triangle", counts=(8, 8), variant="vertex"))
        with caplog.at_level(logging.DEBUG, logger="pmefem.assembly"):
            run_simulation(cfg)
        solves = [r.args[3:] for r in caplog.records if r.name == "pmefem.assembly"]
        assert len(solves) == 16
        bound = [(tol, res) for tol, res, test in solves if test == "accepted by the backward-error bound"]
        assert len(bound) == 4
        assert all(res > tol for tol, res in bound)
        assert all(res <= tol for tol, res, test in solves if test == "accepted by the tolerance")
        assert sum(test == "accepted by the tolerance" for *_, test in solves) == 12

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
            A = GraphMatrix(A.pattern, -A.data)  # negative definite plus a small shift: PCG breaks down
        calls = []
        real_splu = assembly.splu
        monkeypatch.setattr(assembly, "splu", lambda K: calls.append(K) or real_splu(K))
        rhs = rng.normal(size=m.n_vertices)
        x = spd_solve(A, shift, rhs, np.zeros(m.n_vertices))
        assert len(calls) == 1
        assert np.linalg.norm(A @ x + shift * x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def path_stiffness(n, seed=5):
    """Vertex-quadrature stiffness of an n-cell interval mesh numbered left
    to right, with a random coefficient."""
    m = build_structured_mesh("interval", (0, 1), n)
    rng = np.random.default_rng(seed)
    return m, stiffness_vertex_quadrature(VertexGraph(m), rng.normal(size=n + 1), 2.0, all_active(m)), rng


def counted_lu(monkeypatch):
    """Record every sparse LU factorization spd_solve makes."""
    calls = []
    monkeypatch.setattr(assembly, "splu", lambda K: calls.append(K) or splu(K))
    return calls


class TestTridiagonalSolve:
    """1D systems are solved by LAPACK dptsv on the two bands of the graph
    data; LU is the fallback for other patterns and failed factorizations."""

    @pytest.mark.parametrize("scheme, dt", [("logdensity", 0.2), ("mixed", 0.1)])
    def test_barenblatt_without_lu(self, monkeypatch, scheme, dt):
        monkeypatch.setattr(assembly, "splu", no_lu)
        m = build_structured_mesh("interval", (-10, 10), 100)
        rho0 = get_problem("barenblatt1d", 2.0).rho0
        if scheme == "logdensity":
            st = step_logdensity(init_log_state(m, rho0, 2.0), dt, "vertex")
        else:
            st = step_mixed(init_mixed_state(m, rho0, 2.0, compute_edge_geometry(m)), dt)
        assert st.time == dt
        _, records = run_simulation(RunConfig(scheme=scheme, problem="barenblatt1d", m=2.0, dt=dt, T=1.0))
        assert len(records) == round(1.0 / dt)

    def test_restricted_path_with_gaps(self, monkeypatch):
        m, A, rng = path_stiffness(60)
        mask = np.ones(m.n_vertices, bool)
        mask[[0, 7, 8, 30, 45, 60]] = False
        K = A.restrict(mask)
        rows, _ = K.pattern.superdiagonal
        assert len(rows) == K.n - 4  # three interior gaps and the end vertex
        shift = rng.uniform(0.5, 2.0, size=K.n) / m.n_cells
        rhs = rng.normal(size=K.n)
        monkeypatch.setattr(assembly, "splu", no_lu)
        x = spd_solve(K, shift, rhs, np.zeros(K.n))
        assert np.linalg.norm(K @ x + shift * x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_permuted_path_goes_to_pcg(self, monkeypatch):
        # an interval mesh read from a file may number its vertices in any order
        n = 40
        perm = np.random.default_rng(7).permutation(n)
        A = graph_matrix(n, np.column_stack([perm[:-1], perm[1:]]), -np.ones(n - 1), np.zeros(n))
        A.data[A.pattern.diag] = -np.bincount(A.pattern.rows, A.data, n)
        assert A.pattern.superdiagonal is None
        monkeypatch.setattr(assembly, "splu", no_lu)
        rhs = np.linspace(-1.0, 2.0, n)
        x = spd_solve(A, np.full(n, 0.1), rhs, np.zeros(n))
        assert np.linalg.norm(A @ x + 0.1 * x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_one_node_and_narrow_2d_patterns_go_to_pcg(self, monkeypatch):
        # neither has a band: one node, and the two side columns of a 2D mesh,
        # whose rows hold at most 3 entries but whose numbering interleaves them
        monkeypatch.setattr(assembly, "splu", no_lu)
        one = graph_matrix(1, [], [], [2.0])
        assert one.pattern.superdiagonal is None
        assert spd_solve(one, np.array([0.5]), np.array([3.0]), np.zeros(1)) == pytest.approx([1.2], rel=1e-15)
        m, A, rng = stiffness_2d()
        K = A.restrict(np.isin(m.vertices[:, 0], (0.0, 1.0)))
        assert K.pattern.superdiagonal is None and np.diff(K.pattern.indptr).max() == 3
        shift, rhs = np.full(K.n, 0.1), rng.normal(size=K.n)
        x = spd_solve(K, shift, rhs, np.zeros(K.n))
        assert np.linalg.norm(K @ x + shift * x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_no_cli_config_reaches_lu(self, monkeypatch):
        # every scheme x problem x mesh kind x variant the config check accepts,
        # 3 steps on a small mesh: sparse LU is only the fallback.  At large dt
        # PCG meets the direct solves' backward-error bound, not 1e-12 ||rhs||
        # (5 and 21 LU solves at dt = 1e3 and 1e5 without it)
        monkeypatch.setattr(assembly, "splu", no_lu)
        runs = 0
        for dt, scheme, problem, kind, variant in itertools.product(
                (1e-2, 1e3, 1e5), SCHEMES, PROBLEM_NAMES, STRUCTURED_KINDS, VARIANTS):
            counts = (20,) if kind == "interval" else (6, 6)
            try:
                cfg = validate_config(RunConfig(scheme=scheme, problem=problem, m=2.0, dt=dt, T=3 * dt,
                                                mesh_kind=kind, counts=counts, variant=variant))
            except ConfigError:
                continue
            _, records = run_simulation(cfg)
            assert len(records) == 3
            runs += 1
        assert runs >= 3 * 20

    def test_indefinite_system_falls_back_to_lu_once(self, monkeypatch, caplog):
        m, A, rng = path_stiffness(30)
        A = GraphMatrix(A.pattern, -A.data)  # negative semidefinite plus a small shift
        calls = counted_lu(monkeypatch)
        rhs = rng.normal(size=m.n_vertices)
        with caplog.at_level(logging.DEBUG, logger="pmefem.assembly"):
            x = spd_solve(A, np.full(m.n_vertices, 1e-3), rhs, np.zeros(m.n_vertices))
        assert len(calls) == 1
        K = A.shifted(1e-3).tocsr()  # nearly singular: the constant mode has eigenvalue 1e-3
        bound = 1e-12 * (np.linalg.norm(rhs) + np.abs(K).sum(axis=1).max() * np.linalg.norm(x))
        assert np.linalg.norm(K @ x - rhs) <= bound
        ((n, info),) = (r.args for r in caplog.records)
        assert n == m.n_vertices and info == 1  # the first pivot is already negative

    def test_singular_path_raises(self):
        # the path Laplacian with unit weights: every pivot is exact, the last one 0
        A = graph_matrix(5, [(i, i + 1) for i in range(4)], -np.ones(4), [1.0, 2.0, 2.0, 2.0, 1.0])
        with pytest.raises(SolverError, match="singular"):
            spd_solve(A, np.zeros(5), np.linspace(1.0, 2.0, 5), np.zeros(5))

    def test_large_dt_accepted_by_the_backward_error_bound(self, monkeypatch):
        m, A, rng = path_stiffness(100, seed=0)
        A = GraphMatrix(A.pattern, 0.1 * A.data)
        shift, rhs = lumped_mass(m), np.ones(m.n_vertices)
        monkeypatch.setattr(assembly, "splu", no_lu)
        x = spd_solve(A, shift, rhs, np.zeros(m.n_vertices))
        K = A.shifted(shift).tocsr()
        res, norm_b = np.linalg.norm(K @ x - rhs), np.linalg.norm(rhs)
        K_x = np.abs(K).sum(axis=1).max() * np.linalg.norm(x)
        assert K_x > 1e5 * norm_b
        assert 1e-12 * norm_b < res <= 1e-12 * (norm_b + K_x)
        lu = splu(K.T)
        ref = lu.solve(rhs)
        ref -= lu.solve(K @ ref - rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_large_dt_pcg_accepted_by_the_backward_error_bound(self, monkeypatch, caplog):
        # as the direct solves: 1e-12 ||rhs|| is out of reach, and LU's own
        # refined solution misses it too
        m, A, _ = stiffness_2d()
        A = GraphMatrix(A.pattern, 1e5 * A.data)
        shift, rhs = lumped_mass(m), np.ones(m.n_vertices)
        monkeypatch.setattr(assembly, "splu", no_lu)
        with caplog.at_level(logging.DEBUG, logger="pmefem.assembly"):
            x = spd_solve(A, shift, rhs, np.zeros(m.n_vertices))
        assert caplog.records[-1].args[-1] == "accepted by the backward-error bound"
        K = A.shifted(shift).tocsr()
        res, norm_b = np.linalg.norm(K @ x - rhs), np.linalg.norm(rhs)
        assert 1e-12 * norm_b < res <= 1e-12 * (norm_b + np.abs(K).sum(axis=1).max() * np.linalg.norm(x))
        lu = splu(K.T)
        ref = lu.solve(rhs)
        ref -= lu.solve(K @ ref - rhs)
        assert np.linalg.norm(K @ ref - rhs) > 1e-12 * norm_b
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_bands_computed_once_per_sub_pattern(self, monkeypatch):
        computed, builds, solves = [], [], []
        bands, sub_pattern, solve = Pattern.superdiagonal.func, Pattern._sub_pattern, assembly.dptsv
        band = cached_property(lambda self: computed.append(self) or bands(self))
        band.__set_name__(Pattern, "superdiagonal")
        monkeypatch.setattr(Pattern, "superdiagonal", band)
        monkeypatch.setattr(Pattern, "_sub_pattern", lambda self, mask: builds.append(1) or sub_pattern(self, mask))
        monkeypatch.setattr(assembly, "dptsv", lambda *args: solves.append(1) or solve(*args))
        monkeypatch.setattr(assembly, "splu", no_lu)
        m = build_structured_mesh("interval", (-10, 10), 100)
        st = init_log_state(m, get_problem("barenblatt1d", 2.0).rho0, 2.0)
        for _ in range(5):
            st = step_logdensity(st, 0.2, "vertex")
        assert len(computed) == len(set(map(id, computed))) == len(builds) < len(solves)


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

    def test_norm_inf_is_the_largest_absolute_row_sum(self):
        mesh, path, rng = path_stiffness(60)
        mask = np.ones(mesh.n_vertices, bool)
        mask[[0, 7, 8, 30, 45, 60]] = False
        _, plane, _ = stiffness_2d()
        for K in (path.shifted(rng.uniform(size=path.n)), plane, path.restrict(mask)):
            assert K.norm_inf() == np.abs(K.tocsr()).sum(axis=1).max()

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


SUB_PATTERN_MESH = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (6, 6))


class TestCsrSkeleton:
    """Products run scipy's CSR kernel on the pattern's own arrays, with no
    scipy matrix; ``tocsr`` stays an independent matrix."""

    def test_no_csr_matrix_on_mixed_horseshoe(self, monkeypatch):
        # the benchmark's mixed-horseshoe run builds sub-patterns but no CSR matrix
        builds, csrs = [], []
        sub_pattern, init = Pattern._sub_pattern, sparse.csr_matrix.__init__
        monkeypatch.setattr(Pattern, "_sub_pattern", lambda self, mask: builds.append(1) or sub_pattern(self, mask))
        monkeypatch.setattr(sparse.csr_matrix, "__init__", lambda self, *a, **kw: csrs.append(1) or init(self, *a, **kw))
        run_simulation(RunConfig(scheme="mixed", problem="horseshoe", m=3.0, dt=1e-3, T=0.1, counts=(40, 40)))
        assert len(builds) > 0
        assert len(csrs) == 0

    def test_product_into_the_given_buffer(self):
        m, A, rng = stiffness_2d()
        x, out = rng.normal(size=A.n), np.full(A.n, np.nan)  # the product overwrites what the buffer held
        assert A.matvec(x, out) is out
        assert out.tobytes() == (A.tocsr() @ x).tobytes()

    @pytest.mark.parametrize("dx, dout", [(-1, 0), (1, 0), (0, -1), (0, 1)])
    def test_product_of_another_size_rejected(self, dx, dout):
        # the kernel reads and writes by the pattern alone
        m, A, rng = stiffness_2d()
        with pytest.raises(ValueError, match="vectors"):
            A.matvec(np.ones(A.n + dx), np.empty(A.n + dout))
        with pytest.raises(ValueError, match="vectors"):
            A @ np.ones((A.n, 2))
        with pytest.raises(ValueError, match="values"):
            GraphMatrix(A.pattern, A.data[:-1])

    def test_interleaved_products_on_one_pattern(self):
        m, A, rng = stiffness_2d()
        B = GraphMatrix(A.pattern, rng.normal(size=A.data.size))
        x = rng.normal(size=A.n)
        for M in (A, B, A, A, B):
            assert (M @ x).tobytes() == (M.tocsr() @ x).tobytes()
        assert A.tocsr() is not A.tocsr()  # a matrix of its own for each caller

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mask=st.lists(st.booleans(), min_size=SUB_PATTERN_MESH.n_vertices, max_size=SUB_PATTERN_MESH.n_vertices))
    @example(mask=[True] + [False] * (SUB_PATTERN_MESH.n_vertices - 1))  # one isolated node
    @example(mask=[i < 10 or i % 5 == 0 for i in range(SUB_PATTERN_MESH.n_vertices)])  # 7 isolated of 19
    def test_sub_pattern_matches_scipy_masking(self, mask):
        mask = np.array(mask)
        assume(mask.any())
        graph = VertexGraph(SUB_PATTERN_MESH)
        A = GraphMatrix(graph, np.arange(1.0, graph.nnz + 1.0))  # no stored zero: scipy keeps every entry
        keep, sub = graph._sub_pattern(mask)
        ref = A.tocsr()[mask][:, mask]
        ref.sort_indices()
        ref_rows = np.repeat(np.arange(ref.shape[0]), np.diff(ref.indptr))
        assert np.array_equal(sub.indptr, ref.indptr)
        assert np.array_equal(sub.indices, ref.indices)
        assert np.array_equal(sub.diag, np.flatnonzero(ref.indices == ref_rows))
        assert np.array_equal(A.data[keep], ref.data)
        S, x = GraphMatrix(sub, A.data[keep]), np.sin(np.arange(sub.n) + 1.0)
        assert (S @ x).tobytes() == (S.tocsr() @ x).tobytes() == (ref @ x).tobytes()
