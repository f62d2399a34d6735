"""Quadrature and matrix assembly shared by both schemes.

Provides the lumped P1 mass vector, the two nonlinear-coefficient stiffness
variants (edge-based with harmonic coefficient averages, and vertex
quadrature), the lumped face weights for the mixed velocity mass, and a
SPD solve on the shared graph operator.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .mesh import INTERVAL, QUAD, TRIANGLE, EdgeGeometry, Mesh


class SolverError(RuntimeError):
    """Linear or nonlinear solve failed."""


#: Newton residual tolerance of both schemes (inf-norm, in mass units)
NEWTON_TOL = 1e-11


class GraphOperator:
    """Fixed CSR pattern of a weighted graph Laplacian plus a diagonal, built
    once per mesh on vertices (log-density) or cells (mixed) and carried on
    the state.  It holds every diagonal entry and both directions of every
    edge, sorted.  ``cell_edge``/``face_edge`` map the given node pairs to
    edges, so a numeric refill is a ``np.bincount``."""

    def __init__(self, n, cell_pairs=(), face_pairs=()):
        cell_pairs = np.asarray(cell_pairs, dtype=np.intp).reshape(-1, 2)
        face_pairs = np.asarray(face_pairs, dtype=np.intp).reshape(-1, 2)
        pairs = np.concatenate([cell_pairs, face_pairs])
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        if np.any(lo == hi) or lo.min(initial=0) < 0 or hi.max(initial=-1) >= n:
            raise ValueError("graph pairs must join two distinct nodes in range")
        self.n = n = int(n)
        keys, pair_edge = np.unique(lo * n + hi, return_inverse=True)
        self.ei, self.ej = keys // n, keys % n
        self.n_edges = ne = len(keys)
        rows = np.concatenate([self.ei, self.ej, np.arange(n)])
        cols = np.concatenate([self.ej, self.ei, np.arange(n)])
        order = np.lexsort((cols, rows))
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        self.upper, self.lower, self.diag = pos[:ne], pos[ne:2 * ne], pos[2 * ne:]
        self.rows, self.indices, self.nnz = rows[order], cols[order], order.size
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1))
        self.cell_edge = pair_edge[:len(cell_pairs)]
        self.face_edge = pair_edge[len(cell_pairs):]

    def laplacian(self, weights) -> "GraphMatrix":
        """sum_e w_e (e_i - e_j)(e_i - e_j)^T for one weight per edge; the
        (i, j) and (j, i) entries are the same number, so symmetry is exact."""
        data = np.empty(self.nnz)
        data[self.upper] = data[self.lower] = -np.asarray(weights, dtype=float)
        data[self.diag] = np.bincount(self.ei, weights, self.n) + np.bincount(self.ej, weights, self.n)
        return GraphMatrix(self.indptr, self.indices, self.rows, self.diag, data)


class GraphMatrix:
    """Matrix on a fixed symmetric pattern: CSR arrays, the row of every
    entry and the position of every diagonal entry."""

    def __init__(self, indptr, indices, rows, diag, data):
        self.indptr, self.indices, self.rows, self.diag, self.data = indptr, indices, rows, diag, data
        self.n = len(indptr) - 1
        self._csr = None

    def with_data(self, data) -> "GraphMatrix":
        return GraphMatrix(self.indptr, self.indices, self.rows, self.diag, data)

    def tocsr(self):
        if self._csr is None:
            self._csr = sparse.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))
        return self._csr

    def diagonal(self):
        return self.data[self.diag]

    def __matmul__(self, x):
        return self.tocsr() @ x

    def quad_form(self, x):
        """x . A x"""
        return float(x @ (self @ x))

    def scaled(self, factor):
        return self.with_data(self.data * factor)

    def shifted(self, shift):
        """A + diag(shift)."""
        data = self.data.copy()
        data[self.diag] += shift
        return self.with_data(data)

    def restrict(self, mask):
        """Principal submatrix on the nodes where the boolean mask holds,
        taken by masking the pattern (rows and columns stay sorted)."""
        mask = np.asarray(mask, dtype=bool)
        keep = np.flatnonzero(mask[self.rows] & mask[self.indices])
        node = np.cumsum(mask) - 1
        rows = node[self.rows[keep]]
        return GraphMatrix(np.searchsorted(rows, np.arange(node[-1] + 2)), node[self.indices[keep]],
                           rows, np.searchsorted(keep, self.diag[mask]), self.data[keep])


class VertexGraph(GraphOperator):
    """Vertex graph of the log-density stiffness: cell-local pairs, and as
    face pairs the edges of the edge-based operator (none on quads).
    ``cell_stiffness`` holds the constant element stiffness entries of the
    cell-local pairs, computed once on first use."""

    def __init__(self, mesh: Mesh):
        iu, ju = np.triu_indices(mesh.cells.shape[1], 1)
        cell_pairs = np.stack([mesh.cells[:, iu], mesh.cells[:, ju]], axis=-1)
        super().__init__(mesh.n_vertices, cell_pairs, () if mesh.cell_kind == QUAD else _edge_pairs(mesh))
        self.mesh = mesh

    @cached_property
    def cell_stiffness(self):
        iu, ju = np.triu_indices(self.mesh.cells.shape[1], 1)
        return element_stiffness(self.mesh)[:, iu, ju]


def lumped_mass(mesh: Mesh) -> np.ndarray:
    """Diagonal mass weights: |S_i|/(d+1) on simplices and intervals, the
    tensor trapezoidal weight sum(|K|/4) on quads.  Entries sum to |domain|."""
    share = mesh.dim + 1 if mesh.cell_kind != QUAD else 4
    weights = np.repeat(mesh.cell_volumes / share, mesh.cells.shape[1])
    return np.bincount(mesh.cells.ravel(), weights, mesh.n_vertices)


#: |u_i - u_j| below which the harmonic average takes its midpoint value
HARMONIC_BRANCH_EPS = 1e-10


def harmonic_edge_average(u_i, u_j, m):
    """Harmonic average of the coefficient m*exp(m*u) along an edge on which
    u varies linearly between u_i and u_j.

    Evaluated in the cancellation-free form
        m * exp(m*(u_i+u_j)/2) * z / sinh(z),   z = m*(u_j-u_i)/2,
    which equals m^2 (u_j-u_i) / (exp(-m u_i) - exp(-m u_j)) exactly and
    falls back to the midpoint value m*exp(m*(u_i+u_j)/2) for |u_i-u_j|
    below HARMONIC_BRANCH_EPS.
    """
    ui = np.asarray(u_i, dtype=float)
    uj = np.asarray(u_j, dtype=float)
    mid = np.exp(0.5 * m * (ui + uj)) * m
    z = 0.5 * m * (uj - ui)
    small = np.abs(uj - ui) <= HARMONIC_BRANCH_EPS
    zsafe = np.where(small, 1.0, z)
    ratio = np.where(small, 1.0, zsafe / np.sinh(zsafe))
    out = mid * ratio
    return float(out) if out.ndim == 0 else out


def _edge_pairs(mesh: Mesh):
    """Vertex pairs of the edge-based operator: the mesh faces in 2D, the
    cells themselves in 1D."""
    return mesh.faces if mesh.cell_kind == TRIANGLE else mesh.cells


def stiffness_edge_based(mesh: Mesh, geom: EdgeGeometry, u_prev, m, active=None,
                         graph: VertexGraph | None = None) -> GraphMatrix:
    """Edge-based diffusion operator sum_E omega_E * gamma_E * (e_i - e_j)(e_i - e_j)^T
    with gamma_E the harmonic coefficient average, omega_E the aggregated
    cotangent weight in 2D and 1/h in 1D.  Edges with an inactive endpoint
    get weight zero (their harmonic average vanishes)."""
    if mesh.cell_kind == QUAD:
        raise ValueError("edge-based stiffness is simplex-specific; quads unsupported")
    graph = graph or VertexGraph(mesh)
    u_prev = np.asarray(u_prev, dtype=float)
    pairs = _edge_pairs(mesh)
    vi, vj = pairs[:, 0], pairs[:, 1]
    w = geom.omega if mesh.cell_kind == TRIANGLE else 1.0 / mesh.cell_volumes
    w = w * harmonic_edge_average(u_prev[vi], u_prev[vj], m)
    if active is not None:
        keep = np.asarray(active, dtype=bool)
        w = np.where(keep[vi] & keep[vj], w, 0.0)
    return graph.laplacian(np.bincount(graph.face_edge, w, graph.n_edges))


def element_stiffness(mesh: Mesh) -> np.ndarray:
    """Exact constant-coefficient element stiffness blocks, one per cell."""
    pts = mesh.vertices[mesh.cells]
    if mesh.cell_kind == INTERVAL:
        h = mesh.cell_volumes
        blk = np.empty((mesh.n_cells, 2, 2))
        blk[:, 0, 0] = blk[:, 1, 1] = 1.0 / h
        blk[:, 0, 1] = blk[:, 1, 0] = -1.0 / h
        return blk
    if mesh.cell_kind == TRIANGLE:
        # grad(phi_i) = perp(edge opposite i)/(2|K|); the Gram matrix of the
        # opposite edges divided by 4|K| is the P1 stiffness
        e = np.stack(
            [pts[:, 2] - pts[:, 1], pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 0]],
            axis=1,
        )
        return np.einsum("cid,cjd->cij", e, e) / (4.0 * mesh.cell_volumes)[:, None, None]
    # axis-aligned Q1 quad, nodes CCW from the lower-left corner: the exact
    # integrals of the x- and y-derivative products of the bilinear basis
    hx = pts[:, 1, 0] - pts[:, 0, 0]
    hy = pts[:, 3, 1] - pts[:, 0, 1]
    dx = np.array([[2, -2, -1, 1], [-2, 2, 1, -1], [-1, 1, 2, -2], [1, -1, -2, 2]]) / 6.0
    dy = np.array([[2, 1, -1, -2], [1, 2, -2, -1], [-1, -2, 2, 1], [-2, -1, 1, 2]]) / 6.0
    return np.multiply.outer(hy / hx, dx) + np.multiply.outer(hx / hy, dy)


def stiffness_vertex_quadrature(mesh: Mesh, u_prev, m, active=None,
                                graph: VertexGraph | None = None) -> GraphMatrix:
    """Stiffness with the coefficient m*exp(m*u_prev) averaged over each
    cell's vertices (nodal quadrature), times the exact constant-coefficient
    element stiffness.  Inactive vertices contribute zero coefficient."""
    graph = graph or VertexGraph(mesh)
    u_prev = np.asarray(u_prev, dtype=float)
    gamma = m * np.exp(m * u_prev)
    if active is not None:
        gamma = np.where(np.asarray(active, dtype=bool), gamma, 0.0)
    coeff = gamma[mesh.cells].mean(axis=1)
    off = graph.cell_stiffness * coeff[:, None]
    return graph.laplacian(-np.bincount(graph.cell_edge, off.ravel(), graph.n_edges))


def velocity_lumped_weights(mesh: Mesh, geom: EdgeGeometry) -> np.ndarray:
    """Diagonal weights of the lumped velocity mass matrix, per face, in the
    normal-component convention: the lumped rule reads sum_E w_E (u.n_E)^2.

    The cotangent weights lump the integrated face flux |E| u.n_E (they are
    dimensionless, and the constant-field identity
    int_K |u|^2 = sum_E (1/2) cot(theta) (|E| u.n_E)^2 holds exactly), so on
    triangles they convert to component weights by a factor |E|^2.  Quad and
    interval weights |K|/2 are already component weights."""
    if geom.mesh is not mesh:
        raise ValueError("geometry belongs to a different mesh")
    if mesh.cell_kind == TRIANGLE:
        return geom.omega * mesh.face_measures**2
    return geom.omega.copy()


#: Jacobi-PCG iterations allowed before the direct fallback
PCG_MAXITER = 500


def spd_solve(A: GraphMatrix, shift, rhs):
    """Solve (diag(shift) + A) x = rhs with the contract
    ||residual|| <= 1e-12 ||rhs||.  Graphs with rows of more than 3 entries
    (2D meshes) try Jacobi-PCG, accepted only on its true residual; path
    graphs (1D) and systems PCG misses go to sparse LU with one step of
    iterative refinement.  Raises SolverError on singular systems."""
    shift = np.asarray(shift, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if A.n == 0:
        raise SolverError("empty system")
    if np.any(shift < 0):
        raise ValueError("shift entries must be nonnegative")
    K = A.shifted(shift)
    tol = 1e-12 * np.linalg.norm(rhs)
    if np.diff(K.indptr).max() > 3:
        x = _jacobi_pcg(K.tocsr(), K.diagonal(), rhs, tol)
        if x is not None:
            return x
    K = K.tocsr()
    try:
        lu = splu(K.T)  # K is symmetric: its CSR transpose is its CSC form
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolverError(f"singular system: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("singular system: non-finite solution")
    res = K @ x - rhs
    if np.linalg.norm(res) > tol:
        x = x - lu.solve(res)  # one step of iterative refinement
        res = K @ x - rhs
        if np.linalg.norm(res) > tol:
            raise SolverError("linear solve did not reach the residual bound")
    return x


def _jacobi_pcg(K, d, b, tol):
    """Jacobi-preconditioned CG from x = 0.  Returns x when its true
    residual is at most tol, or None when K is not positive definite along
    a search direction or PCG_MAXITER iterations do not get there."""
    if not np.all(d > 0):
        return None
    inv = 1.0 / d
    x = np.zeros_like(b)
    r = b.copy()
    z = inv * r
    p = z.copy()
    rz = r @ z
    for _ in range(PCG_MAXITER):
        if r @ r <= 0.25 * tol * tol:  # the recurrence drifts from b - Kx: check that too
            return x if np.linalg.norm(b - K @ x) <= tol else None
        q = K @ p
        pq = p @ q
        if not pq > 0:
            return None
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = inv * r
        rz_old, rz = rz, r @ z
        p = z + (rz / rz_old) * p
    return None
