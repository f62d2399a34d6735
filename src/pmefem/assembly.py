"""Quadrature and matrix assembly shared by both schemes.

Provides the lumped P1 mass vector, the two nonlinear-coefficient stiffness
variants (edge-based with harmonic coefficient averages, and vertex
quadrature), both built on the constant-coefficient P1 element stiffness,
and a SPD solve on the shared graph operator.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .mesh import INTERVAL, QUAD, TRIANGLE, Mesh


class SolverError(RuntimeError):
    """Linear or nonlinear solve failed."""


#: Newton residual tolerance of both schemes (inf-norm, in mass units)
NEWTON_TOL = 1e-11


class Pattern:
    """Fixed symmetric CSR pattern: ``indptr``/``indices``, the row of every
    entry and the position of every diagonal entry.  It keeps the sub-pattern
    of the last mask it was restricted to, as one entry (a copy of the mask,
    the kept entry positions and the sub-pattern) that is replaced whole."""

    def __init__(self, indptr, indices, rows, diag):
        self.indptr, self.indices, self.rows, self.diag = indptr, indices, rows, diag
        self.n, self.nnz = len(indptr) - 1, len(indices)
        self._last = None

    def restricted(self, mask):
        """(keep, sub): the positions of the entries whose row and column
        both hold in the boolean mask, and the pattern they form, built
        only when the mask differs from the previous call's."""
        last = self._last
        if last is None or not np.array_equal(last[0], mask):
            last = self._last = (mask.copy(), *self._sub_pattern(mask))
        return last[1], last[2]

    def _sub_pattern(self, mask):
        """(keep, sub) built by masking this pattern, which keeps its rows
        and columns sorted."""
        keep = np.flatnonzero(mask[self.rows] & mask[self.indices])
        node = np.cumsum(mask) - 1
        rows = node[self.rows[keep]]
        return keep, Pattern(np.searchsorted(rows, np.arange(node[-1] + 2)), node[self.indices[keep]],
                             rows, np.searchsorted(keep, self.diag[mask]))


class GraphOperator(Pattern):
    """Pattern of a weighted graph Laplacian plus a diagonal, built once per
    mesh on vertices (log-density) or cells (mixed) and carried on the
    state.  It holds every diagonal entry and both directions of every
    edge, sorted.  ``pair_edge`` maps the given node pairs to edges, so a
    numeric refill is a ``np.bincount``."""

    def __init__(self, n, pairs):
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(lo == hi) or lo.min(initial=0) < 0 or hi.max(initial=-1) >= n:
            raise ValueError("graph pairs must join two distinct nodes in range")
        n = int(n)
        keys, self.pair_edge = np.unique(lo * n + hi, return_inverse=True)
        self.ei, self.ej = keys // n, keys % n
        self.n_edges = ne = len(keys)
        rows = np.concatenate([self.ei, self.ej, np.arange(n)])
        cols = np.concatenate([self.ej, self.ei, np.arange(n)])
        order = np.argsort(rows * n + cols)  # unique keys: the (row, column) order
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        self.upper, self.lower = pos[:ne], pos[ne:2 * ne]
        rows = rows[order]
        super().__init__(np.searchsorted(rows, np.arange(n + 1)), cols[order], rows, pos[2 * ne:])

    def laplacian(self, weights) -> "GraphMatrix":
        """sum_e w_e (e_i - e_j)(e_i - e_j)^T for one weight per edge; the
        (i, j) and (j, i) entries are the same number, so symmetry is exact."""
        data = np.empty(self.nnz)
        data[self.upper] = data[self.lower] = -np.asarray(weights, dtype=float)
        data[self.diag] = np.bincount(self.ei, weights, self.n) + np.bincount(self.ej, weights, self.n)
        return GraphMatrix(self, data)


class GraphMatrix:
    """Values on a fixed symmetric :class:`Pattern`."""

    def __init__(self, pattern: Pattern, data):
        self.pattern, self.data, self.n = pattern, data, pattern.n
        self._csr = None

    def tocsr(self):
        if self._csr is None:
            self._csr = sparse.csr_matrix((self.data, self.pattern.indices, self.pattern.indptr),
                                          shape=(self.n, self.n))
        return self._csr

    def diagonal(self):
        return self.data[self.pattern.diag]

    def __matmul__(self, x):
        return self.tocsr() @ x

    def scaled(self, factor):
        return GraphMatrix(self.pattern, self.data * factor)

    def shifted(self, shift):
        """A + diag(shift)."""
        data = self.data.copy()
        data[self.pattern.diag] += shift
        return GraphMatrix(self.pattern, data)

    def restrict(self, mask):
        """Principal submatrix on the nodes where the boolean mask holds, on
        the pattern's cached sub-pattern for that mask."""
        keep, sub = self.pattern.restricted(np.asarray(mask, dtype=bool))
        return GraphMatrix(sub, self.data[keep])


class VertexGraph(GraphOperator):
    """Per-mesh data of the log-density scheme: the vertex graph of its
    stiffness, one pair per two vertices of a cell, and the ``lumped`` mass.
    Computed once on first use: ``cell_stiffness``, the constant element
    stiffness entries of those pairs, and ``edge_weight``, their sum -A_ij
    per edge (the cotangent weight on triangles, 1/h on intervals)."""

    def __init__(self, mesh: Mesh):
        iu, ju = np.triu_indices(mesh.cells.shape[1], 1)
        super().__init__(mesh.n_vertices, np.stack([mesh.cells[:, iu], mesh.cells[:, ju]], axis=-1))
        self.mesh = mesh
        self.lumped = lumped_mass(mesh)

    @cached_property
    def cell_stiffness(self):
        iu, ju = np.triu_indices(self.mesh.cells.shape[1], 1)
        return element_stiffness(self.mesh)[:, iu, ju]

    @cached_property
    def edge_weight(self):
        return -np.bincount(self.pair_edge, self.cell_stiffness.ravel(), self.n_edges)


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


def stiffness_edge_based(graph: VertexGraph, u_prev, m, active) -> GraphMatrix:
    """Edge-based diffusion operator sum_E w_E * gamma_E * (e_i - e_j)(e_i - e_j)^T
    with gamma_E the harmonic coefficient average and w_E = -A_ij the edge
    weight of the constant-coefficient P1 stiffness.  Edges with an inactive
    endpoint get weight zero (their harmonic average vanishes)."""
    if graph.mesh.cell_kind == QUAD:
        raise ValueError("edge-based stiffness is simplex-specific; quads unsupported")
    u_prev = np.asarray(u_prev, dtype=float)
    active = np.asarray(active, dtype=bool)
    w = graph.edge_weight * harmonic_edge_average(u_prev[graph.ei], u_prev[graph.ej], m)
    return graph.laplacian(np.where(active[graph.ei] & active[graph.ej], w, 0.0))


def element_stiffness(mesh: Mesh) -> np.ndarray:
    """Exact constant-coefficient element stiffness blocks, one per cell."""
    if mesh.cell_kind == INTERVAL:
        h = mesh.cell_volumes
        blk = np.empty((mesh.n_cells, 2, 2))
        blk[:, 0, 0] = blk[:, 1, 1] = 1.0 / h
        blk[:, 0, 1] = blk[:, 1, 0] = -1.0 / h
        return blk
    if mesh.cell_kind == TRIANGLE:
        # grad(phi_i) = perp(edge opposite i)/(2|K|); the Gram matrix of the
        # opposite edges divided by 4|K| is the P1 stiffness.  Its two-term
        # dot products are written out, on one contiguous array per vertex
        # and axis; + 0.0 turns -0 into +0, as a sum that starts from +0 does
        x, y = (mesh.vertices[:, d][mesh.cells.T] for d in (0, 1))
        ex, ey = ((v[2] - v[1], v[0] - v[2], v[1] - v[0]) for v in (x, y))
        vol4 = 4.0 * mesh.cell_volumes
        blk = np.empty((mesh.n_cells, 3, 3))
        for i, j in zip(*np.triu_indices(3)):
            blk[:, i, j] = blk[:, j, i] = (ex[i] * ex[j] + ey[i] * ey[j] + 0.0) / vol4
        return blk
    # axis-aligned Q1 quad, nodes CCW from the lower-left corner: the exact
    # integrals of the x- and y-derivative products of the bilinear basis
    pts = mesh.vertices[mesh.cells]
    hx = pts[:, 1, 0] - pts[:, 0, 0]
    hy = pts[:, 3, 1] - pts[:, 0, 1]
    dx = np.array([[2, -2, -1, 1], [-2, 2, 1, -1], [-1, 1, 2, -2], [1, -1, -2, 2]]) / 6.0
    dy = np.array([[2, 1, -1, -2], [1, 2, -2, -1], [-1, -2, 2, 1], [-2, -1, 1, 2]]) / 6.0
    return np.multiply.outer(hy / hx, dx) + np.multiply.outer(hx / hy, dy)


def stiffness_vertex_quadrature(graph: VertexGraph, u_prev, m, active) -> GraphMatrix:
    """Stiffness with the coefficient m*exp(m*u_prev) averaged over each
    cell's vertices (nodal quadrature), times the exact constant-coefficient
    element stiffness.  Inactive vertices contribute zero coefficient."""
    u_prev = np.asarray(u_prev, dtype=float)
    gamma = np.where(np.asarray(active, dtype=bool), m * np.exp(m * u_prev), 0.0)
    coeff = gamma[graph.mesh.cells].mean(axis=1)
    off = graph.cell_stiffness * coeff[:, None]
    return graph.laplacian(-np.bincount(graph.pair_edge, off.ravel(), graph.n_edges))


#: Jacobi-PCG iterations allowed before the direct fallback
PCG_MAXITER = 500


def spd_solve(A: GraphMatrix, shift, rhs, x0=None):
    """Solve (diag(shift) + A) x = rhs with the contract
    ||residual|| <= 1e-12 ||rhs||.  Graphs with rows of more than 3 entries
    (2D meshes) try Jacobi-PCG from the start point x0 (0 when it is
    omitted), accepted only on its true residual; path graphs (1D) and
    systems PCG misses go to sparse LU with one step of iterative
    refinement, which ignores x0.  The start point changes the iterations,
    not the contract.  Raises ValueError on a negative shift or an x0 that
    is not a finite vector of the system's size, SolverError on singular
    systems."""
    shift = np.asarray(shift, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if A.n == 0:
        raise SolverError("empty system")
    if np.any(shift < 0):
        raise ValueError("shift entries must be nonnegative")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (A.n,) or not np.all(np.isfinite(x0)):
            raise ValueError(f"start point must be {A.n} finite values")
    K = A.shifted(shift)
    tol = 1e-12 * np.linalg.norm(rhs)
    if np.diff(K.pattern.indptr).max() > 3:
        x = _jacobi_pcg(K.tocsr(), K.diagonal(), rhs, tol, x0)
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


def _jacobi_pcg(K, d, b, tol, x0):
    """Jacobi-preconditioned CG from x = x0, or from x = 0 when x0 is None.
    Returns x when its true residual is at most tol, or None when K is not
    positive definite along a search direction or PCG_MAXITER iterations do
    not get there."""
    if not np.all(d > 0):
        return None
    inv = 1.0 / d
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = x0.copy()
        r = b - K @ x
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
