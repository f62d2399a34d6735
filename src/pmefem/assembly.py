"""Quadrature and matrix assembly shared by both schemes.

Provides the lumped P1 mass vector, the two nonlinear-coefficient stiffness
variants (edge-based with harmonic coefficient averages, and vertex
quadrature), both built on the constant-coefficient P1 element stiffness,
and a SPD solve on the shared graph operator.
"""

from __future__ import annotations

import logging
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dptsv, dpttrs
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

from .mesh import INTERVAL, QUAD, TRIANGLE, Mesh

log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    """Linear or nonlinear solve failed."""


#: Newton updates allowed in one step of either scheme
NEWTON_MAXITER = 50

#: backtracking halvings allowed in one Newton line search of either scheme
LINE_SEARCH_HALVINGS = 50

#: relative roundoff of a Newton residual and of a step functional
ROUNDOFF = 64 * np.finfo(float).eps

#: Newton tolerance of both schemes on the residual max-norm, relative to the
#: step scale S (the largest mass times previous density), floored at roundoff
NEWTON_RTOL = 1e-8


class Pattern:
    """Fixed symmetric CSR pattern: ``indptr``/``indices``, the row of every
    entry and the position of every diagonal entry.  It keeps the sub-pattern
    of the last mask it was restricted to, as one entry (a copy of the mask,
    the kept entry positions and the sub-pattern) that is replaced whole.
    Its bands, by which ``spd_solve`` picks a path, are computed once, on
    first use."""

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
        and columns sorted; every node keeps its diagonal entry."""
        keep = np.flatnonzero(mask[self.rows] & mask[self.indices])
        node = np.cumsum(mask) - 1
        rows, cols = node[self.rows[keep]], node[self.indices[keep]]
        indptr = np.zeros(node[-1] + 2, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=node[-1] + 1), out=indptr[1:])
        return keep, Pattern(indptr, cols, rows, np.flatnonzero(rows == cols))

    @cached_property
    def superdiagonal(self):
        """(rows, positions) of the entries (i, i + 1) when every entry has
        |i - j| <= 1, as on 1D meshes numbered left to right, else None.  A
        row missing from ``rows`` has no (i, i + 1) entry.  One node has
        no band: LAPACK's wrapper takes no empty superdiagonal.  Every row
        holds its diagonal and sorted columns, so its ends decide."""
        node = np.arange(self.n)
        if (self.n < 2 or np.any(self.indices[self.indptr[:-1]] < node - 1)
                or np.any(self.indices[self.indptr[1:] - 1] > node + 1)):
            return None
        pos = np.flatnonzero(self.indices == self.rows + 1)
        return self.rows[pos], pos


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
    """Values on a fixed symmetric :class:`Pattern`.  Products run scipy's
    CSR kernel on the pattern's ``indptr``/``indices`` and these values;
    ``tocsr`` builds a scipy matrix, for the LU fallback."""

    def __init__(self, pattern: Pattern, data):
        if np.shape(data) != (pattern.nnz,):
            raise ValueError(f"a matrix on this pattern holds {pattern.nnz} values")
        self.pattern, self.data, self.n = pattern, data, pattern.n

    def tocsr(self):
        return sparse.csr_matrix((self.data, self.pattern.indices, self.pattern.indptr), shape=(self.n, self.n))

    def diagonal(self):
        return self.data[self.pattern.diag]

    def norm_inf(self):
        """||A||_inf, the largest absolute row sum (every row holds its
        diagonal entry, so none is empty)."""
        return float(np.max(np.add.reduceat(np.abs(self.data), self.pattern.indptr[:-1]), initial=0.0))

    def __matmul__(self, x):
        return self.matvec(np.asarray(x), np.empty(self.n))

    def matvec(self, x, out):
        """A x written into the float vector ``out`` (not x itself), which it
        returns.  The kernel does not check sizes, so a vector of another
        shape raises here."""
        if x.shape != (self.n,) or out.shape != (self.n,):
            raise ValueError(f"products take and give vectors of {self.n} values")
        out.fill(0.0)  # the kernel adds A x to out
        csr_matvec(self.n, self.n, self.pattern.indptr, self.pattern.indices, self.data, x, out)
        return out

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


def harmonic_edge_average(u_i, u_j, m):
    """Harmonic average of the coefficient m*exp(m*u) along an edge on which
    u varies linearly between u_i and u_j.

    Evaluated in the cancellation-free form
        m * exp(m*(u_i+u_j)/2) * z / sinh(z),   z = m*(u_j-u_i)/2,
    which equals m^2 (u_j-u_i) / (exp(-m u_i) - exp(-m u_j)) exactly; at
    z = 0 it is the midpoint value m*exp(m*(u_i+u_j)/2).  Below |z| = 1e-8
    z / sinh(z) rounds to exactly 1.
    """
    ui = np.asarray(u_i, dtype=float)
    uj = np.asarray(u_j, dtype=float)
    mid = np.exp(0.5 * m * (ui + uj)) * m
    z = 0.5 * m * (uj - ui)
    out = mid * np.divide(z, np.sinh(z), out=np.ones_like(z), where=z != 0)
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

#: largest forcing term of an inexact Newton solve (at 1e-2 the mixed Newton
#: stops at its budget for m = 1.0001, at 1e-3 on the 16x16 horseshoe at m = 4)
FORCING_CAP = 1e-4

#: an inexact Newton solve stops at no less than this fraction of the Newton
#: tolerance (at 1e-1 the mixed mass factor on the horseshoe exceeds 1e-12)
FORCING_FLOOR = 1e-2

#: forcing term per unit of Newton residual over S (at 1e-2 the m = 2 horseshoe
#: takes 80 solves, not 65; at 1e-4 mixed-horseshoe 3,722 PCG iterations, not 3,438)
FORCING_SCALE = 1e-3


def spd_solve(A: GraphMatrix, shift, rhs, x0, *, forcing=None):
    """Solve K x = rhs, K = A.shifted(shift) on every path, with the contract
    ||residual|| <= 1e-12 ||rhs||.  Tridiagonal patterns (1D meshes numbered
    left to right) go to LAPACK's ``dptsv`` on the two bands of K's data;
    every other pattern tries Jacobi-PCG from the start point x0, accepted
    only on its true residual.  Systems that PCG misses or ``dptsv`` finds
    not positive definite fall back to sparse LU.  Both direct solves ignore
    x0, take one step of iterative refinement on their factors and also
    accept the backward-error bound 1e-12 (||rhs|| + ||K||_inf ||x||).  The
    start point changes the iterations, not the contract.

    A Newton loop whose start residual r0 = rhs - K x0 is its Newton
    residual asks for an inexact solve by passing its Newton tolerance as
    ``forcing``, read as NEWTON_RTOL * S: PCG stops at max(1e-12 ||rhs||,
    eta ||r0||, FORCING_FLOOR * forcing) with eta = min(FORCING_CAP,
    FORCING_SCALE ||r0|| / S), so Newton keeps its quadratic rate, the
    solve is free of the data's units, and no solve goes far below what the
    Newton tolerance can see.  The direct solves ignore it.  PCG accepts the
    direct solves' backward-error bound too.

    Raises ValueError on a negative shift, an x0 that is not a finite vector
    of the system's size or a forcing that is not finite and positive,
    SolverError on singular systems."""
    shift = np.asarray(shift, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if A.n == 0:
        raise SolverError("empty system")
    if np.any(shift < 0):
        raise ValueError("shift entries must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (A.n,) or not np.all(np.isfinite(x0)):
        raise ValueError(f"start point must be {A.n} finite values")
    if forcing is not None and not (np.isfinite(forcing) and forcing > 0):
        raise ValueError("forcing must be finite and positive")
    tol = 1e-12 * np.linalg.norm(rhs)
    K = A.shifted(shift)
    if K.pattern.superdiagonal is not None:
        rows, pos = K.pattern.superdiagonal
        e = np.zeros(K.n - 1)
        e[rows] = K.data[pos]
        df, ef, x, info = dptsv(K.diagonal(), e, rhs)
        if info == 0:
            return _refined(x, lambda b: dpttrs(df, ef, b)[0], K, rhs, tol)
        log.debug("tridiagonal solve on %d unknowns: dptsv info %d, falling back to LU", K.n, info)
    else:
        x = _jacobi_pcg(K, K.diagonal(), rhs, tol, x0, forcing)
        if x is not None:
            return x
    try:
        lu = splu(K.tocsr().T)  # K is symmetric: its CSR transpose is its CSC form
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolverError(f"singular system: {exc}") from exc
    return _refined(x, lu.solve, K, rhs, tol)


def _accepted(K, x, rhs, tol):
    """(test, res): the true residual norm of x and the test it passes,
    "tolerance" where it meets tol, else "backward-error bound" where it
    meets the normwise bound 1e-12 (||rhs|| + ||K||_inf ||x||), else None:
    at large dt ||K|| ||x|| dwarfs ||rhs||, and a backward stable solution
    is accepted (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 7)."""
    res = np.linalg.norm(K @ x - rhs)
    if res <= tol:
        return "tolerance", res
    if res <= 1e-12 * (np.linalg.norm(rhs) + K.norm_inf() * np.linalg.norm(x)):
        return "backward-error bound", res
    return None, res


def _refined(x, solve, K, rhs, tol):
    """A direct solution x of K x = rhs, given ``solve`` on K's factors: one
    step of iterative refinement where its residual exceeds tol, then
    accepted by ``_accepted``.  Raises SolverError otherwise or on a
    non-finite x."""
    if not np.all(np.isfinite(x)):
        raise SolverError("singular system: non-finite solution")
    res = K @ x - rhs
    if np.linalg.norm(res) > tol:
        x = x - solve(res)  # one step of iterative refinement
        if _accepted(K, x, rhs, tol)[0] is None:
            raise SolverError("linear solve did not reach the residual bound")
    return x


def _jacobi_pcg(K, d, b, tol, x0, forcing):
    """Jacobi-preconditioned CG from x = x0.  Returns x once ``_accepted``
    at tol, or at the forced tolerance of ``spd_solve`` where a Newton
    tolerance ``forcing`` makes that looser, or None when K is not positive
    definite along a search direction or PCG_MAXITER iterations do not get
    there.  Each solve is logged at DEBUG, with the test that accepted it.
    The work vectors are allocated once and updated in place."""
    if not np.all(d > 0):
        return None
    inv = 1.0 / d
    x, r, q, step = x0.copy(), b.copy(), np.empty_like(b), np.empty_like(b)
    if x.any():
        r -= K.matvec(x, q)
    kind = "strict"
    if forcing is not None:
        r0 = np.linalg.norm(r)
        forced = max(min(FORCING_CAP, FORCING_SCALE * NEWTON_RTOL * r0 / forcing) * r0, FORCING_FLOOR * forcing)
        if forced > tol:
            tol, kind = forced, "forced"
    z = inv * r
    p = z.copy()
    rz = r @ z
    for k in range(PCG_MAXITER):
        if r @ r <= 0.25 * tol * tol:  # the recurrence drifts from b - Kx: check that too
            test, res = _accepted(K, x, b, tol)
            log.debug("PCG on %d unknowns: %d iterations, %s tolerance %.3e, true residual %.3e %s", len(b), k,
                      kind, tol, res, f"accepted by the {test}" if test else "missed it and the backward-error bound")
            return x if test else None
        K.matvec(p, q)
        pq = p @ q
        if not pq > 0:
            log.debug("PCG on %d unknowns: breakdown after %d iterations", len(b), k)
            return None
        alpha = rz / pq
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, q, out=step)
        np.multiply(inv, r, out=z)
        rz_old, rz = rz, r @ z
        p *= rz / rz_old
        p += z
    log.debug("PCG on %d unknowns: %d iterations did not reach tolerance %.3e", len(b), PCG_MAXITER, tol)
    return None
