"""Mixed scheme: piecewise-constant density/potential with face-normal fluxes.

Static condensation with a lumped velocity mass turns the velocity equation
into a per-face two-point formula, so each time step reduces to a nonlinear
system for the cell densities alone:

    |K| (rho_K^n - rho_K^{n-1}) + dt * sum_E rhohat_E u_E^n (n_E . n_K) |E| = 0

with u_E = |E| (mu_K1 - mu_K2) / omega_E, mu = m/(m-1) rho^{m-1}, and
rhohat the previous density upwinded by the sign of u_E.  The sign
dependence makes the system semismooth: Newton steps are taken with frozen
upwind directions.  Their Jacobian V + L D (V = diag|K|, L the graph
Laplacian of the face weights dt rhat |E|^2 / w_E, D = diag(dmu/drho)) is an
SPD matrix times a diagonal, so the shared SPD solve gives y = D delta.

An update is halved only while the iteration oscillates: the residual did
not decrease and the upwind values changed since the previous iterate; full
steps resume as soon as they repeat, and after ``max_iter`` iterations
every update is halved, for ``max_iter`` more.  A step is accepted when
the residual is within the tolerance under the current upwind values and,
if a near-zero flux flipped sign on roundoff, under the previous ones too:
the state then solves the step under either choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import NEWTON_TOL, GraphOperator, SolverError, velocity_lumped_weights
from .assembly import spd_solve as spsolve
from .mesh import DELAUNAY_TOL, EdgeGeometry, Mesh, MeshError, compute_edge_geometry


@dataclass(frozen=True)
class MixedState:
    """Cell densities/potentials and signed normal face fluxes.

    rho >= 0 per cell (to solver slack), mu = m/(m-1) rho^{m-1}, u is the
    normal velocity component along each face normal; boundary faces carry
    u = 0 (no-flux condition built into the velocity space).  ``graph`` is
    the mesh's cell graph, built on construction when not given and passed
    on by every step.
    """

    mesh: Mesh
    geom: EdgeGeometry
    m: float
    rho: np.ndarray
    mu: np.ndarray
    u: np.ndarray
    time: float = 0.0
    graph: GraphOperator = field(default=None, repr=False)

    def __post_init__(self):
        if self.graph is None:  # cells joined by an interior face, in face order
            interior_pairs = self.mesh.face_cells[self.mesh.interior_faces]
            object.__setattr__(self, "graph", GraphOperator(self.mesh.n_cells, face_pairs=interior_pairs))

    def total_mass(self) -> float:
        return float(self.mesh.cell_volumes @ self.rho)


def potential_from_density(rho, m):
    """mu = m/(m-1) * rho^(m-1); negative solver slack is clamped to zero
    before the power."""
    return m / (m - 1.0) * np.maximum(np.asarray(rho, dtype=float), 0.0) ** (m - 1.0)


def _interior_faces(geom: EdgeGeometry):
    """Interior-face mask, measures |E| and lumped velocity weights w_E.
    Rejects meshes whose interior face weights are not above DELAUNAY_TOL
    (non-Delaunay triangulations)."""
    mesh = geom.mesh
    interior = mesh.interior_faces
    if np.any(geom.omega[interior] <= DELAUNAY_TOL):
        raise MeshError("interior face weight below threshold; mesh is not strictly Delaunay")
    return interior, mesh.face_measures[interior], velocity_lumped_weights(mesh, geom)[interior]


def condense_velocity(mu, geom: EdgeGeometry) -> np.ndarray:
    """Per-face normal velocity from the cell potentials:
    u_E = |E| (mu_first - mu_second) / w_E on interior faces, 0 on the
    boundary, with w_E the lumped velocity mass weight.  Rejects meshes whose
    interior face weights are not strictly positive (non-Delaunay
    triangulations)."""
    mesh = geom.mesh
    interior, measure, weight = _interior_faces(geom)
    u = np.zeros(mesh.n_faces)
    k1, k2 = mesh.face_cells[interior].T
    mu = np.asarray(mu, dtype=float)
    u[interior] = measure * (mu[k1] - mu[k2]) / weight
    return u


def init_mixed_state(mesh: Mesh, rho0, m, geom: EdgeGeometry | None = None) -> MixedState:
    """Sample the pointwise initial density at cell barycenters; potential
    and flux follow from the closure and condensation."""
    if geom is None:
        geom = compute_edge_geometry(mesh)
    rho = np.asarray(rho0(mesh.cell_barycenters()), dtype=float)
    if rho.shape != (mesh.n_cells,):
        raise ValueError("initial density must return one value per cell")
    if np.any(rho < 0):
        raise ValueError("initial density must be nonnegative")
    mu = potential_from_density(rho, m)
    u = condense_velocity(mu, geom)
    return MixedState(mesh=mesh, geom=geom, m=float(m), rho=rho, mu=mu, u=u)


def _dmu(rho, m):
    """d(mu)/d(rho) = m * rho^{m-2}, clamped for the degenerate origin."""
    rho = np.maximum(np.asarray(rho, dtype=float), 0.0)
    if m >= 2.0:
        return m * rho ** (m - 2.0)
    return m * np.maximum(rho, 1e-12) ** (m - 2.0)


def _newton_update(lap, dmu, vol, r):
    """delta with (V + L D) delta = -r: y = D delta solves (V/D + L) y = -r on the
    cells where D_k L_kk is above roundoff of |K|, the others take (-r - L y) / |K|.
    Returns delta and the mask of those coupled cells."""
    coupled = dmu * lap.diagonal() > 2.0**-52 * vol
    y = np.zeros(len(vol))
    if coupled.any():
        y[coupled] = spsolve(lap.restrict(coupled), vol[coupled] / dmu[coupled], -r[coupled])
    delta = (-r - lap @ y) / vol
    delta[coupled] = y[coupled] / dmu[coupled]
    return delta, coupled


def step_mixed(state: MixedState, dt, max_iter: int = 50) -> MixedState:
    """Advance one implicit step with at most ``max_iter`` Newton iterations,
    then ``max_iter`` halved ones.  Cell mass balances hold to the Newton
    tolerance and the total mass is conserved exactly up to it; uniform
    states are returned unchanged."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    mesh, m, graph = state.mesh, state.m, state.graph
    interior, measure, weight = _interior_faces(state.geom)
    k1, k2 = mesh.face_cells[interior].T
    n, vol = mesh.n_cells, mesh.cell_volumes
    rho_prev = state.rho
    dt = float(dt)

    def balance(rho, u_int, rhat):
        f = dt * (rhat * u_int * measure)
        return vol * (rho - rho_prev) + np.bincount(k1, f, n) - np.bincount(k2, f, n)

    rho = rho_prev.copy()
    rhat_last = res_last = None
    coupled = np.zeros(n, dtype=bool)
    for it in range(2 * max_iter + 1):
        mu = potential_from_density(rho, m)
        u_int = measure * (mu[k1] - mu[k2]) / weight
        rhat = np.where(u_int >= 0, rho_prev[k1], rho_prev[k2])
        r = balance(rho, u_int, rhat)
        res = float(np.max(np.abs(r)))
        settled = rhat_last is None or np.array_equal(rhat, rhat_last)
        if res <= NEWTON_TOL and (settled or np.max(np.abs(balance(rho, u_int, rhat_last))) <= NEWTON_TOL):
            if it == 0:
                return replace(state, time=state.time + dt)
            u = np.zeros(mesh.n_faces)
            u[interior] = u_int
            return replace(state, rho=rho, mu=mu, u=u, time=state.time + dt)
        if it == 2 * max_iter:
            raise SolverError(f"mixed Newton did not converge in {it} iterations: "
                              f"residual {res:.3e} on {coupled.sum()} coupled cells")

        # Newton step with frozen upwind directions
        g = dt * rhat * measure**2 / weight
        delta, coupled = _newton_update(graph.laplacian(np.bincount(graph.face_edge, g, graph.n_edges)),
                                        _dmu(rho, m), vol, r)
        if not np.all(np.isfinite(delta)):
            raise SolverError("mixed Newton produced a non-finite update")
        if it >= max_iter or (not settled and res >= res_last):
            delta = 0.5 * delta  # halved while the upwind values oscillate, always after max_iter
        rho = rho + delta
        rhat_last, res_last = rhat, res
    raise SolverError("unreachable")


def cfl_max_dt(state: MixedState):
    """Largest positivity-preserving step per cell, 1 / sum over outflow
    faces of |u . n_K| |E| / |K|, and its global minimum.  Cells without
    outflow report +inf."""
    mesh = state.mesh
    interior = mesh.interior_faces
    k1, k2 = mesh.face_cells[interior].T
    u = state.u[interior]
    meas = mesh.face_measures[interior]
    outflow = (np.bincount(k1, np.maximum(u, 0.0) * meas, mesh.n_cells)
               + np.bincount(k2, np.maximum(-u, 0.0) * meas, mesh.n_cells))
    per_cell = np.full(mesh.n_cells, np.inf)
    with np.errstate(over="ignore"):
        np.divide(mesh.cell_volumes, outflow, out=per_cell, where=outflow > 0)
    return per_cell, float(per_cell.min())


def physical_energy(state: MixedState, m: float | None = None) -> float:
    """Integral of rho^m/(m-1) over the mesh."""
    m = state.m if m is None else m
    if m <= 1:
        raise ValueError("physical energy requires m > 1")
    return float(state.mesh.cell_volumes @ (np.maximum(state.rho, 0.0) ** m)) / (m - 1.0)
