"""Mixed scheme: piecewise-constant density and potential with two-point face fluxes.

Static condensation with a lumped velocity mass turns the velocity equation
into a per-face two-point formula, so each time step reduces to a nonlinear
system for the cell densities alone:

    |K| (rho_K^n - rho_K^{n-1}) + dt * sum_E rhohat_E F_E^n (n_E . n_K) = 0

with the flux F_E = |E| u.n_E = (mu_K1 - mu_K2) / omega_E, omega_E = d_E/|E|,
mu = m/(m-1) rho^{m-1}, and rhohat the previous density upwinded by the
sign of F_E.  The sign dependence makes the system semismooth: Newton steps
are taken with frozen upwind directions.  Their Jacobian V + L D
(V = diag|K|, L the graph Laplacian of the face weights dt rhat / omega_E,
D = diag(dmu/drho)) is an SPD matrix times a diagonal, so the shared SPD
solve gives y = D delta.

An update is halved only while the iteration oscillates: the residual did
not decrease and the upwind values changed since the previous iterate; full
steps resume as soon as they repeat.  A step is accepted when the residual
is within the tolerance under the current upwind values and, if a near-zero
flux flipped sign on roundoff, under the previous ones too: the state then
solves the step under either choice.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import assembly
from .assembly import GraphOperator, SolverError
from .assembly import spd_solve as spsolve
from .mesh import Mesh, MeshError, is_delaunay

log = logging.getLogger(__name__)

#: Newton residual tolerance (inf-norm, in mass units), floored at roundoff
NEWTON_TOL = 1e-11


class CellGraph(GraphOperator):
    """Cell graph of the mixed scheme, cells joined by an interior face in
    face order, with the face table of its two-point fluxes: the incident
    cells k1 -> k2 and the face weights ``omega`` = d_E/|E| of the interior
    faces.  Rejects meshes that are not strictly Delaunay, whose faces
    static condensation cannot turn into two-point fluxes."""

    def __init__(self, mesh: Mesh, omega):
        if not is_delaunay(mesh, omega, strict=True):
            raise MeshError("interior face weight below threshold; mesh is not strictly Delaunay")
        pairs = mesh.face_cells[mesh.interior_faces]
        super().__init__(mesh.n_cells, pairs)
        self.k1, self.k2 = pairs.T
        self.omega = omega[mesh.interior_faces]

    def flux(self, mu):
        """Interior-face fluxes |E| u.n_E = (mu_k1 - mu_k2) / omega_E, along k1 -> k2."""
        return (mu[self.k1] - mu[self.k2]) / self.omega


@dataclass(frozen=True)
class MixedState:
    """Cell densities rho >= 0; the potential and the face fluxes are
    functions of them.  ``graph`` is the mesh's :class:`CellGraph`, built by
    :func:`init_mixed_state` and passed on by every step.  ``rate`` is the
    last step's (rho - rho_prev)/dt, from which the next step predicts its
    Newton start; an initial state has none."""

    mesh: Mesh
    m: float
    rho: np.ndarray
    graph: CellGraph = field(repr=False)
    time: float = 0.0
    rate: np.ndarray | None = field(default=None, repr=False)

    def potential(self) -> np.ndarray:
        return potential_from_density(self.rho, self.m)

    def total_mass(self) -> float:
        return float(self.mesh.cell_volumes @ self.rho)


def potential_from_density(rho, m):
    """mu = m/(m-1) * rho^(m-1); negative solver slack is clamped to zero
    before the power."""
    return m / (m - 1.0) * np.maximum(np.asarray(rho, dtype=float), 0.0) ** (m - 1.0)


def init_mixed_state(mesh: Mesh, rho0, m, omega) -> MixedState:
    """Sample the pointwise initial density at cell barycenters; the fluxes use
    the face weights ``omega`` of :func:`~pmefem.mesh.compute_edge_geometry`."""
    rho = np.asarray(rho0(mesh.cell_barycenters()), dtype=float)
    if rho.shape != (mesh.n_cells,):
        raise ValueError("initial density must return one value per cell")
    if np.any(rho < 0):
        raise ValueError("initial density must be nonnegative")
    return MixedState(mesh=mesh, m=float(m), rho=rho, graph=CellGraph(mesh, omega))


def _dmu(rho, m):
    """d(mu)/d(rho) = m * rho^{m-2}, clamped for the degenerate origin."""
    rho = np.maximum(np.asarray(rho, dtype=float), 0.0)
    if m >= 2.0:
        return m * rho ** (m - 2.0)
    return m * np.maximum(rho, 1e-12) ** (m - 2.0)


def _newton_update(lap, dmu, vol, r, forcing=None):
    """delta with (V + L D) delta = -r: y = D delta solves (V/D + L) y = -r on the
    cells where D_k L_kk is above roundoff of |K|, the others take (-r - L y) / |K|.
    The solve starts from 0, so a Newton tolerance ``forcing`` makes it
    inexact relative to the coupled part of r (see ``spd_solve``).  Returns
    delta and the mask of those coupled cells."""
    coupled = dmu * lap.diagonal() > 2.0**-52 * vol
    y = np.zeros(len(vol))
    if coupled.any():
        y[coupled] = spsolve(lap.restrict(coupled), vol[coupled] / dmu[coupled], -r[coupled],
                             np.zeros(coupled.sum()), forcing=forcing)
    delta = (-r - lap @ y) / vol
    delta[coupled] = y[coupled] / dmu[coupled]
    return delta, coupled


def step_mixed(state: MixedState, dt) -> MixedState:
    """Advance one implicit step with at most NEWTON_MAXITER Newton updates,
    started from the prediction max(rho + dt * rate, 0) of the state's rate.
    A state without a rate, or whose predicted start does not converge
    (logged at DEBUG), starts from rho.  Cell mass balances hold to
    NEWTON_TOL, floored at the residual's roundoff; the accepted density is
    clipped at 0, within that tolerance, and scaled by M(rho_prev)/M(rho) to
    the previous step's mass (the factor is logged at DEBUG).  Uniform
    states without a rate are returned unchanged."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dt = float(dt)
    if state.rate is not None:
        try:
            return _newton(state, dt, np.maximum(state.rho + dt * state.rate, 0.0))
        except SolverError as exc:
            log.debug("mixed step to t=%g: the predicted start failed (%s), restarting from the previous density",
                      state.time + dt, exc)
    return _newton(state, dt, state.rho)


def _newton(state: MixedState, dt: float, rho) -> MixedState:
    """The Newton iteration of :func:`step_mixed` from the start rho."""
    mesh, m, graph = state.mesh, state.m, state.graph
    k1, k2 = graph.k1, graph.k2
    n, vol = mesh.n_cells, mesh.cell_volumes
    rho_prev = state.rho
    # roundoff of the residual: max |K| rho_prev plus ||L_g||_inf max mu, with
    # ||L_g||_inf <= 2 dt max(rho_prev) (faces per cell) / min(omega)
    scale = float(np.max(vol * rho_prev, initial=0.0))
    lap_norm = 2.0 * dt * float(np.max(rho_prev, initial=0.0)) * mesh.cells.shape[1]
    lap_norm /= np.min(graph.omega, initial=np.inf)

    def balance(rho, flux, rhat):
        f = dt * (rhat * flux)
        return vol * (rho - rho_prev) + np.bincount(k1, f, n) - np.bincount(k2, f, n)

    rhat_last = res_last = None
    for it in range(assembly.NEWTON_MAXITER + 1):
        flux = graph.flux(potential_from_density(rho, m))
        rhat = np.where(flux >= 0, rho_prev[k1], rho_prev[k2])
        r = balance(rho, flux, rhat)
        res = float(np.max(np.abs(r)))
        settled = rhat_last is None or np.array_equal(rhat, rhat_last)
        mu_max = potential_from_density(rho.max(), m)
        tol = max(NEWTON_TOL, 64 * np.finfo(float).eps * (scale + lap_norm * mu_max))
        if res <= tol and (settled or np.max(np.abs(balance(rho, flux, rhat_last))) <= tol):
            rho = np.maximum(rho, 0.0)  # slack: a cell below 0 has only inflow, so |K| rho_K >= -tol
            factor = float(vol @ rho_prev) / float(vol @ rho) if rho_prev.any() else 1.0  # empty stays empty
            log.debug("mixed step to t=%g: mass scaling factor f - 1 = %.3e after %d Newton iterations",
                      state.time + dt, factor - 1.0, it)
            rho = factor * rho
            return replace(state, rho=rho, time=state.time + dt, rate=(rho - rho_prev) / dt)
        if it == assembly.NEWTON_MAXITER:
            raise SolverError(f"mixed Newton did not converge in {it} iterations: "
                              f"residual {res:.3e} on {coupled.sum()} coupled cells")

        # Newton step with frozen upwind directions
        g = dt * rhat / graph.omega
        delta, coupled = _newton_update(graph.laplacian(np.bincount(graph.pair_edge, g, graph.n_edges)),
                                        _dmu(rho, m), vol, r, forcing=tol)
        if not np.all(np.isfinite(delta)):
            raise SolverError("mixed Newton produced a non-finite update")
        if not settled and res >= res_last:
            delta = 0.5 * delta  # halved while the upwind values oscillate
        rho = rho + delta
        rhat_last, res_last = rhat, res


def cfl_max_dt(state: MixedState):
    """The paper's CFL bound per cell, |K| over the sum of the fluxes out of
    K, and its global minimum.  Cells without outflow report +inf.  A
    diagnostic: accepted steps are >= 0 at any dt (see :func:`step_mixed`)."""
    mesh, graph = state.mesh, state.graph
    flux = graph.flux(state.potential())
    outflow = (np.bincount(graph.k1, np.maximum(flux, 0.0), mesh.n_cells)
               + np.bincount(graph.k2, np.maximum(-flux, 0.0), mesh.n_cells))
    per_cell = np.full(mesh.n_cells, np.inf)
    with np.errstate(over="ignore"):
        np.divide(mesh.cell_volumes, outflow, out=per_cell, where=outflow > 0)
    return per_cell, float(per_cell.min())


def physical_energy(state: MixedState) -> float:
    """Integral of rho^m/(m-1) over the mesh."""
    m = state.m
    if m <= 1:
        raise ValueError("physical energy requires m > 1")
    return float(state.mesh.cell_volumes @ (np.maximum(state.rho, 0.0) ** m)) / (m - 1.0)
