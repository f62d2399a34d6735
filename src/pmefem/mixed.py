"""Mixed scheme: piecewise-constant density and potential with two-point face fluxes.

Static condensation with a lumped velocity mass turns the velocity equation
into a per-face two-point formula, so each time step reduces to a nonlinear
system for the cell densities alone:

    |K| (rho_K^n - rho_K^{n-1}) + dt * sum_E rhohat_E F_E^n (n_E . n_K) = 0

with the flux F_E = |E| u.n_E = (mu_K1 - mu_K2) / omega_E, omega_E = d_E/|E|,
mu = m/(m-1) rho^{m-1}, and rhohat the previous density upwinded by the
sign of F_E.  Its left side is the gradient in mu of the convex, C^1 functional

    J(mu) = sum_K |K| (rho_K^m - rho_K^{n-1} mu_K) + dt/2 sum_E rhohat_E F_E^2 omega_E.

Newton steps are taken with frozen upwind directions.  Their Jacobian V + L D
(V = diag|K|, L the graph Laplacian of the face weights dt rhat / omega_E,
D = diag(dmu/drho)) is an SPD matrix times a diagonal, so the shared SPD
solve gives y = D delta, the Newton step of J in mu (V/D + L is J's
generalized Hessian).  The update of rho is kept when it meets the tolerance
or lowers J by more than J's roundoff; else y is halved until J does not rise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import assembly
from .assembly import LINE_SEARCH_HALVINGS, NEWTON_RTOL, ROUNDOFF, GraphOperator, SolverError
from .assembly import spd_solve as spsolve
from .mesh import Mesh, MeshError, is_delaunay

log = logging.getLogger(__name__)


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
    """d(mu)/d(rho) = m rho^{m-2}, at rho clamped at 0, or for m < 2 at 1e-12."""
    return m * np.maximum(rho, 0.0 if m >= 2.0 else 1e-12) ** (m - 2.0)


def _newton_update(lap, dmu, vol, r, coupled, forcing=None):
    """delta with (V + L D) delta = -r: y = D delta solves (V/D + L) y = -r on the
    ``coupled`` cells, those where D_k L_kk is above roundoff of |K|; the
    others take (-r - L y) / |K|.  The solve starts from 0, so a Newton
    tolerance ``forcing`` makes it inexact relative to the coupled part of r
    (see ``spd_solve``)."""
    y = np.zeros(len(vol))
    if coupled.any():
        y[coupled] = spsolve(lap.restrict(coupled), vol[coupled] / dmu[coupled], -r[coupled],
                             np.zeros(coupled.sum()), forcing=forcing)
    delta = (-r - lap @ y) / vol
    delta[coupled] = y[coupled] / dmu[coupled]
    return delta


def step_mixed(state: MixedState, dt) -> MixedState:
    """Advance one implicit step with at most NEWTON_MAXITER Newton updates
    from max(rho + dt * rate, 0), or from rho for a state without a rate;
    each update lowers J, its step in mu halved at most LINE_SEARCH_HALVINGS
    times.  Cell mass balances hold to NEWTON_RTOL max |K| rho_prev, floored
    at the residual's roundoff; the accepted density is clipped at 0, within
    that tolerance, and scaled by M(rho_prev)/M(rho) to the previous step's
    mass (logged at DEBUG with the Newton iterations, halvings and steps in
    mu).  Uniform states without a rate are returned unchanged."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dt = float(dt)
    mesh, m, graph = state.mesh, state.m, state.graph
    k1, k2 = graph.k1, graph.k2
    n, vol = mesh.n_cells, mesh.cell_volumes
    rho_prev = state.rho
    # roundoff of the residual: max |K| rho_prev plus ||L_g||_inf max mu, with
    # ||L_g||_inf <= 2 dt max(rho_prev) (faces per cell) / min(omega)
    scale = float(np.max(vol * rho_prev, initial=0.0))
    lap_norm = 2.0 * dt * float(np.max(rho_prev, initial=0.0)) * mesh.cells.shape[1]
    lap_norm /= np.min(graph.omega, initial=np.inf)

    def iterate(rho):
        """rho with mu, rhat, r = grad J, its max-norm and tolerance, and J with its roundoff."""
        mu = potential_from_density(rho, m)
        flux = graph.flux(mu)
        rhat = np.where(flux >= 0, rho_prev[k1], rho_prev[k2])
        f = dt * (rhat * flux)
        r = vol * (rho - rho_prev) + np.bincount(k1, f, n) - np.bincount(k2, f, n)
        a, b = (1.0 - 1.0 / m) * float(rho @ (vol * mu)), float(rho_prev @ (vol * mu))  # rho^m = (m-1)/m rho mu
        faces = 0.5 * float((f * flux) @ graph.omega)  # J's face sum is f_E d_E / 2 >= 0, d_E = omega_E flux_E
        return SimpleNamespace(rho=rho, mu=mu, rhat=rhat, r=r, res=float(np.max(np.abs(r))),
                               tol=max(NEWTON_RTOL * scale, ROUNDOFF * (scale + lap_norm * mu.max())),
                               J=a - b + faces, slack=ROUNDOFF * (a + b + faces))

    def context():  # the tail of a failure message
        return f"residual {cur.res:.3e} on {coupled.sum()} coupled cells"

    cur = iterate(rho_prev if state.rate is None else np.maximum(rho_prev + dt * state.rate, 0.0))
    halvings = mu_steps = 0
    for it in range(assembly.NEWTON_MAXITER + 1):
        if cur.res <= cur.tol:
            rho = np.maximum(cur.rho, 0.0)  # slack: a cell below 0 has only inflow, so |K| rho_K >= -tol
            factor = float(vol @ rho_prev) / float(vol @ rho) if rho_prev.any() else 1.0  # empty stays empty
            log.debug("mixed step to t=%g: mass scaling factor f - 1 = %.3e after %d Newton iterations, %d "
                      "line-search halvings, %d steps in mu", state.time + dt, factor - 1.0, it, halvings, mu_steps)
            rho = factor * rho
            return replace(state, rho=rho, time=state.time + dt, rate=(rho - rho_prev) / dt)
        g = dt * cur.rhat / graph.omega
        dmu, lap = _dmu(cur.rho, m), graph.laplacian(np.bincount(graph.pair_edge, g, graph.n_edges))
        coupled = dmu * lap.diagonal() > 2.0**-52 * vol
        if it == assembly.NEWTON_MAXITER:
            raise SolverError(f"mixed Newton did not converge in {it} iterations: {context()}")
        try:
            delta = _newton_update(lap, dmu, vol, cur.r, coupled, forcing=cur.tol)
            new = iterate(cur.rho + delta)
            if not (new.J < cur.J - cur.slack or new.res <= new.tol):  # J's change is roundoff at convergence
                y, free, diag = dmu[coupled] * delta[coupled], ~coupled & (lap.diagonal() > 0), lap.diagonal()
                for k in range(LINE_SEARCH_HALVINGS):
                    rho = cur.rho + 0.5**k * delta
                    rho[coupled] = ((m - 1.0) / m * np.maximum(cur.mu[coupled] + 0.5**k * y, 0.0)) ** (1.0 / (m - 1.0))
                    # an uncoupled fed row ignores its own mu: cap rho by the roots of |K| rho = t and a mu(rho) = t
                    t = np.maximum(vol * rho + diag * cur.mu, 0.0)[free]
                    rho[free] = np.minimum(t / vol[free], ((m - 1.0) / m * t / diag[free]) ** (1.0 / (m - 1.0)))
                    new = iterate(rho)
                    if new.J <= cur.J + cur.slack:
                        break
                else:
                    raise SolverError(f"line search exhausted {LINE_SEARCH_HALVINGS} halvings")
                halvings, mu_steps = halvings + k, mu_steps + 1
        except SolverError as exc:
            raise type(exc)(f"mixed Newton iteration {it + 1}: {exc}; {context()}") from exc
        cur = new


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
