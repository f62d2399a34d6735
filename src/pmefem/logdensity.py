"""Semi-implicit log-density scheme with per-step Newton on a convex system.

The unknown is u = log(density) at mesh vertices.  Vertices where the
density vanishes are tracked with an explicit active mask instead of storing
-inf; their density contribution is exactly zero.  Each time step solves

    M (exp(u^n) - exp(u^{n-1})) + dt * A^{n-1} u^n = 0

on the active set, where M is the lumped mass and A^{n-1} the nonlinear
stiffness assembled from the previous iterate.  Degrees of freedom are
(de)activated inside every Newton iteration by a diagonal cutoff test, which
is how the free boundary advances through previously empty vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (
    NEWTON_TOL,
    SolverError,
    VertexGraph,
    spd_solve,
    stiffness_edge_based,
    stiffness_vertex_quadrature,
)
from .mesh import Mesh

#: log value stored at inactive vertices (also the floor of the VTK export)
LOG_FLOOR = -50.0

#: a vertex is active while its Newton diagonal M e^u + dt A_ii exceeds this
CUTOFF = 1e-14

VARIANTS = ("vertex", "edge")

#: backtracking halvings allowed in one Newton line search
LINE_SEARCH_HALVINGS = 50

#: Newton steps of ``row_solution``: enough for roundoff at every L in float range
ROW_NEWTON_STEPS = 6


@dataclass(frozen=True)
class LogDensityState:
    """Nodal log-density with its active mask; density is exp(u) where
    active and exactly 0 elsewhere.  ``graph`` is the mesh's vertex graph
    with its lumped mass, built by :func:`init_log_state` and passed on by
    every step."""

    mesh: Mesh
    m: float
    u: np.ndarray
    active: np.ndarray
    graph: VertexGraph = field(repr=False)
    time: float = 0.0

    def density(self) -> np.ndarray:
        return np.where(self.active, np.exp(self.u), 0.0)

    def total_mass(self) -> float:
        return float(self.graph.lumped @ self.density())


def init_log_state(mesh: Mesh, rho0, m) -> LogDensityState:
    """Interpolate pointwise initial density at the vertices.  Vertices with
    exactly zero density start inactive; any positive value, however small,
    stays active (no premature cutoff at initialization)."""
    rho = np.asarray(rho0(mesh.vertices), dtype=float)
    if rho.shape != (mesh.n_vertices,):
        raise ValueError("initial density must return one value per vertex")
    if np.any(rho < 0):
        raise ValueError("initial density must be nonnegative")
    active = rho > 0
    u = np.full(mesh.n_vertices, LOG_FLOOR)
    u[active] = np.log(rho[active])
    return LogDensityState(mesh=mesh, m=float(m), u=u, active=active, graph=VertexGraph(mesh))


class StepSystem:
    """Frozen data of one implicit step: lumped mass, the stiffness assembled
    from the previous solution, and the previous density."""

    def __init__(self, state: LogDensityState, dt: float, variant: str = "vertex"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown stiffness variant {variant!r}")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        self.M = state.graph.lumped
        stiffness = stiffness_edge_based if variant == "edge" else stiffness_vertex_quadrature
        self.A = stiffness(state.graph, state.u, state.m, state.active)
        self.dtA = self.A.scaled(self.dt)
        self.exp_prev = state.density()
        self.b = self.M * self.exp_prev
        self.diag = self.dtA.diagonal()

    def activation_mask(self, u, active):
        """Per-iteration cutoff test on the Newton system diagonal."""
        dens = np.where(active, np.exp(u), 0.0)
        return (self.M * dens + self.diag) > CUTOFF

    def residual(self, u, active):
        """Nonlinear residual restricted to the active set (u must carry
        values on every active vertex)."""
        dens = np.where(active, np.exp(u), 0.0)
        uz = np.where(active, u, 0.0)
        r = self.M * (dens - self.exp_prev) + self.dt * (self.A @ uz)
        return r[active]

    def functional(self, u, active):
        """Convex step functional whose stationary point is the step solution."""
        dens = np.where(active, np.exp(u), 0.0)
        uz = np.where(active, u, 0.0)
        return float(self.M @ dens - uz @ self.b + 0.5 * self.dt * (uz @ (self.A @ uz)))


def row_solution(M, a, c):
    """Solution v of M e^v + a v = c for M, a > 0, elementwise.

    v = c/a - W((M/a) e^{c/a}) with W the Lambert function, evaluated as
    v = log W - log(M/a), which is free of cancellation when c/a is large.
    t = log W solves e^t + t = L with L = log(M/a) + c/a; Newton on this
    convex increasing function from a start to the right of the root
    decreases monotonically and quadratically to it."""
    log_ratio = np.log(M) - np.log(a)
    L = log_ratio + c / a
    t = np.where(L > 1.0, np.log(np.maximum(L, 1.0)), L)
    for _ in range(ROW_NEWTON_STEPS):
        e = np.exp(t)
        t = t - (e + t - L) / (e + 1.0)
    return t - log_ratio


def newton_update(system: StepSystem, u, active):
    """One Newton iteration with activation bookkeeping, a row predictor for
    the vertices the linear solve lifts by more than one log-unit, and a
    backtracking line search on the step functional.  Returns
    (u_next, active_next)."""
    u = np.asarray(u, dtype=float)
    active = np.asarray(active, dtype=bool)
    act = system.activation_mask(u, active)
    if not act.any():
        raise SolverError("all degrees of freedom inactive")
    fresh = act & ~active

    dens = np.where(active, np.exp(u), 0.0)
    uz = np.where(active, u, 0.0)
    shift = (system.M * dens)[act]
    rhs = (system.M * (dens * uz - dens + system.exp_prev))[act]
    # the solve is for the next iterate itself: start PCG from the current one
    x = spd_solve(system.dtA.restrict(act), shift, rhs, uz[act])
    # a vertex lifted by more than one log-unit (every fresh vertex) would
    # come back down by only one per iteration on M exp(u): put it at the
    # exact solution of its own row M e^v + a v = c, with the neighbours at
    # x and c read off the solved linear row, where that lies lower
    a = system.diag[act]
    up = (x - np.where(active, u, -np.inf)[act] > 1.0) & (a > 0)  # the closed form needs a > 0
    if up.any():
        idx = np.flatnonzero(act)[up]
        c = system.M[idx] * dens[idx] * (x[up] - uz[idx] + 1.0) + a[up] * x[up]
        x[up] = np.minimum(x[up], row_solution(system.M[idx], a[up], c))

    u_full = np.full_like(u, LOG_FLOOR)
    u_full[act] = x
    if fresh.any():
        # freshly activated vertices have no previous value: the functional at
        # the incoming iterate is +inf there, so the full step always decreases
        return u_full, act

    f0 = system.functional(u, act)
    step = u_full[act] - u[act]
    lam = 1.0
    for _ in range(LINE_SEARCH_HALVINGS):
        cand = np.full_like(u, LOG_FLOOR)
        cand[act] = u[act] + lam * step
        if system.functional(cand, act) <= f0 + 1e-12 * max(1.0, abs(f0)):
            return cand, act
        lam *= 0.5
    raise SolverError(f"line search exhausted {LINE_SEARCH_HALVINGS} halvings")


def step_logdensity(state: LogDensityState, dt, variant: str = "vertex",
                    max_iter: int = 50) -> LogDensityState:
    """Advance one implicit step with at most ``max_iter`` Newton iterations
    to the tolerance and one more that polishes.  The lumped mass of the
    density is conserved up to the Newton tolerance; uniform states are
    returned unchanged."""
    system = StepSystem(state, dt, variant)
    u, active = state.u.copy(), state.active.copy()
    polish = False
    for k in range(max_iter + 2):
        act_now = system.activation_mask(u, active)
        if np.array_equal(act_now, active):
            if polish:
                return replace(state, u=u, active=active, time=state.time + float(dt))
            if np.max(np.abs(system.residual(u, active)), initial=0.0) <= NEWTON_TOL:
                if k == 0:
                    # already a solution (e.g. a uniform state): leave untouched
                    return replace(state, u=u, active=active, time=state.time + float(dt))
                # one more iteration drives the residual far below the
                # tolerance, keeping the per-run mass drift negligible
                polish = True
        if k > max_iter:
            break
        u, active = newton_update(system, u, active)
    res = np.max(np.abs(system.residual(u, active)), initial=0.0)
    raise SolverError(f"log-density Newton did not converge in {k} iterations: "
                      f"residual {res:.3e} on {active.sum()} active vertices")


def entropy_energy(state: LogDensityState) -> float:
    """Lumped integral of density*(log(density)-1); inactive vertices
    contribute the x*log(x) -> 0 limit."""
    act = state.active
    return float(np.sum(state.graph.lumped[act] * np.exp(state.u[act]) * (state.u[act] - 1.0)))


def bounds(state: LogDensityState):
    """(min, max) of the density over active vertices; (0, 0) if none is."""
    if not state.active.any():
        return 0.0, 0.0
    dens = np.exp(state.u[state.active])
    return float(dens.min()), float(dens.max())
