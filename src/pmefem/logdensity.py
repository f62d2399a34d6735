"""Semi-implicit log-density scheme with per-step Newton on a convex system.

The unknown is u = log(density) at mesh vertices.  Vertices where the
density vanishes are tracked with an explicit active mask instead of storing
-inf; their density contribution is exactly zero.  Each time step solves

    M (exp(u^n) - exp(u^{n-1})) + dt * A^{n-1} u^n = 0

on the active set, where M is the lumped mass and A^{n-1} the nonlinear
stiffness assembled from the previous iterate, restricted to the active
subgraph so that it moves no mass.  Degrees of freedom are (de)activated
inside every Newton iteration by a diagonal cutoff test, which is how the
free boundary advances through previously empty vertices.  The Newton
tolerance, NEWTON_RTOL shared with the mixed scheme, and the cutoff are
relative to the step's scale S = max(M exp(u^{n-1})), so a run from
lambda * rho0 with step lambda^(1-m) dt is lambda times the unit run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import assembly
from .assembly import (
    LINE_SEARCH_HALVINGS,
    NEWTON_RTOL,
    ROUNDOFF,
    SolverError,
    VertexGraph,
    spd_solve,
    stiffness_edge_based,
    stiffness_vertex_quadrature,
)
from .mesh import Mesh

log = logging.getLogger(__name__)

#: log value stored at inactive vertices (also the floor of the VTK export)
LOG_FLOOR = -50.0

#: a vertex is active while its Newton diagonal M e^u + dt A_ii exceeds CUTOFF * S
CUTOFF = 1e-14

VARIANTS = ("vertex", "edge")

#: Newton steps of ``row_solution``: enough for roundoff at every L in float range
ROW_NEWTON_STEPS = 6

#: ``newton_update`` puts a vertex lifted by more than this at its own row's root
ROW_LIFT = 0.1


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
    """Frozen data of one implicit step: lumped mass, the dt-scaled edge
    weights of the stiffness assembled from the previous solution, the
    previous density and the step's scale ``S = max(M e^{u_prev})``."""

    def __init__(self, state: LogDensityState, dt: float, variant: str = "vertex"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown stiffness variant {variant!r}")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.graph = graph = state.graph
        self.M = graph.lumped
        stiffness = stiffness_edge_based if variant == "edge" else stiffness_vertex_quadrature
        A = stiffness(graph, state.u, state.m, state.active)
        self.weights = -float(dt) * A.data[graph.upper]
        self.diag = float(dt) * A.diagonal()
        self.norm = float(dt) * A.norm_inf()  # ||dt A||_inf
        self.exp_prev = state.density()
        self.b = self.M * self.exp_prev
        self.S = float(np.max(self.b, initial=0.0))
        self._last = self._record = None
        self.halvings = self.corrected = 0  # over the step: line-search halvings, row-corrected vertices

    def operator(self, mask):
        """dt A on the subgraph of the masked vertices: every edge with an end
        outside the mask is dropped, so each row sums to zero and the
        operator moves no mass.  Built only when the mask differs from the
        previous call's; a read-only mask, as the record's are, is kept
        without a copy."""
        last = self._last
        if last is None or last[0] is not mask and not np.array_equal(last[0], mask):
            g = self.graph
            w = np.where(mask[g.ei] & mask[g.ej], self.weights, 0.0)
            last = self._last = (mask if not mask.flags.writeable else mask.copy(), g.laplacian(w).restrict(mask))
        return last[1]

    def record(self, u, active):
        """The record of the last iterate (u, active) asked for, keyed on the
        identity of both arrays, which it makes read-only: ``dens``, ``act``
        (the cutoff test on the Newton diagonal, ``active`` itself while
        stable), ``tol`` (NEWTON_RTOL * S, floored at the residual's
        roundoff) and, once needed by ``residual`` or ``functional``,
        ``Ku = K u[active]``, ``f`` and its roundoff ``slack``."""
        rec = self._record
        if rec is None or rec.u is not u or rec.active is not active:
            u.flags.writeable = active.flags.writeable = False
            dens = np.where(active, np.exp(u), 0.0)
            act = (self.M * dens + self.diag) > CUTOFF * self.S
            tol = max(NEWTON_RTOL * self.S, ROUNDOFF * (self.S + self.norm * np.max(np.abs(u[active]), initial=0.0)))
            rec = self._record = SimpleNamespace(u=u, active=active, dens=dens, tol=tol, f=None,
                                                 act=active if np.array_equal(act, active) else act)
            dens.flags.writeable = act.flags.writeable = False
        return rec

    def _evaluated(self, u, active):
        rec = self.record(u, active)
        if rec.f is None:
            ua = u[active]
            rec.Ku = self.operator(active) @ ua
            a, b, c = float(self.M[active] @ rec.dens[active]), float(ua @ self.b[active]), 0.5 * float(ua @ rec.Ku)
            # the roundoff of the mixed scheme's J, and its growth with ||dt A||_inf |u|^2 at large dt
            rec.f, rec.slack = a - b + c, ROUNDOFF * max(a + abs(b) + abs(c), self.norm * float(ua @ ua))
        return rec

    def residual(self, u, active):
        """Nonlinear residual restricted to the active set (u must carry
        values on every active vertex)."""
        rec = self._evaluated(u, active)
        return self.M[active] * (rec.dens[active] - self.exp_prev[active]) + rec.Ku

    def functional(self, u, active):
        """Convex step functional whose stationary point is the step solution."""
        return self._evaluated(u, active).f


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
    """One Newton iteration with activation bookkeeping, a row correction for
    the vertices the linear solve lifts by more than ROW_LIFT, and a
    backtracking line search on the step functional, which records the
    iterate it returns.  Returns (u_next, active_next)."""
    u = np.asarray(u, dtype=float)
    active = np.asarray(active, dtype=bool)
    rec = system.record(u, active)
    act, dens = rec.act, rec.dens
    if not act.any():
        raise SolverError("all degrees of freedom inactive")

    uz = np.where(active, u, 0.0)
    shift = (system.M * dens)[act]
    rhs = (system.M * (dens * uz - dens + system.exp_prev))[act]
    # the solve is for the next iterate itself: start PCG from the current
    # one, whose residual is the Newton residual, so the solve may be inexact
    K = system.operator(act)
    x = spd_solve(K, shift, rhs, uz[act], forcing=rec.tol)
    # row i of the solve is the tangent at u_i of the convex, increasing
    # M_i e^v + a_i v - c_i (a_i = K_ii, c_i = b_i - sum_{j != i} K_ij x_j), so
    # its root lies at or below x_i: a vertex lifted more than ROW_LIFT (every
    # fresh one) goes there, not down by at most one unit per iteration
    a = K.diagonal()
    up = (x - np.where(active, u, -np.inf)[act] > ROW_LIFT) & (a > 0)  # the closed form needs a > 0
    if up.any():
        idx = np.flatnonzero(act)[up]
        c = system.b[idx] - (K @ x - a * x)[up]
        x[up] = np.minimum(x[up], row_solution(system.M[idx], a[up], c))
        system.corrected += int(up.sum())

    # a freshly activated vertex has density 0 in the incoming iterate, u = -inf,
    # where the functional is +inf: the line search takes the full step x
    bound = np.inf if (act & ~active).any() else system.functional(u, act) + system.record(u, act).slack
    step = x - u[act]
    for k in range(LINE_SEARCH_HALVINGS):
        cand = np.full_like(u, LOG_FLOOR)
        cand[act] = x - (1.0 - 0.5**k) * step
        if system.functional(cand, act) <= bound:
            system.halvings += k
            return cand, act
    raise SolverError(f"line search exhausted {LINE_SEARCH_HALVINGS} halvings")


def step_logdensity(state: LogDensityState, dt, variant: str = "vertex") -> LogDensityState:
    """Advance one implicit step with at most NEWTON_MAXITER Newton iterations.
    The step is accepted once the active set is stable and the residual is
    within the tolerance; then u is shifted on the active set by the constant
    c, of the size of the tolerance, that makes the lumped mass equal the
    previous step's (logged at DEBUG with the step's Newton iterations,
    line-search halvings and row-corrected vertices)."""
    system = StepSystem(state, dt, variant)
    u, active = state.u.copy(), state.active.copy()

    def context():  # the tail of a failure message
        res = np.max(np.abs(system.residual(u, active)), initial=0.0)
        return f"residual {res:.3e} on {active.sum()} active vertices"

    for k in range(assembly.NEWTON_MAXITER + 1):
        rec = system.record(u, active)
        if rec.act is active and np.max(np.abs(system.residual(u, active)), initial=0.0) <= rec.tol:
            mass = float(np.sum(system.M * rec.dens))
            c = float(np.log(np.sum(system.b) / mass)) if mass else 0.0  # an empty state stays empty
            log.debug("log-density step to t=%g: mass correction c=%.3e after %d Newton iterations, "
                      "%d line-search halvings, %d row-corrected vertices",
                      state.time + float(dt), c, k, system.halvings, system.corrected)
            return replace(state, u=np.where(active, u + c, u), active=active, time=state.time + float(dt))
        if k < assembly.NEWTON_MAXITER:
            try:
                u, active = newton_update(system, u, active)
            except SolverError as exc:
                raise type(exc)(f"log-density Newton iteration {k + 1}: {exc}; {context()}") from exc
    raise SolverError(f"log-density Newton did not converge in {k} iterations: {context()}")


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
