"""Experiment drivers: time loops, region-restricted L2 errors, convergence
studies, and CSV/VTK output."""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import logdensity as ld
from . import mixed as mx
from .assembly import SolverError
from .mesh import (
    INTERVAL,
    QUAD,
    TRIANGLE,
    Mesh,
    MeshError,
    build_structured_mesh,
    compute_edge_geometry,
    write_rows,
)
from .problems import COMPACTLY_SUPPORTED, PROBLEM_NAMES, ProblemSpec, get_problem

SCHEMES = ("logdensity", "mixed")


class ConfigError(ValueError):
    """Bad run configuration."""


@dataclass(frozen=True)
class RunConfig:
    scheme: str
    problem: str
    m: float
    dt: float
    T: float
    mesh_kind: str = ""
    counts: tuple = ()
    domain: tuple = ()
    variant: str = "vertex"          # log-density stiffness variant
    s0: Optional[float] = None
    theta: float = 0.0
    levels: int = 4
    output: str = ""
    built_mesh: Optional[Mesh] = field(default=None, compare=False, repr=False)  # run_simulation's mesh, if given


@dataclass
class TimeSeriesRecord:
    step: int
    time: float
    mass: float
    energy: float
    min_density: float
    max_density: float
    tracked_density: Optional[float] = None
    cfl_bound: Optional[float] = None


@dataclass
class ConvergenceRow:
    level: int
    N: str
    dt: float
    error_inner: float
    order_inner: Optional[float]
    error_full: float
    order_full: Optional[float]


# ---------------------------------------------------------------------------
# configuration parsing

def _parse_counts(text):
    parts = text.lower().replace("x", " ").split()
    return tuple(int(p) for p in parts)


def _parse_domain(text):
    vals = [float(v) for v in text.split()]
    if len(vals) == 2:
        return (vals[0], vals[1])
    if len(vals) == 4:
        return ((vals[0], vals[1]), (vals[2], vals[3]))
    raise ConfigError("domain needs 2 (1D) or 4 (2D) numbers")


_KEY_PARSERS = {
    "scheme": str,
    "problem": str,
    "m": float,
    "dt": float,
    "T": float,
    "mesh": str,
    "n": _parse_counts,
    "domain": _parse_domain,
    "variant": str,
    "s0": float,
    "theta": float,
    "levels": int,
    "output": str,
}

_REQUIRED = ("scheme", "problem", "m", "dt", "T")


def parse_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Read a line-oriented `key = value` file (``#`` comments, each key at
    most once) and return a fully validated configuration with defaults
    applied.  ``overrides`` maps key strings to value strings and wins over
    file entries."""
    raw: dict[str, str] = {}
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: key {key!r} already given on line {seen[key]}")
            raw[key], seen[key] = value, lineno
    raw.update(overrides or {})
    return config_from_strings(raw)


def config_from_strings(raw: dict) -> RunConfig:
    values = {}
    for key, text in raw.items():
        parser = _KEY_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = parser(str(text))
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r}") from exc
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if values["scheme"] == "mixed" and "variant" in values:
        raise ConfigError("'variant' applies to the log-density scheme only")
    if "s0" in values and not values["problem"].startswith("barenblatt"):
        raise ConfigError("'s0' applies to the Barenblatt problems only")
    if "theta" in values and values["problem"] != "waiting":
        raise ConfigError("'theta' applies to the waiting problem only")

    rename = {"mesh": "mesh_kind", "n": "counts"}
    return validate_config(RunConfig(**{rename.get(key, key): val for key, val in values.items()}))


def validate_config(cfg: RunConfig) -> RunConfig:
    """Check ``cfg`` and return a copy with the problem's defaults filled in
    for the mesh kind, counts and domain it leaves empty."""
    if cfg.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {cfg.scheme!r}; choose from {SCHEMES}")
    if cfg.problem not in PROBLEM_NAMES:
        raise ConfigError(f"unknown problem {cfg.problem!r}; choose from {PROBLEM_NAMES}")
    for key, value in (("m", cfg.m), ("dt", cfg.dt), ("T", cfg.T), ("domain", cfg.domain)):
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"{key} must be finite, got {value}")
    if cfg.m <= 1:
        raise ConfigError("m must be > 1 (m = 1 is the heat equation, not supported)")
    if cfg.dt <= 0:
        raise ConfigError("dt must be positive")
    if cfg.T < cfg.dt:
        raise ConfigError("final time must be at least dt")
    if cfg.variant not in ld.VARIANTS:
        raise ConfigError(f"unknown stiffness variant {cfg.variant!r}")
    if cfg.levels < 1:
        raise ConfigError("levels must be >= 1")
    if cfg.problem == "waiting" and not 0.0 <= cfg.theta <= 1.0:
        raise ConfigError("theta must lie in [0, 1]")
    if cfg.s0 is not None and not 0.0 < cfg.s0 < math.inf:
        raise ConfigError("s0 must be positive and finite")
    out_dir = os.path.dirname(cfg.output)
    if cfg.output and not os.path.isdir(out_dir or os.curdir):
        raise ConfigError(f"output directory {out_dir!r} does not exist")

    problem = get_problem(cfg.problem, cfg.m, cfg.s0, cfg.theta)
    cfg = replace(cfg, mesh_kind=cfg.mesh_kind or problem.default_mesh,
                  counts=cfg.counts or problem.default_counts, domain=cfg.domain or problem.domain)
    kind_dim = 1 if cfg.mesh_kind == INTERVAL else 2
    if kind_dim != problem.dim:
        raise ConfigError(f"mesh kind {cfg.mesh_kind!r} has dimension {kind_dim}, "
                          f"problem {cfg.problem!r} needs {problem.dim}")
    if len(cfg.counts) != problem.dim:
        raise ConfigError(f"n needs {problem.dim} cell counts, got {cfg.counts}")
    if min(cfg.counts) < 1:
        raise ConfigError(f"n needs cell counts >= 1, got {cfg.counts}")
    box = np.reshape(cfg.domain, (-1, 2))
    if len(box) != problem.dim:
        raise ConfigError(f"domain {cfg.domain} has {len(box)} axes, problem {cfg.problem!r} needs {problem.dim}")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ConfigError(f"domain {cfg.domain} needs lo < hi on every axis")
    if cfg.scheme == "mixed" and cfg.mesh_kind == TRIANGLE:
        raise ConfigError("the mixed scheme needs strictly Delaunay faces: use mesh = "
                          "acute_triangle (the 'triangle' split has right angles)")
    if cfg.scheme == "logdensity" and cfg.variant == "edge" and cfg.mesh_kind == QUAD:
        raise ConfigError("the edge variant is simplex-only: use variant = vertex on quads")
    if cfg.scheme == "logdensity" and cfg.variant == "edge" and cfg.problem in COMPACTLY_SUPPORTED:
        raise ConfigError(f"the edge variant freezes the support of problem {cfg.problem!r}: its "
                          "coefficient is 0 on every edge with an inactive end, so no vertex activates; "
                          "use variant = vertex")
    return cfg


# ---------------------------------------------------------------------------
# region-restricted L2 errors

def _quadrature_tables():
    """Reference rules, one per cell kind: the basis values phi (q, k) at the
    quadrature points and weights w (q,) that sum to 1.  A cell's points are
    phi @ (its vertices) and its weights |K| w.  Gauss-Legendre with 3
    points per axis on intervals and axis-aligned quads (nodes CCW from the
    lower-left corner), the 6-point degree-4 rule on triangles."""
    s = 0.5 + np.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])
    w = np.array([5.0, 8.0, 5.0]) / 18.0
    S, T = (a.ravel() for a in np.meshgrid(s, s, indexing="ij"))
    bilinear = np.column_stack([(1 - S) * (1 - T), S * (1 - T), S * T, (1 - S) * T])
    tri = []
    for a, wt in ((0.445948490915965, 0.223381589678011), (0.091576213509771, 0.109951743655322)):
        b = 1.0 - 2.0 * a
        tri += [(a, a, b, wt), (a, b, a, wt), (b, a, a, wt)]
    tri = np.array(tri)
    return {
        INTERVAL: (np.column_stack([1 - s, s]), w),
        QUAD: (bilinear, np.outer(w, w).ravel()),
        TRIANGLE: (tri[:, :3], tri[:, 3]),
    }


_QUADRATURE = _quadrature_tables()


def _region_mask(mesh: Mesh, region):
    """Cells whose barycenter lies in the closed box."""
    box = np.asarray(region, dtype=float).reshape(-1, 2)
    if box.shape[0] != mesh.dim:
        raise ValueError("region dimension does not match the mesh")
    if np.any(box[:, 1] < box[:, 0]):
        raise ValueError("empty region")
    bary = mesh.cell_barycenters()
    mask = np.ones(mesh.n_cells, dtype=bool)
    for d in range(mesh.dim):
        mask &= (bary[:, d] >= box[d, 0]) & (bary[:, d] <= box[d, 1])
    return mask


def l2_error(state, exact, region) -> float:
    """L2 distance between the discrete density and ``exact`` over the cells
    whose barycenter lies in the closed box ``region``.  The log-density is
    interpolated in u and exponentiated; cells touching an inactive vertex
    are zero in the exp(-inf) limit."""
    mesh = state.mesh
    mask = _region_mask(mesh, region)
    if not mask.any():
        raise ValueError("empty region")
    phi, w = _QUADRATURE[mesh.cell_kind]
    cells = mesh.cells[mask]
    points = phi @ mesh.vertices[cells]
    if isinstance(state, mx.MixedState):
        vals = state.rho[mask, None]
    else:
        full = state.active[cells].all(axis=1)
        vals = np.zeros((len(cells), len(w)))
        vals[full] = np.exp(state.u[cells[full]] @ phi.T)
    ex = np.asarray(exact(points.reshape(-1, mesh.dim)), dtype=float).reshape(len(cells), len(w))
    return float(np.sqrt(np.sum(mesh.cell_volumes[mask, None] * w * (vals - ex) ** 2)))


def convergence_order(errors):
    """Per-level orders log(e_{l-1}/e_l)/log(2); None for the first level
    and for levels following an exactly zero error."""
    errors = list(errors)
    if len(errors) < 1:
        raise ValueError("need at least one error")
    orders = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev <= 0 or cur <= 0:
            orders.append(None)
        else:
            orders.append(math.log(prev / cur) / math.log(2.0))
    return orders


# ---------------------------------------------------------------------------
# simulation driver

def tracked_index(problem: ProblemSpec, mesh: Mesh, scheme: str):
    """Vertex (log-density) or cell (mixed) used to monitor the interface in
    waiting-time runs; ties between two cells break toward the outside."""
    x0 = problem.interface
    if x0 is None:
        return None
    if scheme == "logdensity":
        return int(np.argmin(np.abs(mesh.vertices[:, 0] - x0)))
    bary = mesh.cell_barycenters()[:, 0]
    dist = np.abs(bary - x0)
    best = dist.min()
    candidates = np.flatnonzero(dist <= best * (1 + 1e-12) + 1e-300)
    return int(candidates[np.argmax(bary[candidates])])


def _record(cfg, state, step, tracked):
    """One time-series record; a mixed state adds the paper's post hoc CFL
    bound of its step, a diagnostic."""
    cfl_bound = None
    if cfg.scheme == "logdensity":
        energy, (lo, hi) = ld.entropy_energy(state), ld.bounds(state)
        density = state.density
    else:
        energy, lo, hi = mx.physical_energy(state), float(state.rho.min()), float(state.rho.max())
        density = lambda: state.rho
        cfl_bound = mx.cfl_max_dt(state)[1]
    return TimeSeriesRecord(
        step=step,
        time=state.time,
        mass=state.total_mass(),
        energy=energy,
        min_density=lo,
        max_density=hi,
        tracked_density=None if tracked is None else float(density()[tracked]),
        cfl_bound=cfl_bound,
    )


def run_simulation(cfg: RunConfig):
    """March the configured scheme to the final time with uniform steps (one
    shortened final step hits T exactly).  Returns the final state and one
    record per step.  A failed step raises with its step index and time: a
    SolverError or MeshError as the same type, anything else as a
    RuntimeError, chained to the original."""
    cfg = validate_config(cfg)
    problem = get_problem(cfg.problem, cfg.m, cfg.s0, cfg.theta)
    mesh = cfg.built_mesh or build_structured_mesh(cfg.mesh_kind, cfg.domain, cfg.counts)
    if cfg.scheme == "logdensity":
        state = ld.init_log_state(mesh, problem.rho0, cfg.m)
    else:
        state = mx.init_mixed_state(mesh, problem.rho0, cfg.m, compute_edge_geometry(mesh))
    tracked = tracked_index(problem, mesh, cfg.scheme)

    records = []
    eps = 1e-12 * max(cfg.T, 1.0)
    while cfg.T - state.time > eps:
        dt = min(cfg.dt, cfg.T - state.time)
        try:
            if cfg.scheme == "logdensity":
                state = ld.step_logdensity(state, dt, cfg.variant)
            else:
                state = mx.step_mixed(state, dt)
        except Exception as exc:
            kind = type(exc) if isinstance(exc, (SolverError, MeshError)) else RuntimeError
            raise kind(f"step {len(records) + 1} (t={state.time + dt:g}) failed: {exc}") from exc
        records.append(_record(cfg, state, len(records) + 1, tracked))
    return state, records


# ---------------------------------------------------------------------------
# convergence studies

def _level_config(cfg: RunConfig, level: int) -> RunConfig:
    counts = tuple(c * 2**level for c in cfg.counts)
    refine = 4.0 if cfg.scheme == "logdensity" else 2.0
    return replace(cfg, counts=counts, dt=cfg.dt / refine**level, output="",
                   built_mesh=build_structured_mesh(cfg.mesh_kind, cfg.domain, counts))


def run_convergence(cfg: RunConfig):
    """Refinement study over ``cfg.levels`` levels: counts double per level;
    dt shrinks by 4 per level for the log-density scheme and by 2 for the
    mixed scheme.  Errors are measured at the final time in the problem's
    inner region and over the run's domain.  The levels run one after
    another on the calling thread, so a failed level stops the study."""
    cfg = validate_config(cfg)
    problem = get_problem(cfg.problem, cfg.m, cfg.s0, cfg.theta)
    if problem.exact is None:
        raise ConfigError(f"problem {cfg.problem!r} has no exact solution for error studies")
    inner = problem.inner_region
    lcfgs = [_level_config(cfg, level) for level in range(cfg.levels)]
    for level, lcfg in enumerate(lcfgs):  # l2_error's region rule, before any level runs
        if not _region_mask(lcfg.built_mesh, inner).any():
            raise ConfigError(f"domain {cfg.domain} puts no cell barycenter in the inner region {inner} "
                              f"of problem {cfg.problem!r} at level {level}")

    exact = lambda pts: problem.exact(pts, cfg.T)
    e_inner, e_full = [], []
    for lcfg in lcfgs:
        state, _ = run_simulation(lcfg)
        e_inner.append(l2_error(state, exact, inner))
        e_full.append(l2_error(state, exact, lcfg.domain))
    o_inner, o_full = convergence_order(e_inner), convergence_order(e_full)
    return [ConvergenceRow(level=lvl, N="x".join(str(c) for c in lcfg.counts), dt=lcfg.dt,
                           error_inner=e_inner[lvl], order_inner=o_inner[lvl],
                           error_full=e_full[lvl], order_full=o_full[lvl])
            for lvl, lcfg in enumerate(lcfgs)]


# ---------------------------------------------------------------------------
# output writers

TIMESERIES_HEADER = ",".join(f.name for f in fields(TimeSeriesRecord))
CONVERGENCE_HEADER = ",".join(f.name for f in fields(ConvergenceRow))


def _write_csv(header, records, path):
    """One line per record, its fields in order: None as empty, strings as
    they are, numbers as %.17g."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for r in records:
            f.write(",".join("" if x is None else x if isinstance(x, str) else "%.17g" % x
                             for x in astuple(r)) + "\n")


def write_timeseries_csv(records, path):
    _write_csv(TIMESERIES_HEADER, records, path)


def write_convergence_csv(rows, path):
    _write_csv(CONVERGENCE_HEADER, rows, path)


_VTK_CELL_TYPES = {INTERVAL: 3, TRIANGLE: 5, QUAD: 9}


def write_vtk(state, path, title="pmefem output"):
    """Legacy ASCII VTK unstructured grid.  Log-density states write nodal
    density and log-density floored at LOG_FLOOR; mixed states write cell
    density and potential."""
    mesh = state.mesh
    nloc = mesh.cells.shape[1]
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# vtk DataFile Version 2.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_vertices} double\n")
        write_rows(f, mesh.vertices, " ".join(["%.17g"] * mesh.dim + ["0"] * (3 - mesh.dim)) + "\n")
        f.write(f"CELLS {mesh.n_cells} {mesh.n_cells * (nloc + 1)}\n")
        write_rows(f, mesh.cells, " ".join([str(nloc)] + ["%d"] * nloc) + "\n")
        f.write(f"CELL_TYPES {mesh.n_cells}\n")
        f.write(f"{_VTK_CELL_TYPES[mesh.cell_kind]}\n" * mesh.n_cells)
        if isinstance(state, mx.MixedState):
            f.write(f"CELL_DATA {mesh.n_cells}\n")
            scalars = {"density": state.rho, "potential": state.potential()}
        else:
            f.write(f"POINT_DATA {mesh.n_vertices}\n")
            # the floored log-density is built after the density and in one
            # array, so at most two whole-array fields are alive at once
            density = state.density()
            floored = np.maximum(state.u, ld.LOG_FLOOR, out=np.full(mesh.n_vertices, ld.LOG_FLOOR),
                                 where=state.active)
            scalars = {"density": density, "log_density": floored}
        for name, values in scalars.items():
            f.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
            write_rows(f, values, "%.17g\n")
