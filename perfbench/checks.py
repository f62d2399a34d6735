"""Correctness checks on each benchmark operation.

The checks test properties the schemes must have and numbers computed outside
pmefem: mass is recomputed here with a plain cell-area quadrature (vertex
weights |K|/(vertices per cell) for the P1 log-density scheme, cell areas for
the mixed scheme), and the refinement studies are compared with the paper's
table.  Nothing is compared with a stored copy of earlier output.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import math

import numpy as np

MASS_RTOL = 1e-9
ROUNDOFF = 1e-12          # relative slack for "never increases"
POSITIVITY_FLOOR = -1e-12

# inner-region L2 errors of the paper's 1D Barenblatt table, m = 2, 100..800 cells
PAPER_ERRORS = {
    "logdensity": (1.19e-1, 3.04e-2, 7.57e-3, 1.88e-3),
    "mixed": (4.53e-2, 2.27e-2, 1.13e-2, 5.67e-3),
}
ORDER_RANGE = {"logdensity": (1.7, 2.3), "mixed": (0.85, 1.15)}


# ---------------------------------------------------------------------------
# readers for the program's output files

def read_timeseries(path):
    """Columns of a `_timeseries.csv` as float arrays (empty fields are nan)."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return {k: np.array([float(r[k]) if r[k] else math.nan for r in rows]) for k in rows[0]} if rows else {}


def read_convergence(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def read_vtk(path):
    """Points, cells and the first scalar field of a legacy ASCII VTK file."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    i = 0
    points = cells = field = None
    while i < len(lines):
        head = lines[i].split()
        if head and head[0] == "POINTS":
            n = int(head[1])
            points = np.array([l.split() for l in lines[i + 1:i + 1 + n]], dtype=float)
            i += n
        elif head and head[0] == "CELLS":
            n = int(head[1])
            cells = np.array([l.split()[1:] for l in lines[i + 1:i + 1 + n]], dtype=np.int64)
            i += n
        elif head and head[0] in ("POINT_DATA", "CELL_DATA") and field is None:
            n = int(head[1])
            # SCALARS line, LOOKUP_TABLE line, then n values
            field = (head[0], np.array(lines[i + 3:i + 3 + n], dtype=float))
            i += n + 2
        i += 1
    return points, cells, field


# ---------------------------------------------------------------------------
# quadrature

def cell_measures(points, cells):
    """Interval lengths or triangle areas."""
    p = points[cells]
    if cells.shape[1] == 2:
        return np.abs(p[:, 1, 0] - p[:, 0, 0])
    a, b = p[:, 1, :2] - p[:, 0, :2], p[:, 2, :2] - p[:, 0, :2]
    return 0.5 * np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def vertex_weights(points, cells):
    """Lumped P1 weights: each cell gives |K| / (vertices per cell) to each vertex."""
    w = np.zeros(len(points))
    share = cell_measures(points, cells) / cells.shape[1]
    np.add.at(w, cells.ravel(), np.repeat(share, cells.shape[1]))
    return w


def mesh_arrays(mesh):
    """Vertices padded to 3 coordinates, as a VTK file holds them."""
    pts = np.zeros((mesh.n_vertices, 3))
    pts[:, :mesh.dim] = mesh.vertices
    return pts, np.asarray(mesh.cells, dtype=np.int64)


def initial_density(state):
    """Density of a pmefem initial state: per vertex (log-density) or per cell (mixed)."""
    return np.asarray(state.density() if hasattr(state, "density") else state.rho, dtype=float)


def quadrature_mass(scheme, points, cells, density):
    if scheme == "logdensity":
        return float(vertex_weights(points, cells) @ density)
    return float(cell_measures(points, cells) @ density)


def quadrature_energy(scheme, points, cells, density, m):
    """Entropy int rho (log rho - 1) (log-density) or int rho^m / (m-1) (mixed)."""
    if scheme == "logdensity":
        pos = density > 0
        vals = np.zeros_like(density)
        vals[pos] = density[pos] * (np.log(density[pos]) - 1.0)
        return float(vertex_weights(points, cells) @ vals)
    return float(cell_measures(points, cells) @ np.maximum(density, 0.0) ** m) / (m - 1.0)


# ---------------------------------------------------------------------------
# checks

def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_run(scheme, m, points, cells, rho0, rho_final, masses, energies, min_density):
    """Checks every run shares: mass conservation against our own quadrature,
    energy decay, and (log-density) finite nonnegative density."""
    fails = []
    m0 = quadrature_mass(scheme, points, cells, rho0)
    m1 = quadrature_mass(scheme, points, cells, rho_final)
    if not _rel(m1, m0) <= MASS_RTOL:
        fails.append(f"final mass {m1:.17g} vs initial {m0:.17g} (rel {_rel(m1, m0):.2e})")
    worst = max((_rel(x, m0) for x in masses), default=0.0)
    if not worst <= MASS_RTOL:
        fails.append(f"recorded mass drifts {worst:.2e} relative from the initial mass")
    e = [quadrature_energy(scheme, points, cells, rho0, m)] + list(energies)
    for k, (prev, cur) in enumerate(zip(e, e[1:])):
        if not cur <= prev + ROUNDOFF * max(1.0, abs(prev)):
            fails.append(f"energy increases at record {k + 1}: {prev:.17g} -> {cur:.17g}")
            break
    if scheme == "logdensity":
        if not (np.all(np.isfinite(rho_final)) and np.all(rho_final >= 0)):
            fails.append("final density not finite and nonnegative")
        if not (np.all(np.isfinite(min_density)) and np.all(np.asarray(min_density) >= 0)):
            fails.append("recorded minimum density not finite and nonnegative")
    return fails


def check_max_never_increases(rho0, max_density):
    """Discrete maximum principle (edge variant on a Delaunay mesh)."""
    seq = [float(np.max(rho0))] + list(max_density)
    for k, (prev, cur) in enumerate(zip(seq, seq[1:])):
        if not cur <= prev * (1.0 + ROUNDOFF):
            return [f"maximum density increases at record {k + 1}: {prev:.17g} -> {cur:.17g}"]
    return []


def check_mixed_positivity(dt, min_density, cfl_bound):
    """Positivity of the mixed scheme on each step that respects its CFL bound."""
    bad = [k + 1 for k, (lo, bound) in enumerate(zip(min_density, cfl_bound))
           if dt <= bound and not lo >= POSITIVITY_FLOOR]
    return [f"negative density under the CFL bound at records {bad[:5]}"] if bad else []


def check_convergence(scheme, rows):
    """Inner errors within a factor 2 of the paper's table, orders in range."""
    fails = []
    refs = PAPER_ERRORS[scheme]
    lo, hi = ORDER_RANGE[scheme]
    if len(rows) != len(refs):
        return [f"{scheme}: {len(rows)} levels, expected {len(refs)}"]
    for row, ref in zip(rows, refs):
        err = float(row["error_inner"])
        if not ref / 2 <= err <= ref * 2:
            fails.append(f"{scheme} N={row['N']}: inner error {err:.3e} vs paper {ref:.2e}")
        if row["order_inner"] and not lo <= float(row["order_inner"]) <= hi:
            fails.append(f"{scheme} N={row['N']}: inner order {float(row['order_inner']):.3f}")
    return fails
