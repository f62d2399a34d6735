"""Conforming interval/triangle/quad meshes with oriented faces and cotangent weights.

Faces are single vertices in 1D and edges in 2D.  Every face stores the
ordered pair of incident cells; the mixed scheme's signed face fluxes run
from the first incident cell to the second (outward on the boundary).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

INTERVAL = "interval"
TRIANGLE = "triangle"
QUAD = "quad"
ACUTE_TRIANGLE = "acute_triangle"

#: kinds accepted by :func:`build_structured_mesh`
STRUCTURED_KINDS = (INTERVAL, TRIANGLE, ACUTE_TRIANGLE, QUAD)


class MeshError(ValueError):
    """Invalid or degenerate mesh input."""


def _readonly(a, dtype=None):
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Mesh:
    """Immutable conforming mesh.

    vertices      (nv, dim) coordinates
    cells         (nc, k) vertex indices, k = 2 (interval), 3 (triangle), 4 (quad, CCW)
    faces         (nf, 1) vertex index in 1D, (nf, 2) edge endpoints in 2D
    face_cells    (nf, 2) incident cell indices, second entry -1 on the boundary;
                  fluxes are oriented first cell -> second
    face_measures (nf,) edge lengths; point faces have measure 1
    cell_volumes  (nc,) strictly positive
    """

    dim: int
    cell_kind: str
    vertices: np.ndarray
    cells: np.ndarray
    faces: np.ndarray
    face_cells: np.ndarray
    face_measures: np.ndarray
    cell_volumes: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def interior_faces(self) -> np.ndarray:
        """Boolean mask of faces with two incident cells."""
        return self.face_cells[:, 1] >= 0

    def cell_barycenters(self) -> np.ndarray:
        return self.vertices[self.cells].mean(axis=1)

    @property
    def volume(self) -> float:
        return float(self.cell_volumes.sum())


def _cell_volumes(vertices, cells, kind):
    pts = vertices[cells]
    if kind == INTERVAL:
        return pts[:, 1, 0] - pts[:, 0, 0]
    if kind == TRIANGLE:
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    # axis-aligned quad, CCW order
    return (pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 3, 1] - pts[:, 0, 1])


def _orient_cells(vertices, cells, kind):
    """Return cells reordered so signed volumes are positive, and those volumes."""
    cells = np.array(cells, dtype=np.intp)
    if kind == QUAD:  # axis-aligned: CCW from the lower-left corner
        by_y_then_x = np.lexsort((vertices[cells, 0], vertices[cells, 1]))
        cells = np.take_along_axis(cells, by_y_then_x[:, [0, 1, 3, 2]], axis=1)
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = np.moveaxis(vertices[cells], 0, -1)
        if not np.all((y0 == y1) & (y2 == y3) & (x0 == x3) & (x1 == x2) & (x0 < x1) & (y0 < y3)):
            raise MeshError("quad cell is not an axis-aligned rectangle")
        return cells, _cell_volumes(vertices, cells, kind)
    # swapping two vertices negates the signed volume exactly
    volumes = _cell_volumes(vertices, cells, kind)
    flip = volumes < 0
    cells[flip] = cells[flip][:, [1, 0] if kind == INTERVAL else [0, 2, 1]]
    volumes[flip] = -volumes[flip]
    return cells, volumes


#: vertices per cell of each cell kind
_CELL_SIZE = {INTERVAL: 2, TRIANGLE: 3, QUAD: 4}

_LOCAL_FACES = {
    INTERVAL: ((0,), (1,)),
    TRIANGLE: ((0, 1), (1, 2), (2, 0)),
    QUAD: ((0, 1), (1, 2), (2, 3), (3, 0)),
}


def make_mesh(vertices, cells, kind) -> Mesh:
    """Assemble a :class:`Mesh` from raw vertex/cell arrays, building faces."""
    if kind not in _CELL_SIZE:
        raise MeshError(f"unknown cell kind {kind!r}")
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim == 1:
        vertices = vertices[:, None]
    dim = 1 if kind == INTERVAL else 2
    if vertices.shape[1] != dim:
        raise MeshError(f"{kind} mesh needs {dim}-d vertices, got {vertices.shape[1]}-d")
    cells = np.asarray(cells, dtype=np.intp)
    expected = _CELL_SIZE[kind]
    if cells.ndim != 2 or cells.shape[1] != expected:
        raise MeshError(f"{kind} cells need {expected} vertices per cell")
    if cells.min(initial=0) < 0 or cells.max(initial=-1) >= len(vertices):
        raise MeshError("cell vertex index out of range")

    cells, volumes = _orient_cells(vertices, cells, kind)
    if np.any(volumes <= 0):
        raise MeshError("degenerate cell with non-positive volume")

    # one token per (cell, local face) in cell order; the first toucher fixes
    # the face orientation and numbering, the second closes the face
    local = np.array(_LOCAL_FACES[kind])
    nloc = len(local)
    tokens = cells[:, local].reshape(-1, local.shape[1])
    lo, hi = np.minimum(tokens[:, 0], tokens[:, -1]), np.maximum(tokens[:, 0], tokens[:, -1])
    keys = lo * len(vertices) + hi
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    if np.any(counts > 2):
        raise MeshError("non-conforming mesh: face shared by >2 cells")
    second = np.ones(len(tokens), dtype=bool)
    second[first] = False
    face_of = (np.cumsum(~second) - 1)[first[inverse]]
    first = np.flatnonzero(~second)
    faces = tokens[first]
    face_cells = np.column_stack([first // nloc, np.full(first.size, -1)])
    face_cells[face_of[second], 1] = np.flatnonzero(second) // nloc
    if kind == INTERVAL:
        measures = np.ones(first.size)
    else:
        t = vertices[faces[:, 1]] - vertices[faces[:, 0]]
        measures = np.hypot(t[:, 0], t[:, 1])

    return Mesh(
        dim=dim,
        cell_kind=kind,
        vertices=_readonly(vertices),
        cells=_readonly(cells, np.intp),
        faces=_readonly(faces, np.intp),
        face_cells=_readonly(face_cells, np.intp),
        face_measures=_readonly(measures),
        cell_volumes=_readonly(volumes),
    )


def _normalize_box(box, dim):
    b = np.asarray(box, dtype=float)
    if dim == 1:
        b = b.reshape(-1)
        if b.shape != (2,):
            raise MeshError("1D box must be (x0, x1)")
        b = b[None, :]
    else:
        b = b.reshape(2, 2)
    if np.any(b[:, 1] <= b[:, 0]):
        raise MeshError("degenerate box")
    return b


def _normalize_counts(counts, dim):
    if np.isscalar(counts):
        counts = (int(counts),) * dim
    counts = tuple(int(c) for c in np.atleast_1d(counts))
    if len(counts) != dim:
        raise MeshError(f"need {dim} cell counts, got {counts}")
    if any(c < 1 for c in counts):
        raise MeshError("cell counts must be >= 1")
    return counts


def build_structured_mesh(kind, box, counts) -> Mesh:
    """Structured mesh of a box.

    kind 'interval' is 1D; 'quad' is a tensor grid; 'triangle' splits each
    grid quad by a diagonal, alternating direction per quad to avoid a
    directional bias; 'acute_triangle' uses offset rows of isoceles triangles
    so every interior edge carries a strictly positive cotangent weight
    (needed by the mixed scheme's static condensation).
    """
    if kind not in STRUCTURED_KINDS:
        raise MeshError(f"unknown structured kind {kind!r}")
    dim = 1 if kind == INTERVAL else 2
    box = _normalize_box(box, dim)
    counts = _normalize_counts(counts, dim)

    if kind == INTERVAL:
        (nx,) = counts
        xs = np.linspace(box[0, 0], box[0, 1], nx + 1)
        cells = np.column_stack([np.arange(nx), np.arange(1, nx + 1)])
        return make_mesh(xs[:, None], cells, INTERVAL)

    nx, ny = counts
    if kind == ACUTE_TRIANGLE:
        return _acute_triangle_mesh(box, nx, ny)

    xs = np.linspace(box[0, 0], box[0, 1], nx + 1)
    ys = np.linspace(box[1, 0], box[1, 1], ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    i, j = (a.ravel() for a in np.meshgrid(np.arange(nx), np.arange(ny)))
    v00 = j * (nx + 1) + i
    v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
    if kind == QUAD:
        cells = np.column_stack([v00, v10, v11, v01])
    else:  # alternate the diagonal from quad to quad
        even = ((i + j) % 2 == 0)[:, None]
        lower = np.where(even, np.column_stack([v00, v10, v11]), np.column_stack([v00, v10, v01]))
        upper = np.where(even, np.column_stack([v00, v11, v01]), np.column_stack([v10, v11, v01]))
        cells = np.stack([lower, upper], axis=1).reshape(-1, 3)
    return make_mesh(verts, cells, QUAD if kind == QUAD else TRIANGLE)


def _acute_triangle_mesh(box, nx, ny):
    """Offset-row strip triangulation; interior edge weights are positive for
    near-unit cell aspect (hy > hx/2).  Even rows hold the nx + 1 grid
    points, odd rows the nx cell midpoints between the two ends; each strip
    of 2nx + 1 triangles repeats the template of its lower row's parity."""
    (x0, x1), (y0, y1) = box
    hx = (x1 - x0) / nx
    full = x0 + np.arange(nx + 1) * hx
    offset = np.concatenate([[x0], x0 + (np.arange(nx) + 0.5) * hx, [x1]])
    j = np.arange(ny + 1)
    row_len = np.where(j % 2 == 0, nx + 1, nx + 2)
    start = np.concatenate([[0], np.cumsum(row_len)])
    xs = np.tile(np.concatenate([full, offset]), ny // 2 + 1)[:start[-1]]
    ys = np.repeat(y0 + j * (y1 - y0) / ny, row_len)

    # local vertex numbers from the strip's first vertex; the upper row starts at t
    i = np.arange(nx)
    t = nx + 1  # even strip: full row below, offset row above
    even = np.concatenate([
        [[0, t + 1, t]],
        np.column_stack([i, i + 1, t + i + 1]),
        np.column_stack([i[1:], t + i[1:] + 1, t + i[1:]]),
        [[nx, t + nx + 1, t + nx]],
    ])
    t = nx + 2  # odd strip: offset row below, full row above
    odd = np.concatenate([
        [[0, 1, t]],
        np.column_stack([i + 1, t + i + 1, t + i]),
        np.column_stack([i[1:], i[1:] + 1, t + i[1:]]),
        [[nx, nx + 1, t + nx]],
    ])
    cells = np.stack([even, odd])[j[:-1] % 2] + start[:-2, None, None]
    return make_mesh(np.column_stack([xs, ys]), cells.reshape(-1, 3), TRIANGLE)


def compute_edge_geometry(mesh: Mesh) -> np.ndarray:
    """Read-only per-face weights omega_E = d_E / |E| of the mixed scheme's
    two-point fluxes, d_E the distance between the centres (circumcentres on
    triangles) of the incident cells.  omega[f] sums over the incident cells
    of face f the weight (1/2) cot(opposite angle) = (pa . pb) / (4 |K|) on
    triangles, pa and pb the edges from the opposite vertex (the P1
    stiffness formula), and |K| / (2 |E|^2) on quads and intervals."""
    omega = np.zeros(mesh.n_faces)
    for slot in (0, 1):
        cells = mesh.face_cells[:, slot]
        has = cells >= 0
        vol = mesh.cell_volumes[cells[has]]
        if mesh.cell_kind == TRIANGLE:
            fc = mesh.faces[has]
            # the opposite vertex is the one not on the face
            opp = mesh.cells[cells[has]].sum(axis=1) - fc.sum(axis=1)
            pa = mesh.vertices[fc[:, 0]] - mesh.vertices[opp]
            pb = mesh.vertices[fc[:, 1]] - mesh.vertices[opp]
            omega[has] += np.einsum("ij,ij->i", pa, pb) / (4.0 * vol)
        else:
            omega[has] += 0.5 * vol / mesh.face_measures[has] ** 2
    return _readonly(omega)


#: edge-weight tolerance of the Delaunay checks and of the mixed condensation
DELAUNAY_TOL = 1e-12


def is_delaunay(mesh: Mesh, omega, strict: bool = False) -> bool:
    """Non-strict: every face weight omega >= -DELAUNAY_TOL.  Strict: every
    interior face weight > DELAUNAY_TOL (static condensation needs this).
    Interval and quad meshes always qualify."""
    if mesh.cell_kind != TRIANGLE:
        return True
    if strict:
        return bool(np.all(omega[mesh.interior_faces] > DELAUNAY_TOL))
    return bool(np.all(omega >= -DELAUNAY_TOL))


#: rows per formatting operation of :func:`write_rows`, which holds one
#: block's values and text at a time, whatever the mesh size.  Larger blocks
#: save no time and lift the peak above a row-by-row writer's on small meshes.
ROW_BLOCK = 1024


def write_rows(f, array, line) -> None:
    """Write a 2D array as ``line % row`` per row, or a 1D array as ``line %
    value`` per value.  ``line`` ends in a newline and may hold constant
    columns.  Each block of ROW_BLOCK rows is formatted by one ``%`` on
    Python scalars: the text of row-by-row formatting at a fraction of its cost."""
    for start in range(0, len(array), ROW_BLOCK):
        block = array[start:start + ROW_BLOCK]
        f.write(line * len(block) % tuple(block.ravel().tolist()))


def write_mesh(mesh: Mesh, path) -> None:
    """Plain ASCII dump: header `dim ncells nverts kind`, vertices (%.17g,
    exact for float64), cells."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{mesh.dim} {mesh.n_cells} {mesh.n_vertices} {mesh.cell_kind}\n")
        write_rows(f, mesh.vertices, " ".join(["%.17g"] * mesh.dim) + "\n")
        write_rows(f, mesh.cells, " ".join(["%d"] * mesh.cells.shape[1]) + "\n")


def _read_block(f, rows, cols, dtype, what):
    """The next ``rows`` lines of ``f``, ``cols`` numbers each."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on an empty block; the shape check reports it
        try:
            block = np.loadtxt(f, dtype=dtype, max_rows=rows, ndmin=2)
        except ValueError as exc:
            raise MeshError(f"bad {what} block: {exc}") from exc
    if block.shape != (rows, cols):
        raise MeshError(f"{what} block must be {rows} rows of {cols} numbers, got shape {block.shape}")
    return block


def read_mesh(path) -> Mesh:
    """Read the format of :func:`write_mesh`; a malformed file, or one with
    rows beyond the header's counts, raises MeshError."""
    with open(path, encoding="utf-8") as f:
        tokens = f.readline().split()
        try:
            dim, ncells, nverts = (int(t) for t in tokens[:3])
        except ValueError:
            tokens = ()
        if len(tokens) != 4 or min(ncells, nverts) < 1:
            raise MeshError("mesh header must be 'dim ncells nverts kind' with positive counts")
        kind = tokens[3]
        if kind not in _CELL_SIZE:
            raise MeshError(f"unknown cell kind {kind!r}")
        if dim != (1 if kind == INTERVAL else 2):
            raise MeshError(f"dimension {dim} inconsistent with kind {kind!r}")
        verts = _read_block(f, nverts, dim, float, "vertex")
        cells = _read_block(f, ncells, _CELL_SIZE[kind], np.intp, "cell")
        extra = sum(1 for line in f if line.split("#", 1)[0].strip())
    if extra:
        raise MeshError(f"{extra} extra row(s) after the header's {nverts} vertices and {ncells} cells")
    return make_mesh(verts, cells, kind)
