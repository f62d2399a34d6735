"""Conforming interval/triangle/quad meshes with oriented faces and cotangent weights.

Faces are single vertices in 1D and edges in 2D.  Every face stores the
ordered pair of incident cells; its unit normal points from the first
incident cell to the second (outward on the boundary).  This orientation is
what the mixed scheme's signed face fluxes are defined against.
"""

from __future__ import annotations

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
    face_cells    (nf, 2) incident cell indices, second entry -1 on the boundary
    face_normals  (nf, dim) unit normal, oriented first cell -> second
    face_measures (nf,) edge lengths; point faces have measure 1
    cell_volumes  (nc,) strictly positive
    """

    dim: int
    cell_kind: str
    vertices: np.ndarray
    cells: np.ndarray
    faces: np.ndarray
    face_cells: np.ndarray
    face_normals: np.ndarray
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
    """Return cells reordered so signed volumes are positive."""
    cells = np.array(cells, dtype=np.intp)
    if kind == INTERVAL:
        flip = vertices[cells[:, 1], 0] < vertices[cells[:, 0], 0]
        cells[flip] = cells[flip][:, ::-1]
    elif kind == TRIANGLE:
        vol = _cell_volumes(vertices, cells, kind)
        flip = vol < 0
        cells[flip] = cells[flip][:, [0, 2, 1]]
    else:  # axis-aligned quad: CCW from the lower-left corner
        by_y_then_x = np.lexsort((vertices[cells, 0], vertices[cells, 1]))
        cells = np.take_along_axis(cells, by_y_then_x[:, [0, 1, 3, 2]], axis=1)
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = np.moveaxis(vertices[cells], 0, -1)
        if not np.all((y0 == y1) & (y2 == y3) & (x0 == x3) & (x1 == x2) & (x0 < x1) & (y0 < y3)):
            raise MeshError("quad cell is not an axis-aligned rectangle")
    return cells


_LOCAL_FACES = {
    INTERVAL: ((0,), (1,)),
    TRIANGLE: ((0, 1), (1, 2), (2, 0)),
    QUAD: ((0, 1), (1, 2), (2, 3), (3, 0)),
}


def make_mesh(vertices, cells, kind) -> Mesh:
    """Assemble a :class:`Mesh` from raw vertex/cell arrays, building faces."""
    if kind not in (INTERVAL, TRIANGLE, QUAD):
        raise MeshError(f"unknown cell kind {kind!r}")
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim == 1:
        vertices = vertices[:, None]
    dim = 1 if kind == INTERVAL else 2
    if vertices.shape[1] != dim:
        raise MeshError(f"{kind} mesh needs {dim}-d vertices, got {vertices.shape[1]}-d")
    cells = np.asarray(cells, dtype=np.intp)
    expected = {INTERVAL: 2, TRIANGLE: 3, QUAD: 4}[kind]
    if cells.ndim != 2 or cells.shape[1] != expected:
        raise MeshError(f"{kind} cells need {expected} vertices per cell")
    if cells.min(initial=0) < 0 or cells.max(initial=-1) >= len(vertices):
        raise MeshError("cell vertex index out of range")

    cells = _orient_cells(vertices, cells, kind)
    volumes = _cell_volumes(vertices, cells, kind)
    if np.any(volumes <= 0):
        raise MeshError("degenerate cell with non-positive volume")

    # one token per (cell, local face) in cell order; the first toucher fixes
    # the face orientation and numbering, the second closes the face
    local = np.array(_LOCAL_FACES[kind])
    nloc = len(local)
    tokens = cells[:, local].reshape(-1, local.shape[1])
    ends = np.sort(tokens, axis=1)
    keys = ends[:, 0] * len(vertices) + ends[:, -1]
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
        normals = np.where(first % nloc == 0, -1.0, 1.0)[:, None]
        measures = np.ones(first.size)
    else:
        t = vertices[faces[:, 1]] - vertices[faces[:, 0]]
        measures = np.hypot(t[:, 0], t[:, 1])
        # CCW cell: outward normal is the right-rotation of the edge
        normals = np.column_stack([t[:, 1] / measures, -t[:, 0] / measures])

    return Mesh(
        dim=dim,
        cell_kind=kind,
        vertices=_readonly(vertices),
        cells=_readonly(cells, np.intp),
        faces=_readonly(faces, np.intp),
        face_cells=_readonly(face_cells, np.intp),
        face_normals=_readonly(normals),
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
    near-unit cell aspect (hy > hx/2)."""
    (x0, x1), (y0, y1) = box
    hx = (x1 - x0) / nx
    rows = []
    verts = []
    for j in range(ny + 1):
        y = y0 + j * (y1 - y0) / ny
        if j % 2 == 0:
            xs = [x0 + i * hx for i in range(nx + 1)]
        else:
            xs = [x0] + [x0 + (i + 0.5) * hx for i in range(nx)] + [x1]
        rows.append(list(range(len(verts), len(verts) + len(xs))))
        verts.extend((x, y) for x in xs)

    cells = []
    for j in range(ny):
        b, t = rows[j], rows[j + 1]
        if j % 2 == 0:  # full row below, offset row above
            cells.append([b[0], t[1], t[0]])
            for i in range(nx):
                cells.append([b[i], b[i + 1], t[i + 1]])
            for i in range(nx - 1):
                cells.append([b[i + 1], t[i + 2], t[i + 1]])
            cells.append([b[nx], t[nx + 1], t[nx]])
        else:  # offset row below, full row above
            cells.append([b[0], b[1], t[0]])
            for i in range(nx):
                cells.append([b[i + 1], t[i + 1], t[i]])
            for i in range(nx - 1):
                cells.append([b[i + 1], b[i + 2], t[i + 1]])
            cells.append([b[nx], b[nx + 1], t[nx]])
    return make_mesh(np.asarray(verts), cells, TRIANGLE)


@dataclass(frozen=True)
class EdgeGeometry:
    """Per-face lumping weights shared by both schemes.

    omega_cell[f, s] is the weight contributed by incident cell s of face f:
    (1/2) cot(opposite angle) on triangles, |K|/2 on quads and intervals.
    omega is the sum over incident cells.  theta holds the opposite angles in
    radians on triangle meshes (NaN otherwise).
    """

    mesh: Mesh
    omega_cell: np.ndarray
    omega: np.ndarray
    theta: np.ndarray


def compute_edge_geometry(mesh: Mesh) -> EdgeGeometry:
    nf = mesh.n_faces
    omega_cell = np.zeros((nf, 2))
    theta = np.full((nf, 2), np.nan)

    if mesh.cell_kind == TRIANGLE:
        if np.any(mesh.cell_volumes <= 0):
            raise MeshError("degenerate cell")
        for slot in (0, 1):
            cells = mesh.face_cells[:, slot]
            has = cells >= 0
            fc = mesh.faces[has]
            cc = mesh.cells[cells[has]]
            # the opposite vertex is the one not on the face
            opp = cc.sum(axis=1) - fc.sum(axis=1)
            pa = mesh.vertices[fc[:, 0]] - mesh.vertices[opp]
            pb = mesh.vertices[fc[:, 1]] - mesh.vertices[opp]
            cosang = np.einsum("ij,ij->i", pa, pb)
            cosang /= np.linalg.norm(pa, axis=1) * np.linalg.norm(pb, axis=1)
            ang = np.arccos(np.clip(cosang, -1.0, 1.0))
            theta[has, slot] = ang
            omega_cell[has, slot] = 0.5 / np.tan(ang)
    else:
        vols = mesh.cell_volumes
        for slot in (0, 1):
            cells = mesh.face_cells[:, slot]
            has = cells >= 0
            omega_cell[has, slot] = 0.5 * vols[cells[has]]

    return EdgeGeometry(
        mesh=mesh,
        omega_cell=_readonly(omega_cell),
        omega=_readonly(omega_cell.sum(axis=1)),
        theta=_readonly(theta),
    )


#: edge-weight tolerance of the Delaunay checks and of the mixed condensation
DELAUNAY_TOL = 1e-12


def is_delaunay(geom: EdgeGeometry, strict: bool = False) -> bool:
    """Non-strict: every edge weight >= -DELAUNAY_TOL.  Strict: every interior
    edge weight > DELAUNAY_TOL (static condensation needs this).  Interval and
    quad meshes always qualify."""
    if geom.mesh.cell_kind != TRIANGLE:
        return True
    if strict:
        return bool(np.all(geom.omega[geom.mesh.interior_faces] > DELAUNAY_TOL))
    return bool(np.all(geom.omega >= -DELAUNAY_TOL))


def write_mesh(mesh: Mesh, path) -> None:
    """Plain ASCII dump: header `dim ncells nverts kind`, vertices, cells."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{mesh.dim} {mesh.n_cells} {mesh.n_vertices} {mesh.cell_kind}\n")
        np.savetxt(f, mesh.vertices, fmt="%.17g")
        np.savetxt(f, mesh.cells, fmt="%d")


def read_mesh(path) -> Mesh:
    with open(path, encoding="utf-8") as f:
        tokens = f.readline().split()
        if len(tokens) != 4:
            raise MeshError("mesh header must be 'dim ncells nverts kind'")
        dim, ncells, nverts = int(tokens[0]), int(tokens[1]), int(tokens[2])
        kind = tokens[3]
        if kind not in (INTERVAL, TRIANGLE, QUAD):
            raise MeshError(f"unknown cell kind {kind!r}")
        if dim != (1 if kind == INTERVAL else 2):
            raise MeshError(f"dimension {dim} inconsistent with kind {kind!r}")
        verts = np.array([[float(x) for x in f.readline().split()] for _ in range(nverts)])
        cells = [[int(x) for x in f.readline().split()] for _ in range(ncells)]
    return make_mesh(verts, cells, kind)
