"""Mesh construction, face orientation, cotangent weights, Delaunay checks."""

import io

import numpy as np
import pytest

from pmefem.mesh import (
    MeshError,
    build_structured_mesh,
    compute_edge_geometry,
    is_delaunay,
    make_mesh,
    read_mesh,
    write_mesh,
)
from pmefem.assembly import lumped_mass


def unit_square_two_triangles():
    """Unit square split by the (0,0)-(1,1) diagonal."""
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    return make_mesh(verts, [(0, 1, 2), (0, 2, 3)], "triangle")


class TestCounts:
    def test_interval(self):
        m = build_structured_mesh("interval", (-10, 10), 100)
        assert (m.n_cells, m.n_vertices, m.n_faces) == (100, 101, 101)

    def test_triangle_euler(self):
        m = build_structured_mesh("triangle", ((-6, 6), (-6, 6)), (32, 32))
        assert (m.n_cells, m.n_vertices, m.n_faces) == (2048, 1089, 3136)
        assert m.n_vertices - m.n_faces + m.n_cells == 1

    def test_quad(self):
        m = build_structured_mesh("quad", ((0, 1), (0, 1)), (2, 2))
        assert (m.n_cells, m.n_vertices, m.n_faces) == (4, 9, 12)

    def test_acute_triangle_euler(self):
        m = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (7, 5))
        assert m.n_cells == 5 * (2 * 7 + 1)
        assert m.n_vertices - m.n_faces + m.n_cells == 1

    @pytest.mark.parametrize("kind,box,counts", [
        ("interval", (0, 1), 0),
        ("quad", ((0, 1), (0, 1)), (3, 0)),
        ("nonsense", (0, 1), 4),
        ("interval", (1, 1), 4),
        ("triangle", ((0, 1), (1, 1)), (2, 2)),
        ("quad", (0, 1, 2), (2, 2)),
        ("quad", ((0, 1), (0, 1)), 2.5),
        ("interval", (0, 1), (2.5,)),
    ])
    def test_invalid_input(self, kind, box, counts):
        with pytest.raises(MeshError):
            build_structured_mesh(kind, box, counts)

    def test_volume_partition(self):
        for m in (
            build_structured_mesh("interval", (-3, 5), 17),
            build_structured_mesh("triangle", ((0, 2), (0, 1)), (5, 3)),
            build_structured_mesh("acute_triangle", ((0, 2), (0, 2)), (6, 6)),
            build_structured_mesh("quad", ((-1, 1), (0, 3)), (4, 6)),
        ):
            box = m.vertices.max(axis=0) - m.vertices.min(axis=0)
            assert m.volume == pytest.approx(np.prod(box), rel=1e-12)


def acute_triangle_loop(box, nx, ny):
    """Reference offset-row strip triangulation, built row by row and cell by
    cell with Python lists."""
    (x0, x1), (y0, y1) = np.asarray(box, dtype=float)
    hx = (x1 - x0) / nx
    rows, verts = [], []
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
            cells.extend([b[i], b[i + 1], t[i + 1]] for i in range(nx))
            cells.extend([b[i + 1], t[i + 2], t[i + 1]] for i in range(nx - 1))
            cells.append([b[nx], t[nx + 1], t[nx]])
        else:  # offset row below, full row above
            cells.append([b[0], b[1], t[0]])
            cells.extend([b[i + 1], t[i + 1], t[i]] for i in range(nx))
            cells.extend([b[i + 1], b[i + 2], t[i + 1]] for i in range(nx - 1))
            cells.append([b[nx], b[nx + 1], t[nx]])
    return make_mesh(np.asarray(verts), cells, "triangle")


class TestAcuteTriangle:
    @pytest.mark.parametrize("box,counts", [
        (((-1, 1), (-1, 1)), (160, 160)),
        (((-2, 2), (-2, 2)), (40, 40)),
        (((-2.0123, 1.9877), (-1.9911, 2.0089)), (40, 40)),
        (((0, 1), (0, 1)), (3, 5)),
        (((0, 2), (0, 1)), (7, 4)),
        (((0, 1), (0, 1)), (1, 1)),
        (((0, 1), (0, 1)), (1, 2)),
        (((0, 1), (0, 1)), (2, 1)),
    ])
    def test_matches_loop_builder_bitwise(self, box, counts):
        m = build_structured_mesh("acute_triangle", box, counts)
        ref = acute_triangle_loop(box, *counts)
        for name in ("vertices", "cells", "faces", "face_cells", "face_measures", "cell_volumes"):
            a, b = getattr(m, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name


class TestFaceOrientation:
    @pytest.mark.parametrize("kind,counts", [
        ("interval", 7), ("triangle", (5, 4)), ("quad", (4, 3)), ("acute_triangle", (6, 5)),
    ])
    def test_faces_match_cell_loop(self, kind, counts):
        # reference: walk the cells in order; the first cell to touch a face
        # fixes its number and orientation, the second closes it
        box = (0, 1) if kind == "interval" else ((0, 1), (0, 2))
        m = build_structured_mesh(kind, box, counts)
        local = {1: ((0,), (1,)), 3: ((0, 1), (1, 2), (2, 0)), 4: ((0, 1), (1, 2), (2, 3), (3, 0))}
        index, faces, face_cells = {}, [], []
        for ci, cell in enumerate(m.cells):
            for loc in local[1 if kind == "interval" else m.cells.shape[1]]:
                fverts = tuple(cell[list(loc)])
                key = tuple(sorted(fverts))
                if key in index:
                    face_cells[index[key]][1] = ci
                else:
                    index[key] = len(faces)
                    faces.append(fverts)
                    face_cells.append([ci, -1])
        assert np.array_equal(m.faces, faces)
        assert np.array_equal(m.face_cells, face_cells)

    def test_interior_faces_have_two_cells(self):
        m = build_structured_mesh("triangle", ((0, 1), (0, 1)), (3, 3))
        counts = np.zeros(m.n_faces, int)
        for cell in range(m.n_cells):
            hit = (m.face_cells == cell).any(axis=1)
            counts += hit
        assert set(counts) <= {1, 2}
        assert np.array_equal(counts == 2, m.interior_faces)

    def test_nonconforming_rejected(self):
        verts = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)]
        with pytest.raises(MeshError):
            make_mesh(verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)], "triangle")

    def test_degenerate_cell_rejected(self):
        with pytest.raises(MeshError):
            make_mesh([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)], "triangle")


class TestEdgeGeometry:
    def test_equilateral_weight(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)]
        m = make_mesh(verts, [(0, 1, 2)], "triangle")
        omega = compute_edge_geometry(m)
        assert omega == pytest.approx([0.5 / np.tan(np.pi / 3)] * 3)
        assert omega[0] == pytest.approx(0.288675, abs=1e-6)

    def test_right_angle_weight_zero(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        m = make_mesh(verts, [(0, 1, 2)], "triangle")
        omega = compute_edge_geometry(m)
        # the hypotenuse (1,2) is opposite the right angle
        hyp = [i for i, f in enumerate(m.faces) if set(f) == {1, 2}][0]
        assert omega[hyp] == pytest.approx(0.0, abs=1e-14)

    def test_square_diagonal_split_boundary_weight(self):
        m = unit_square_two_triangles()
        omega = compute_edge_geometry(m)
        for f in range(m.n_faces):
            pair = set(m.faces[f])
            if pair == {0, 2}:       # diagonal, opposite two 90-degree angles
                assert omega[f] == pytest.approx(0.0, abs=1e-15)
            else:                    # boundary edges, opposite one 45-degree angle
                assert omega[f] == pytest.approx(0.5)

    def test_boundary_weight_matches_p1_stiffness(self):
        # hand-assembled P1 stiffness on the 2-triangle square: the (0,1)
        # off-diagonal comes only from triangle (0,1,2), equals -1/2
        m = unit_square_two_triangles()
        omega = compute_edge_geometry(m)
        f01 = [i for i, f in enumerate(m.faces) if set(f) == {0, 1}][0]
        grads = {0: np.array([-1.0, 0.0]), 1: np.array([1.0, -1.0]), 2: np.array([0.0, 1.0])}
        area = 0.5
        hand = area * grads[0] @ grads[1]
        assert -omega[f01] == pytest.approx(hand)

    def test_quad_and_interval_weights(self):
        m = build_structured_mesh("quad", ((0, 1), (0, 1)), (2, 2))
        omega = compute_edge_geometry(m)
        interior = m.interior_faces
        # d_E/|E|: two cells x |K|/(2|E|^2) inside, one on the boundary
        assert omega[interior] == pytest.approx(1.0)
        assert omega[~interior] == pytest.approx(0.5)
        m1 = build_structured_mesh("interval", (0, 1), 4)
        omega1 = compute_edge_geometry(m1)
        assert omega1[m1.interior_faces] == pytest.approx(0.25)


class TestDelaunay:
    def test_acute_structured_strict(self):
        m = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (8, 8))
        omega = compute_edge_geometry(m)
        assert is_delaunay(m, omega, strict=True)
        assert is_delaunay(m, omega)

    def test_right_split_nonstrict_only(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        m = make_mesh(verts, [(0, 1, 2), (0, 2, 3)], "triangle")
        omega = compute_edge_geometry(m)
        assert is_delaunay(m, omega)
        assert not is_delaunay(m, omega, strict=True)

    def test_thin_kite_not_delaunay(self):
        # opposite angles across the diagonal sum to more than pi
        verts = [(0.0, 0.0), (1.0, 0.1), (2.0, 0.0), (1.0, -3.0)]
        m = make_mesh(verts, [(0, 1, 2), (0, 2, 3)], "triangle")
        omega = compute_edge_geometry(m)
        assert not is_delaunay(m, omega)

    def test_quads_and_intervals_qualify(self):
        for m in (build_structured_mesh("quad", ((0, 1), (0, 1)), (2, 2)),
                  build_structured_mesh("interval", (0, 1), 3)):
            omega = compute_edge_geometry(m)
            assert is_delaunay(m, omega, strict=True)

    def test_weight_sign_matches_nonstrict_check(self):
        for counts in ((3, 3), (5, 2)):
            m = build_structured_mesh("triangle", ((0, 2), (0, 1)), counts)
            omega = compute_edge_geometry(m)
            assert is_delaunay(m, omega) == bool(np.all(omega >= -1e-12))


class TestPatchVolumes:
    """|S_i|, the total volume of the cells touching vertex i, is
    (d + 1) times the lumped simplex mass."""

    @staticmethod
    def patch_volumes(mesh):
        return lumped_mass(mesh) * (mesh.dim + 1)

    def test_interval_patches(self):
        m = build_structured_mesh("interval", (0, 1), 2)
        assert self.patch_volumes(m) == pytest.approx([0.5, 1.0, 0.5])

    def test_square_patches(self):
        m = unit_square_two_triangles()
        assert self.patch_volumes(m) == pytest.approx([1.0, 0.5, 1.0, 0.5])

    @pytest.mark.parametrize("kind,counts", [
        ("interval", 9), ("triangle", (4, 5)), ("acute_triangle", (5, 4)),
    ])
    def test_patch_partition(self, kind, counts):
        box = (0, 2) if kind == "interval" else ((0, 2), (0, 2))
        m = build_structured_mesh(kind, box, counts)
        total = self.patch_volumes(m).sum() / (m.dim + 1)
        assert total == pytest.approx(m.volume, rel=1e-12)


class TestMeshIO:
    # the last three span more than one block of write_rows
    @pytest.mark.parametrize("kind,counts", [
        ("interval", 5), ("triangle", (3, 2)), ("quad", (2, 3)), ("acute_triangle", (3, 3)),
        ("interval", 5000), ("quad", (70, 60)), ("acute_triangle", (70, 64)),
    ])
    def test_roundtrip(self, tmp_path, kind, counts):
        box = (0, 1) if kind == "interval" else ((0, 1), (0, 1))
        m = build_structured_mesh(kind, box, counts)
        path = tmp_path / "mesh.txt"
        write_mesh(m, path)
        reference = io.StringIO()
        reference.write(f"{m.dim} {m.n_cells} {m.n_vertices} {m.cell_kind}\n")
        np.savetxt(reference, m.vertices, fmt="%.17g")
        np.savetxt(reference, m.cells, fmt="%d")
        same = path.read_text(encoding="utf-8") == reference.getvalue()  # no multi-megabyte diff on failure
        assert same, "write_mesh text differs from the np.savetxt reference"
        m2 = read_mesh(path)
        assert m2.cell_kind == m.cell_kind
        assert np.array_equal(m2.cells, m.cells)
        assert m2.vertices.dtype == m.vertices.dtype and m2.vertices.tobytes() == m.vertices.tobytes()
        assert np.array_equal(m2.face_cells, m.face_cells)
        header = path.read_text().splitlines()[0].split()
        assert header == [str(m.dim), str(m.n_cells), str(m.n_vertices), m.cell_kind]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 3\n")
        with pytest.raises(MeshError):
            read_mesh(path)

    @pytest.mark.parametrize("tail,extra", [
        ("", 0), ("\n  \n\n", 0), ("# end\n", 0),
        ("2 3\n", 1), ("2 3\n\n3 0\n", 2), ("0\n", 1),
    ])
    def test_rows_beyond_the_header_counts(self, tmp_path, tail, extra):
        # header: 4 vertices and 3 cells; blank and comment lines after them are no rows
        path = tmp_path / "m.txt"
        path.write_text("1 3 4 interval\n0\n1\n2\n3\n0 1\n1 2\n2 3\n" + tail, encoding="utf-8")
        if extra:
            with pytest.raises(MeshError, match=f"^{extra} extra row"):
                read_mesh(path)
        else:
            assert read_mesh(path).n_cells == 3
