import itertools
from collections import Counter

import pytest

from kq.errors import UserInputError
from kq.cubical import (
    AttachedCylinder,
    CubicalComplex,
    CylinderComplex,
    boundary_word,
    cell_dim,
    complex_basis,
    corner_ball,
    corner_faces_complex,
    cube_ball,
    cube_complex,
    cylinder_ball,
    face_ball_of,
    facet_ball,
    facet_complex,
    is_regular_sequence,
    orientation_sign,
    point_ball,
    serre_diagonal_word,
)
from kq.exact_linalg import solve_dense
from kq.track import product_ball

from track_helpers import (
    boundary_faces,
    cube_boundary_complex,
    include_bottom,
    include_top,
    is_chain_map,
    opposite_face,
    reverse,
)


def chain_add(acc, chain, scale=1):
    for c, v in chain.items():
        acc[c] = acc.get(c, 0) + scale * v
    return {c: v for c, v in acc.items() if v}


def dd_is_zero(basis):
    for c in basis.cells():
        acc = {}
        for x, v in basis.boundary_of(c).items():
            chain_addable = basis.boundary_of(x)
            for y, w in chain_addable.items():
                acc[y] = acc.get(y, 0) + v * w
        if any(acc.values()):
            return False
    return True


def diagonal_is_chain_map(basis):
    # d(diag c) with Koszul signs equals diag(d c), as integer chains
    for c in basis.cells():
        lhs = {}
        for s, a, b in basis.diag_of(c):
            for x, v in basis.boundary_of(a).items():
                key = (x, b)
                lhs[key] = lhs.get(key, 0) + s * v
            sign = 1 if basis.dim(a) % 2 == 0 else -1
            for y, v in basis.boundary_of(b).items():
                key = (a, y)
                lhs[key] = lhs.get(key, 0) + s * sign * v
        rhs = {}
        for x, v in basis.boundary_of(c).items():
            for s, a, b in basis.diag_of(x):
                key = (a, b)
                rhs[key] = rhs.get(key, 0) + v * s
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            return False
    return True


def diagonal_is_coassociative(basis):
    for c in basis.cells():
        left = {}
        for s, a, b in basis.diag_of(c):
            for t, x, y in basis.diag_of(a):
                key = (x, y, b)
                left[key] = left.get(key, 0) + s * t
        right = {}
        for s, a, b in basis.diag_of(c):
            for t, x, y in basis.diag_of(b):
                key = (a, x, y)
                right[key] = right.get(key, 0) + s * t
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        if left != right:
            return False
    return True


def diagonal_is_counital(basis):
    for c in basis.cells():
        lhs = {}
        rhs = {}
        for s, a, b in basis.diag_of(c):
            if basis.dim(a) == 0:
                lhs[b] = lhs.get(b, 0) + s
            if basis.dim(b) == 0:
                rhs[a] = rhs.get(a, 0) + s
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != {c: 1} or rhs != {c: 1}:
            return False
    return True


def test_interval_boundary():
    assert sorted(boundary_word("*")) == [(-1, "0"), (1, "1")]


def test_dd_zero_on_cubes_up_to_4():
    for n in range(5):
        assert dd_is_zero(complex_basis(cube_complex(n)))


def test_boundary_rank_on_square_boundary():
    bd = cube_boundary_complex(2)
    vertices = sorted(w for w in bd.cells if cell_dim(w) == 0)
    edges = sorted(w for w in bd.cells if cell_dim(w) == 1)
    d1 = [[0] * len(edges) for _ in vertices]
    for j, w in enumerate(edges):
        for coeff, f in boundary_word(w):
            d1[vertices.index(f)][j] += coeff
    assert len(d1) == 4 and len(d1[0]) == 4
    # rank 3 over Z/2, so the cycles of the square's boundary have rank 1
    assert solve_dense(d1, [0] * 4, 2).kernel_rank == 1


def test_interval_diagonal_matches_convention():
    assert serre_diagonal_word("0") == [(1, "0", "0")]
    assert serre_diagonal_word("1") == [(1, "1", "1")]
    terms = sorted(serre_diagonal_word("*"))
    assert terms == [(1, "*", "0"), (1, "1", "*")]


def test_diagonal_supported_in_lower_upper_halves():
    # every term of diag(*) lies in I x 0 union 1 x I
    for s, a, b in serre_diagonal_word("*"):
        assert b == "0" or a == "1"


def test_vertices_are_grouplike():
    basis = complex_basis(cube_complex(3))
    for v in basis.cells_of_dim(0):
        assert basis.diag_of(v) == [(1, v, v)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagonal_axioms_on_cubes(n):
    basis = complex_basis(cube_complex(n))
    assert diagonal_is_chain_map(basis)
    assert diagonal_is_coassociative(basis)
    assert diagonal_is_counital(basis)


def test_diagonal_restricts_to_subcomplexes():
    big = complex_basis(cube_complex(3))
    sub = complex_basis(corner_faces_complex(3, 0))
    for c in sub.cells():
        assert sub.diag_of(c) == big.diag_of(c)


def test_corner_complex_cell_counts():
    def counts(complex_):
        return sorted(Counter(cell_dim(w) for w in complex_.cells).items())

    assert counts(corner_faces_complex(3, 0)) == [(0, 7), (1, 9), (2, 3)]
    assert counts(corner_faces_complex(2, 0)) == [(0, 3), (1, 2)]


def test_corner_union_is_cube_boundary():
    for n in (2, 3, 4):
        lo = corner_faces_complex(n, 0)
        hi = corner_faces_complex(n, 1)
        assert lo.union(hi).cells == cube_boundary_complex(n).cells


def test_regular_sequence_validation():
    faces = [facet_complex(3, i, 0) for i in range(3)]
    for perm in itertools.permutations(faces):
        assert is_regular_sequence(list(perm))
    # two opposite facets of the square do not glue
    assert not is_regular_sequence([facet_complex(2, 0, 0), facet_complex(2, 0, 1)])
    assert not is_regular_sequence([])
    assert not is_regular_sequence([facet_complex(2, 0, 0), cube_complex(2)])  # dimensions 1 and 2
    # the square x0 = 1 with the stray vertex 000 meets the square x2 = 0 in the
    # edge 1*0 and the vertex 000: nonempty, but not pure of dimension one
    with_vertex = facet_complex(3, 0, 1).union(CubicalComplex(frozenset({"000"})))
    assert with_vertex.intersection(facet_complex(3, 2, 0)).maximal_cells() == ["000", "1*0"]
    assert not is_regular_sequence([facet_complex(3, 2, 0), with_vertex])
    assert is_regular_sequence([facet_complex(3, 2, 0), facet_complex(3, 0, 1)])


def test_orientation_signs_on_cube_facets():
    for n in (1, 2, 3):
        b = cube_ball(n)
        for pos in range(n):
            for digit in (0, 1):
                f = facet_ball(n, pos, digit)
                expected = (-1) ** ((pos + 1) + digit)
                assert orientation_sign(b, f) == expected
    # opposite facets of the interval carry opposite signs
    b = cube_ball(1)
    s0 = orientation_sign(b, facet_ball(1, 0, 0))
    s1 = orientation_sign(b, facet_ball(1, 0, 1))
    assert s0 * s1 == -1


def test_orientation_sign_rejects_non_facet():
    b = cube_ball(2)
    with pytest.raises(UserInputError):
        orientation_sign(b, point_ball())


def test_opposite_face():
    b = cube_ball(2)
    face = facet_complex(2, 0, 0).cells  # {0*, 00, 01}
    op = opposite_face(b, face)
    assert op == frozenset({"1*", "*0", "*1", "00", "01", "10", "11"})
    # the face and its opposite meet exactly in the face's rim
    assert op & face == frozenset({"00", "01"})


def _balls_and_faces():
    """The standard balls and faces, each with the formula its boundary was once built from."""
    balls = [(cube_ball(n), cube_boundary_complex(n).cells) for n in range(5)]
    for n in range(1, 5):
        for digit in (0, 1):
            other = corner_faces_complex(n, 1 - digit)
            balls.append((corner_ball(n, digit), corner_faces_complex(n, digit).intersection(other).cells))
            for pos in range(n):
                cells = facet_complex(n, pos, digit).cells
                balls.append((facet_ball(n, pos, digit), {w for w in cells if any(w[i] != "*" for i in range(n) if i != pos)}))
    # a face's rim: the cells it shares with the closure of the rest of the boundary
    square = cube_ball(2)
    halves = [{"1*", "*1", "10", "01", "11"}, {"0*", "*0", "00", "01", "10"}]
    cut = [(square, face_ball_of(square, cells)) for cells in halves]
    cut += [(b, face) for b in map(cube_ball, range(1, 5)) for face in boundary_faces(b)]
    cut += [(b, face) for n in range(2, 5) for b in (corner_ball(n, 0), corner_ball(n, 1)) for face in boundary_faces(b)]
    faces = [(face, frozenset(face.basis.dims) & opposite_face(b, face.basis.dims)) for b, face in cut]
    return balls, faces


def test_derived_boundary_matches_the_construction_formulas():
    balls, faces = _balls_and_faces()
    assert len(faces) == 62
    for ball, formula in balls + faces:
        assert ball.boundary == frozenset(formula), ball.label
    for face, _ in faces:  # the cylinder rel the face's boundary: every cell but the sleeves
        jball, cyl = cylinder_ball(face)
        assert jball.boundary == {c for c in cyl.basis.dims if not c.startswith("e:")}, jball.label
    for ball, _ in balls + faces:
        for other in (cube_ball(1), cube_ball(2), corner_ball(2, 0)):
            pairs = [(x, y) for x in ball.basis.dims for y in other.basis.dims]
            formula = {x + y for x, y in pairs if x in ball.boundary or y in other.boundary}
            assert product_ball(ball, other).boundary == formula, (ball.label, other.label)


def test_cylinder_of_interval():
    ball = cube_ball(1)
    cyl = CylinderComplex(ball.basis, ball.boundary)
    basis = cyl.basis
    assert len(basis.cells_of_dim(2)) == 1  # one sleeve square
    assert dd_is_zero(basis)
    assert diagonal_is_chain_map(basis)
    assert diagonal_is_coassociative(basis)
    assert diagonal_is_counital(basis)
    # projection and inclusions are chain maps with proj . incl = id
    proj = cyl.projection()
    for incl in (include_bottom(cyl), include_top(cyl)):
        assert is_chain_map(incl, ball.basis, basis)
        for c in ball.basis.cells():
            composed = {}
            for x, v in incl[c].items():
                for y, w in proj[x].items():
                    composed[y] = composed.get(y, 0) + v * w
            assert composed == {c: 1}
    assert is_chain_map(proj, basis, ball.basis)


def test_cylinder_of_point_is_interval_shaped():
    ball = point_ball()
    cyl = CylinderComplex(ball.basis, frozenset())
    names = cyl.basis.cells()
    assert sorted(names) == ["+:", "-:", "e:"]
    assert cyl.basis.boundary_of("e:") == {"+:": 1, "-:": -1}


@pytest.mark.parametrize("n", [1, 2])
def test_cylinder_axioms_on_cubes(n):
    ball = cube_ball(n)
    cyl = CylinderComplex(ball.basis, ball.boundary)
    assert dd_is_zero(cyl.basis)
    assert diagonal_is_chain_map(cyl.basis)
    assert diagonal_is_coassociative(cyl.basis)
    assert diagonal_is_counital(cyl.basis)


@pytest.mark.parametrize("n", [1, 2])
def test_cylinder_reverse_is_a_chain_involution(n):
    ball = cube_ball(n)
    cyl = CylinderComplex(ball.basis, ball.boundary)
    rev = reverse(cyl)
    assert is_chain_map(rev, cyl.basis, cyl.basis)
    assert set(rev) == set(cyl.basis.dims)
    for c, chain in rev.items():
        twice = {}
        for x, v in chain.items():
            for y, w in rev[x].items():
                twice[y] = twice.get(y, 0) + v * w
        assert twice == {c: 1}
    for c in ball.boundary:
        assert rev["=:" + c] == {"=:" + c: 1}
    for c in set(ball.basis.dims) - ball.boundary:
        assert rev["-:" + c] == {"+:" + c: 1}
        assert rev["e:" + c] == {"e:" + c: -1}


def test_attached_cylinder_action_map_is_chain_map():
    for ball in (cube_ball(1), cube_ball(2), cube_ball(3), corner_ball(2), corner_ball(3)):
        for face in boundary_faces(ball):
            cyl = CylinderComplex(face.basis, face.boundary)
            att = AttachedCylinder(ball, cyl)
            assert dd_is_zero(att.basis)
            assert is_chain_map(att.action_map(), ball.basis, att.basis)
            # the cylinder's bottom end and sleeves are the only cells added, under their own names
            added = {c for c in cyl.basis.dims if c[:2] in ("-:", "e:")}
            assert att.added == added
            assert set(att.basis.dims) == set(ball.basis.dims) | added
            assert all(att.basis.dim(c) == cyl.basis.dim(c) for c in added)


def test_product_ball_concatenates():
    sq = product_ball(cube_ball(1), cube_ball(1))
    square = cube_ball(2)
    assert sq.basis.dims == square.basis.dims
    assert sq.basis.bnd == square.basis.bnd
    assert sq.boundary == square.boundary
    mixed = product_ball(facet_ball(1, 0, 1), cube_ball(1))
    assert set(mixed.basis.dims) == facet_complex(2, 0, 1).cells
    for c in ("1*", "11", "10"):
        assert mixed.basis.diag_of(c) == serre_diagonal_word(c)


def test_diagonal_and_cylinder_of_the_interval():
    assert sorted(serre_diagonal_word("*")) == [(1, "*", "0"), (1, "1", "*")]
    basis = complex_basis(cube_complex(1))
    cyl = CylinderComplex(basis, cube_boundary_complex(1).cells)
    assert len(cyl.basis.cells_of_dim(2)) == 1
    with pytest.raises(UserInputError):
        basis.diag_of("**")


def test_corner_ball_boundary():
    t1 = corner_ball(2, 0)
    assert t1.boundary == frozenset({"01", "10"})
    t2 = corner_ball(3, 0)
    assert all(("0" in w and "1" in w) for w in t2.boundary)
