import itertools

import pytest

from chainops.complexes import homology, verify_differential
from chainops.rings import ZZ, Zmod
from chainops.simplicial import (
    FiniteSimplicialSet,
    ProductSpace,
    Simplex,
    chains,
    circle_space,
    classifying_space,
    cochains,
    pair_simplex,
    product_space,
    push_degeneracy,
    sphere_space,
    torus_space,
    word_for_positions,
)


def surjection_of_word(word: tuple, n: int) -> tuple:
    """The monotone surjection [n] ->> [n - len(word)] the word encodes.

    eta(t) = eta(t+1) exactly at the collapse positions of the word.
    """
    eta = []
    for t in range(n + 1):
        v = t
        for a in word:
            if v > a:
                v -= 1
        eta.append(v)
    return tuple(eta)


def point_space() -> FiniteSimplicialSet:
    return FiniteSimplicialSet("point", {0: ["*"]}, {})


class TestDegeneracyWords:
    def test_push_keeps_strictly_decreasing(self):
        word = ()
        for i in (0, 0, 1, 3, 2):
            word = push_degeneracy(word, i)
            assert all(a > b for a, b in zip(word, word[1:]))

    def test_word_for_positions_roundtrip(self):
        # the collapse set of the word is the position set we started from
        for k in range(4):
            for positions in itertools.combinations(range(5), k):
                word = word_for_positions(positions)
                n = 5
                eta = surjection_of_word(word, n)
                collapsed = {t for t in range(n) if eta[t] == eta[t + 1]}
                assert collapsed == set(positions)

    def test_surjection_is_monotone_surjection(self):
        word = word_for_positions([1, 3])
        eta = surjection_of_word(word, 4)
        assert eta == (0, 1, 1, 2, 2)


class TestFaceRewriting:
    def test_face_of_degenerate_identity_cases(self):
        X = circle_space()
        e = X.nondegenerate("e01")
        se = X.degeneracy(e, 1)
        # d_1 s_1 = d_2 s_1 = id
        assert X.face(se, 1) == e
        assert X.face(se, 2) == e

    def test_simplicial_identities_builtin_spaces(self):
        for X in (point_space(), circle_space(), sphere_space(2),
                  sphere_space(3), classifying_space(2, 4),
                  classifying_space(3, 3), torus_space()):
            assert X.check_simplicial_identities() == []

    def test_vertex_face_endpoints(self):
        X = circle_space()
        e = X.nondegenerate("e01")
        assert X.vertex_face(e, [0]) == X.nondegenerate("v0")
        assert X.vertex_face(e, [1]) == X.nondegenerate("v1")


class TestChains:
    def test_point(self):
        C = chains(point_space(), ZZ)
        assert homology(C, 0).free_rank == 1
        assert homology(C, 1).is_zero()

    def test_circle(self):
        C = chains(circle_space(), ZZ)
        assert verify_differential(C) == []
        assert homology(C, 0).free_rank == 1
        assert homology(C, 1).free_rank == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spheres(self, n):
        C = chains(sphere_space(n), ZZ)
        assert verify_differential(C) == []
        assert homology(C, 0).free_rank == 1
        assert homology(C, n).free_rank == 1
        for k in range(1, n):
            assert homology(C, k).is_zero()

    def test_torus(self):
        C = chains(torus_space(), ZZ)
        assert verify_differential(C) == []
        assert homology(C, 0).free_rank == 1
        assert homology(C, 1).free_rank == 2
        assert homology(C, 2).free_rank == 1

    def test_cochains_dualize(self):
        X = torus_space()
        D = cochains(X, Zmod(5))
        assert verify_differential(D) == []
        assert homology(D, 1).free_rank == 2


class TestClassifyingSpace:
    def test_bz2_integral_homology(self):
        # oracle: H_*(BZ/2; Z) = Z, Z/2, 0, Z/2, ... below the skeleton cap
        C = chains(classifying_space(2, 6), ZZ)
        assert homology(C, 0).free_rank == 1
        for n in range(1, 6):
            expected = (2,) if n % 2 == 1 else ()
            assert homology(C, n).free_rank == 0
            assert homology(C, n).divisors == expected

    def test_bz3_mod_p_betti_numbers(self):
        # oracle: H^n(BZ/p; Z/p) is one-dimensional in every degree
        C = chains(classifying_space(3, 5), Zmod(3))
        for n in range(5):
            assert homology(C, n).free_rank == 1

    def test_degenerate_inner_faces(self):
        X = classifying_space(3, 3)
        # (1, 2) has inner face (1+2) mod 3 = 0: a degenerate vertex
        f = X.face(X.nondegenerate((1, 2)), 1)
        assert f.is_degenerate
        assert f.base == ()

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            classifying_space(4, 3)


class TestProductSpace:
    def test_pair_simplex_strips_shared_collapses(self):
        X = Y = circle_space()
        a = X.degeneracy(X.nondegenerate("e01"), 0)
        b = Y.degeneracy(Y.nondegenerate("e12"), 0)
        out = pair_simplex(a, b)
        assert out.word == (0,)
        assert out.base == (X.nondegenerate("e01"), Y.nondegenerate("e12"))

    def test_nondegenerate_cell_counts_torus(self):
        # 9 vertices, 3*3*2 + 2*3*3 = 27 edges? count via Euler characteristic
        X = torus_space()
        counts = [len(X.simplices(n)) for n in (0, 1, 2)]
        assert counts[0] == 9
        assert counts[0] - counts[1] + counts[2] == 0  # chi(torus) = 0

    def test_product_with_point_is_identity_on_homology(self):
        X = product_space(circle_space(), point_space())
        C = chains(X, ZZ)
        assert homology(C, 0).free_rank == 1
        assert homology(C, 1).free_rank == 1


def _reference_product(X, Y):
    """X x Y with a face table built the eager way: every nondegenerate
    pair of every degree, and each of its faces taken in the factors."""
    simplices = {}
    for n in range(max(X.dims()) + max(Y.dims()) + 1):
        cells = []
        for px in X.dims():
            for py in Y.dims():
                if px > n or py > n or (n - px) + (n - py) > n:
                    continue
                for a_id in X.simplices(px):
                    for b_id in Y.simplices(py):
                        for I in itertools.combinations(range(n), n - px):
                            rest = [t for t in range(n) if t not in I]
                            for J in itertools.combinations(rest, n - py):
                                cells.append((
                                    Simplex(word_for_positions(I), a_id, px),
                                    Simplex(word_for_positions(J), b_id, py)))
        if cells:
            simplices[n] = sorted(cells)
    faces = {}
    for n, cells in simplices.items():
        for (a, b) in cells if n else ():
            for i in range(n + 1):
                faces[(n, (a, b), i)] = pair_simplex(X.face(a, i),
                                                     Y.face(b, i))
    return FiniteSimplicialSet(f"{X.name}x{Y.name}", simplices, faces)


class TestProductFaces:
    """The product's cells and faces, taken in the factors on demand,
    against an eagerly built face table; torus x circle has a product
    as its first factor, and its reference is built on the reference
    torus."""

    @pytest.fixture(params=["bz3xbz3", "circlexpoint", "torus",
                            "torusxcircle"])
    def spaces(self, request):
        circle = circle_space()
        if request.param == "bz3xbz3":
            X = classifying_space(3, 2)
            return product_space(X, X), _reference_product(X, X)
        if request.param == "circlexpoint":
            return (product_space(circle, point_space()),
                    _reference_product(circle, point_space()))
        torus = _reference_product(circle, circle)
        if request.param == "torus":
            return torus_space(), torus
        return (product_space(torus_space(), circle),
                _reference_product(torus, circle))

    def test_cells(self, spaces):
        P, R = spaces
        assert P.dims() == R.dims()
        for n in R.dims():
            assert P.simplices(n) == R.simplices(n), n

    def test_faces_and_vertex_faces(self, spaces):
        P, R = spaces
        compared = 0
        for n in R.dims():
            for base in R.simplices(n):
                sx = R.nondegenerate(base)
                assert P.nondegenerate(base) == sx
                for i in range(n + 1 if n else 0):
                    assert P.face(sx, i) == R.face(sx, i), (base, i)
                for k in range(1, n + 2):
                    for verts in itertools.combinations(range(n + 1), k):
                        assert P.vertex_face(sx, verts) == \
                            R.vertex_face(sx, verts), (base, verts)
                        compared += 1
        assert compared > 0

    def test_simplicial_identities(self, spaces):
        P, _ = spaces
        assert P.check_simplicial_identities() == []


class TestVertexFaceMemo:
    """vertex_face keeps one memo per space, keyed by the simplex and the
    vertices as a tuple."""

    @staticmethod
    def _bz3xbz3():
        X = classifying_space(3, 2)
        return product_space(X, X)

    @pytest.fixture(params=["bz3", "bz3xbz3"])
    def build(self, request):
        if request.param == "bz3":
            return lambda: classifying_space(3, 3)
        return self._bz3xbz3

    @staticmethod
    def _simplices(X):
        """Every nondegenerate simplex, and on a space with a face table
        each s_i of one below the top (the cross product restricts the
        degenerate components of product cells)."""
        top = max(X.dims())
        out = []
        for n in X.dims():
            for base in X.simplices(n):
                sx = X.nondegenerate(base)
                out.append(sx)
                if n < top and not isinstance(X, ProductSpace):
                    out.extend(X.degeneracy(sx, i) for i in range(n + 1))
        return out

    def test_memoised_faces_equal_fresh_ones(self, build):
        X = build()
        keys = [(sx, verts) for sx in self._simplices(X)
                for r in range(1, sx.dim + 2)
                for verts in itertools.combinations(range(sx.dim + 1), r)]
        # fill the memo in one sweep, then read each entry back from it
        faces = [X.vertex_face(sx, verts) for sx, verts in keys]
        for (sx, verts), face in zip(keys, faces):
            assert X.vertex_face(sx, verts) == face
            assert build().vertex_face(sx, verts) == face, (sx, verts)

    def test_spellings_of_the_vertices_share_an_entry(self, build,
                                                       monkeypatch):
        X = build()
        computed = []
        original = X._vertex_face

        def counting(sx, vertices):
            computed.append((sx, vertices))
            return original(sx, vertices)

        monkeypatch.setattr(X, "_vertex_face", counting)
        sx = X.nondegenerate(X.simplices(2)[-1])
        faces = {X.vertex_face(sx, vs) for vs in (range(2), [0, 1], (0, 1))}
        assert len(faces) == 1
        assert computed == [(sx, (0, 1))]

    def test_spaces_do_not_share_entries(self):
        # two edges on the same labels, running in opposite directions
        def edge(tail, head):
            return FiniteSimplicialSet(
                "edge", {0: ["v0", "v1"], 1: ["e"]},
                {(1, "e", 0): Simplex((), head, 0),
                 (1, "e", 1): Simplex((), tail, 0)})

        X, Y = edge("v0", "v1"), edge("v1", "v0")
        e = X.nondegenerate("e")
        assert X.vertex_face(e, [0]) == X.nondegenerate("v0")
        assert Y.vertex_face(e, [0]) == Y.nondegenerate("v1")
        assert X.vertex_face(e, [0]) == X.nondegenerate("v0")
        PX, PY = product_space(X, X), product_space(Y, Y)
        ee = Simplex((), (e, e), 1)
        front = PX.vertex_face(ee, [0])
        assert front == Simplex((), (X.nondegenerate("v0"),) * 2, 0)
        assert PY.vertex_face(ee, [0]) == Simplex(
            (), (Y.nondegenerate("v1"),) * 2, 0)
        assert PX.vertex_face(ee, [0]) == front
