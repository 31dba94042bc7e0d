import math
from fractions import Fraction

import pytest

from chainops.bar_hopf import (
    AugmentedDGA,
    check_connected,
    h0_hopf,
    indecomposables,
    one_generator_dga,
    reduced_bar,
    shuffle_words,
    square_generator_dga,
    trivial_dga,
)
from chainops.homology_classes import HomologySpace

FIXTURES = [trivial_dga, one_generator_dga, square_generator_dga]


class TestFixtures:
    @pytest.mark.parametrize("make", FIXTURES)
    def test_algebra_axioms(self, make):
        rep = make().verify()
        assert rep["passed"], rep["failures"][:3]

    @pytest.mark.parametrize("make", FIXTURES)
    def test_connected(self, make):
        rep = check_connected(make())
        assert rep["passed"], rep["failures"][:3]

    def test_degree_zero_generator_rejected(self):
        # an extra generator in bidegree (0, 1) breaks connectedness
        A = AugmentedDGA("bad", {"1": (0, 0), "t": (0, 1)}, "1",
                         mult={("t", "t"): {}})
        rep = check_connected(A)
        assert not rep["passed"]
        assert rep["failures"][0]["check"] == "degree-zero"

    def test_square_fixture_multiplication(self):
        A = square_generator_dga()
        one = Fraction(1)
        assert A.product({"x": one}, {"x": one}) == {"y": one}
        assert A.product({"1": one}, {"x": one}) == {"x": one}
        assert A.augment(A.product({"x": one}, {"x": one})) == 0


class TestBarComplex:
    @pytest.mark.parametrize("make", FIXTURES)
    def test_d_squared_zero(self, make):
        B = reduced_bar(make(), 4, 4)
        rep = B.verify()
        assert rep["square_failures"] == []

    def test_trivial_bar_is_a_point(self):
        B = reduced_bar(trivial_dga(), 4)
        assert HomologySpace(B.complex, 0).rank == 1

    def test_one_generator_words(self):
        # letters of shifted degree zero: one word per length
        B = reduced_bar(one_generator_dga(), 4, 2)
        assert B.modules[0].rank == 5  # (), (x), (x,x), (x,x,x), (x,x,x,x)

    def test_one_generator_h0_is_polynomial(self):
        B = reduced_bar(one_generator_dga(), 4, 2)
        assert HomologySpace(B.complex, 0).rank == 5

    def test_boundary_collapses_adjacent_letters(self):
        A = square_generator_dga()
        B = reduced_bar(A, 3, 6)
        # d(x|x) has the collapse term (x.x) = (y) with a sign
        d = B._boundary(("x", "x"))
        assert ("y",) in d
        assert d[("y",)] in (Fraction(1), Fraction(-1))


class TestShuffles:
    def test_count_is_binomial(self):
        A = one_generator_dga()
        for n1 in range(1, 4):
            for n2 in range(1, 4):
                total = sum(abs(c) for c in shuffle_words(
                    A, ("x",) * n1, ("x",) * n2).values())
                assert total == math.comb(n1 + n2, n1)

    def test_degree_zero_letters_shuffle_without_signs(self):
        A = one_generator_dga()
        out = shuffle_words(A, ("x",), ("x", "x"))
        assert out == {("x", "x", "x"): Fraction(3)}


class TestHopf:
    @pytest.mark.parametrize("make", FIXTURES)
    def test_bialgebra_and_antipode_to_length_4(self, make):
        B = reduced_bar(make(), 4, 4)
        H = h0_hopf(B)
        rep = H.verify()
        assert rep["passed"], rep["failures"][:3]

    def test_antipode_on_a_letter(self):
        B = reduced_bar(one_generator_dga(), 4, 2)
        H = h0_hopf(B)
        S = H.antipode({("x",): Fraction(1)})
        assert S == {("x",): Fraction(-1)}

    def test_coproduct_is_deconcatenation(self):
        B = reduced_bar(one_generator_dga(), 4, 2)
        H = h0_hopf(B)
        out = H.coproduct({("x", "x"): Fraction(1)})
        assert out == {((), ("x", "x")): Fraction(1),
                       (("x",), ("x",)): Fraction(1),
                       (("x", "x"), ()): Fraction(1)}

    def test_product_is_commutative(self):
        B = reduced_bar(square_generator_dga(), 4, 4)
        H = h0_hopf(B)
        for x in H.basis:
            for y in H.basis:
                assert H.product(x, y) == H.product(y, x)


class TestCoLie:
    @pytest.mark.parametrize("make", FIXTURES)
    def test_co_jacobi(self, make):
        B = reduced_bar(make(), 4, 4)
        L = indecomposables(h0_hopf(B))
        rep = L.verify_co_jacobi()
        assert rep["passed"], rep["failures"][:3]

    def test_one_generator_has_one_indecomposable(self):
        B = reduced_bar(one_generator_dga(), 4, 2)
        L = indecomposables(h0_hopf(B))
        assert len(L.basis) == 1

    def test_cobracket_is_antisymmetric(self):
        B = reduced_bar(square_generator_dga(), 4, 4)
        L = indecomposables(h0_hopf(B))
        for x in L.basis:
            br = L.cobracket(x)
            for (a, b), c in br.items():
                assert br.get((b, a), Fraction(0)) == -c

    @pytest.mark.parametrize("length, lyndon", [(2, 3), (3, 5)])
    def test_two_generators_count_lyndon_words(self, length, lyndon):
        # closed degree-1 generators with zero products: H^0 of the bar
        # construction is the shuffle algebra on two letters, whose
        # indecomposables up to word length n are the Lyndon words
        basis = {"1": (0, 0), "a": (1, 1), "b": (1, 1)}
        mult = {(u, v): {} for u in "ab" for v in "ab"}
        A = AugmentedDGA("two", basis, "1", mult=mult)
        L = indecomposables(h0_hopf(reduced_bar(A, length, 4)))
        assert len(L.basis) == lyndon
        assert L.verify_co_jacobi()["passed"]
