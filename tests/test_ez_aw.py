"""The Eilenberg-Zilber shuffle of generating cycles on a product space.

The shuffle map sends x (x) y, for a p-simplex x and a q-simplex y, to the
signed sum over (p, q)-shuffles (mu, nu) of the pairs (s_nu x, s_mu y).  The
tests write it out by hand for p + q <= 2 and check, on
`product_space(circle, circle)` (cells listed from the factors, faces
taken in them), that the shuffles of the circle's generating cycles
generate the torus's homology.
"""

from chainops.homology_classes import HomologySpace
from chainops.rings import ZZ, Zmod
from chainops.simplicial import (
    Simplex,
    chains,
    circle_space,
    product_space,
    word_for_positions,
)

EDGES = ("e01", "e12", "e20")    # the circle's fundamental cycle


def _s(positions, base, base_dim):
    return Simplex(word_for_positions(positions), base, base_dim)


class TestTorusFundamentalClass:
    def test_h2_isomorphism_onto_product_classes(self):
        # shuffle of the two fundamental 1-cycles:
        # x (x) y -> (s_1 x, s_0 y) - (s_0 x, s_1 y)
        X = Y = circle_space()
        C = chains(product_space(X, Y, name="torus"), ZZ)
        z = {}
        for a in EDGES:
            for b in EDGES:
                z[(_s([1], a, 1), _s([0], b, 1))] = 1
                z[(_s([0], a, 1), _s([1], b, 1))] = -1
        assert set(z) <= set(C.module(2).basis)
        H2 = HomologySpace(C, 2)
        assert (H2.rank, H2.divisors) == (1, (0,))
        assert H2.class_vector(z) in ((1,), (-1,))

    def test_h1_rank_two_preserved(self):
        # shuffles of a 1-cycle with a vertex: x (x) v -> (x, s_0 v) and
        # v (x) y -> (s_0 v, y); their classes form a basis of H_1 over Z/5
        X = Y = circle_space()
        C = chains(product_space(X, Y), Zmod(5))
        H1 = HomologySpace(C, 1)
        assert H1.rank == 2
        first = {(_s([], e, 1), _s([0], "v0", 0)): 1 for e in EDGES}
        second = {(_s([0], "v0", 0), _s([], e, 1)): 1 for e in EDGES}
        a, b = H1.class_vector(first)
        c, d = H1.class_vector(second)
        assert (a * d - b * c) % 5 != 0
