import math
import random

from chainops.complexes import homology, verify_differential
from chainops.dold_kan import denormalize, normalize, surjections
from chainops.randomgen import random_chain_complex
from chainops.rings import ZZ, Zmod


class TestSurjections:
    def test_counts(self):
        for n in range(5):
            for r in range(n + 1):
                assert len(surjections(n, r)) == math.comb(n, r)

    def test_all_monotone_surjective(self):
        for eta in surjections(4, 2):
            assert sorted(eta) == list(eta)
            assert set(eta) == {0, 1, 2}


class TestDenormalize:
    def test_simplicial_identities(self):
        rng = random.Random(1)
        for ring in (ZZ, Zmod(3)):
            for _ in range(5):
                L = random_chain_complex(ring, 4, 3, rng)
                K = denormalize(L, 5)
                assert K.check_identities() == []

    def test_rank_formula(self):
        # DN(L)_n has one copy of L_r per surjection [n] ->> [r]
        rng = random.Random(2)
        L = random_chain_complex(ZZ, 3, 3, rng)
        K = denormalize(L, 4)
        for n in range(5):
            expected = sum(math.comb(n, r) * L.module(r).rank
                           for r in range(n + 1))
            assert K.module(n).rank == expected


class TestRoundTrip:
    def test_literal_identity_many_seeds(self):
        rng = random.Random(3)
        for ring in (ZZ, Zmod(3), Zmod(2), Zmod(4), Zmod(6)):
            for _ in range(12):
                L = random_chain_complex(ring, 5, 3, rng)
                top = max(L.modules, default=0)
                N = normalize(denormalize(L, top + 1))
                assert N.modules == L.modules
                assert N.differentials == L.differentials

    def test_normalized_part_is_a_complex(self):
        rng = random.Random(4)
        L = random_chain_complex(ZZ, 4, 3, rng)
        N = normalize(denormalize(L, 5))
        assert verify_differential(N) == []

    def test_homology_preserved(self):
        rng = random.Random(5)
        L = random_chain_complex(Zmod(3), 4, 3, rng)
        N = normalize(denormalize(L, 5))
        for n in range(5):
            assert homology(N, n) == homology(L, n)
