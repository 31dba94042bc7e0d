import math
import random

from chainops.cli import main
from chainops.complexes import OperatorModule, homology, verify_differential
from chainops.dold_kan import denormalize, normalize, surjections
from chainops.freemod import FreeModuleMap
from chainops.randomgen import random_chain_complex
from chainops.rings import ZZ, Zmod


def simplicial_identity_violations(K):
    """All five simplicial identity families of a simplicial module;
    returns violation tags.

    Families whose composites would leave the stored degree range (the
    module is a truncation) are skipped at the boundary.
    """
    bad = []
    top = max(K.modules, default=-1)
    for n in range(top + 1):
        if n >= 2:
            for j in range(n + 1):
                for i in range(j):
                    lhs = K.face(n - 1, i).compose(K.face(n, j))
                    rhs = K.face(n - 1, j - 1).compose(K.face(n, i))
                    if lhs != rhs:
                        bad.append(("dd", n, i, j))
        if n + 2 <= top:
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = K.degeneracy(n + 1, j + 1).compose(
                        K.degeneracy(n, i))
                    rhs = K.degeneracy(n + 1, i).compose(
                        K.degeneracy(n, j))
                    if lhs != rhs:
                        bad.append(("ss", n, i, j))
        if n + 1 <= top:
            for j in range(n + 1):
                sj = K.degeneracy(n, j)
                for i in range(n + 2):
                    lhs = K.face(n + 1, i).compose(sj)
                    if i in (j, j + 1):
                        rhs = FreeModuleMap.identity(K.module(n))
                    elif i < j:
                        rhs = K.degeneracy(n - 1, j - 1).compose(
                            K.face(n, i))
                    else:
                        rhs = K.degeneracy(n - 1, j).compose(
                            K.face(n, i - 1))
                    if lhs != rhs:
                        bad.append(("ds", n, i, j))
    return bad


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
                assert simplicial_identity_violations(K) == []

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


def eager_maps(L, K, nmax):
    """Every face and degeneracy of K = denormalize(L, nmax), built up front
    by the eager loops, independently of the module's own rule."""
    def label(eta, r, n, x):
        return x if r == n else ("s", eta, x)

    def pieces(n):
        out = [(tuple(range(n + 1)), n)] if n in L.modules else []
        for r in sorted(L.modules, reverse=True):
            if r < n:
                out.extend((eta, r) for eta in surjections(n, r))
        return out

    def act(n, m, phi):
        entries = {}
        for eta, r in pieces(n):
            psi = tuple(eta[phi[t]] for t in range(m + 1))
            if set(psi) == set(range(r + 1)):
                for x in L.module(r).basis:
                    entries[(label(psi, r, m, x), label(eta, r, n, x))] = 1
            elif set(psi) == set(range(1, r + 1)):
                eta2 = tuple(v - 1 for v in psi)
                for (t, s), c in L.differential(r).entries.items():
                    key = (label(eta2, r - 1, m, t), label(eta, r, n, s))
                    entries[key] = entries.get(key, 0) + c
        return FreeModuleMap(K.module(n), K.module(m), entries)

    faces, degens = {}, {}
    for n in range(nmax + 1):
        if not K.module(n).rank:
            continue
        for i in range(n + 1):
            if n >= 1:
                faces[(n, i)] = act(
                    n, n - 1, tuple(t if t < i else t + 1 for t in range(n)))
            if n + 1 <= nmax:
                degens[(n, i)] = act(
                    n, n + 1, tuple(t if t <= i else t - 1
                                    for t in range(n + 2)))
    return faces, degens


class TestLazyStructureMaps:
    def test_maps_match_the_eager_construction(self):
        rng = random.Random(7)
        for ring in (ZZ, Zmod(2), Zmod(3), Zmod(4)):
            for nmax in range(6):
                L = random_chain_complex(ring, rng.randint(1, 4), 2, rng)
                K = denormalize(L, nmax)
                faces, degens = eager_maps(L, K, nmax)
                for n in range(nmax + 1):
                    for i in range(n + 1):
                        assert K.face(n, i) == faces.get(
                            (n, i), FreeModuleMap.zero(K.module(n),
                                                       K.module(n - 1)))
                        assert K.degeneracy(n, i) == degens.get(
                            (n, i), FreeModuleMap.zero(K.module(n),
                                                       K.module(n + 1)))
                assert simplicial_identity_violations(K) == []

    def test_roundtrip_reads_no_degeneracy(self):
        rng = random.Random(8)
        for ring in (ZZ, Zmod(2), Zmod(3), Zmod(4)):
            L = random_chain_complex(ring, 4, 3, rng)
            K = denormalize(L, max(L.modules, default=0) + 1)
            normalize(K)
            assert K.maps
            assert not [key for key in K.maps if key[0] == "s"]

    def test_cli_roundtrip_builds_no_degeneracy(self, monkeypatch, capsys):
        read = []
        structure_map = OperatorModule.structure_map

        def recording(self, key):
            read.append(key)
            return structure_map(self, key)

        monkeypatch.setattr(OperatorModule, "structure_map", recording)
        for ring in ("Z", "Z/2", "Q"):
            assert main(["dold-kan-roundtrip", "--count", "3",
                         "--ring", ring]) == 0
        assert {key[0] for key in read} == {"d"}
