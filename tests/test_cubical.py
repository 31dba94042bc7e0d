import itertools
import math
import random

from chainops.complexes import ChainComplex, verify_differential
from chainops.cubical import dnc, dnc_inclusion, dnc_projection, nc
from chainops.freemod import FreeModule, FreeModuleMap
from chainops.randomgen import random_chain_complex
from chainops.rings import ZZ, Zmod


def cubical_identity_violations(K):
    """The cubical identity families of a cubical module, truncation-aware;
    returns violation tags."""
    bad = []
    top = max(K.modules, default=-1)
    cs = (0, 1)
    for n in range(top + 1):
        if n >= 2:
            for j in range(1, n + 1):
                for i in range(1, j):
                    for a in cs:
                        for b in cs:
                            lhs = K.face(n - 1, i, a).compose(
                                K.face(n, j, b))
                            rhs = K.face(n - 1, j - 1, b).compose(
                                K.face(n, i, a))
                            if lhs != rhs:
                                bad.append(("dd", n, i, j, a, b))
        if n + 2 <= top:
            for j in range(1, n + 2):
                for i in range(1, j + 1):
                    lhs = K.degeneracy(n + 1, j + 1).compose(
                        K.degeneracy(n, i))
                    rhs = K.degeneracy(n + 1, i).compose(
                        K.degeneracy(n, j))
                    if lhs != rhs:
                        bad.append(("ss", n, i, j))
        if n + 1 <= top:
            for j in range(1, n + 2):
                sj = K.degeneracy(n, j)
                for i in range(1, n + 2):
                    for c in cs:
                        lhs = K.face(n + 1, i, c).compose(sj)
                        if i == j:
                            rhs = FreeModuleMap.identity(K.module(n))
                        elif i < j:
                            rhs = K.degeneracy(n - 1, j - 1).compose(
                                K.face(n, i, c))
                        else:
                            rhs = K.degeneracy(n - 1, j).compose(
                                K.face(n, i - 1, c))
                        if lhs != rhs:
                            bad.append(("ds", n, i, j, c))
    return bad


def commutes_with_differential(f):
    """Whether the chain map f satisfies d f = f d in every degree."""
    step = f.source.step
    for n in sorted(set(f.source.modules) | set(f.target.modules)):
        lhs = f.target.differential(n).compose(f.component(n))
        rhs = f.component(n + step).compose(f.source.differential(n))
        if lhs != rhs:
            return False
    return True


class TestDnc:
    def test_cubical_identities(self):
        rng = random.Random(1)
        for ring in (ZZ, Zmod(2), Zmod(3)):
            for _ in range(4):
                L = random_chain_complex(ring, 3, 3, rng)
                assert cubical_identity_violations(dnc(L, 4)) == []

    def test_rank_formula(self):
        rng = random.Random(2)
        L = random_chain_complex(ZZ, 3, 3, rng)
        K = dnc(L, 4)
        for n in range(5):
            expected = sum(math.comb(n, n - r) * L.module(r).rank
                           for r in range(n + 1))
            assert K.module(n).rank == expected

    def test_nc_is_a_complex(self):
        rng = random.Random(3)
        L = random_chain_complex(ZZ, 4, 3, rng)
        assert verify_differential(nc(dnc(L, 5))) == []


class TestSplitting:
    """nc(dnc(L)) contains L as a direct summand subcomplex: the degenerate
    copies form a complement on which the two face flavours cancel."""

    def test_inclusion_and_projection_are_chain_maps(self):
        rng = random.Random(4)
        for ring in (ZZ, Zmod(2), Zmod(5)):
            L = random_chain_complex(ring, 4, 3, rng)
            N = nc(dnc(L, 5))
            inc = dnc_inclusion(L, N)
            proj = dnc_projection(L, N)
            assert commutes_with_differential(inc)
            assert commutes_with_differential(proj)

    def test_projection_retracts_inclusion(self):
        rng = random.Random(5)
        L = random_chain_complex(ZZ, 4, 3, rng)
        N = nc(dnc(L, 5))
        comp = dnc_projection(L, N).compose(dnc_inclusion(L, N))
        for n in comp.source.modules:
            assert comp.component(n) == \
                FreeModuleMap.identity(comp.source.module(n))

    def test_undegenerate_part_is_a_subcomplex(self):
        # differential entries never map a degenerate copy to a plain label
        rng = random.Random(6)
        L = random_chain_complex(ZZ, 4, 3, rng)
        N = nc(dnc(L, 5))
        plain = {x for n in L.modules for x in L.module(n).basis}
        for n, d in N.differentials.items():
            for (t, s), _ in d.entries.items():
                if s in plain:
                    assert t in plain

    def test_degenerate_copies_survive(self):
        # the complement is NOT acyclic: for L = Z in degree 0, every level
        # of nc(dnc(L)) is the fully degenerate copy with zero differential
        L = ChainComplex(ZZ, {0: FreeModule(ZZ, ["pt"])}, {})
        N = nc(dnc(L, 3))
        for n in range(4):
            assert N.module(n).rank == 1
            assert N.differential(n).is_zero()


def eager_maps(L, K, nmax):
    """Every face and degeneracy of K = dnc(L, nmax), built up front by the
    eager loops, independently of the module's own rule."""
    def label(D, x):
        return x if not D else ("s", D, x)

    def summands(n):
        return sorted((D for k in range(n + 1) if n - k in L.modules
                       for D in itertools.combinations(range(1, n + 1), k)),
                      key=len)

    ring = L.ring
    faces, degens = {}, {}
    for n in range(nmax + 1):
        if not K.module(n).rank:
            continue
        for i in range(1, n + 1):
            for c in (0, 1):
                entries = {}
                for D in summands(n):
                    r = n - len(D)
                    if i in D:
                        D2 = tuple(j if j < i else j - 1 for j in D if j != i)
                        for x in L.module(r).basis:
                            entries[(label(D2, x), label(D, x))] = 1
                    elif i - sum(1 for j in D if j < i) == r and c == 0:
                        D2 = tuple(j if j < i else j - 1 for j in D)
                        for (t, s), v in L.differential(r).entries.items():
                            key = (label(D2, t), label(D, s))
                            entries[key] = entries.get(key, 0) + (-1) ** r * v
                faces[(n, i, c)] = FreeModuleMap(K.module(n),
                                                 K.module(n - 1), entries)
        if n + 1 <= nmax:
            for i in range(1, n + 2):
                entries = {}
                for D in summands(n):
                    D2 = tuple(sorted((i,) + tuple(j if j < i else j + 1
                                                   for j in D)))
                    for x in L.module(n - len(D)).basis:
                        entries[(label(D2, x), label(D, x))] = 1
                degens[(n, i)] = FreeModuleMap(K.module(n), K.module(n + 1),
                                               entries)
    return faces, degens


class TestLazyStructureMaps:
    def test_maps_match_the_eager_construction(self):
        rng = random.Random(7)
        for ring in (ZZ, Zmod(2), Zmod(3), Zmod(4)):
            for nmax in range(6):
                L = random_chain_complex(ring, rng.randint(1, 4), 2, rng)
                K = dnc(L, nmax)
                faces, degens = eager_maps(L, K, nmax)
                for n in range(nmax + 1):
                    for i, c in itertools.product(range(1, n + 1), (0, 1)):
                        assert K.face(n, i, c) == faces.get(
                            (n, i, c), FreeModuleMap.zero(K.module(n),
                                                          K.module(n - 1)))
                    for i in range(1, n + 2):
                        assert K.degeneracy(n, i) == degens.get(
                            (n, i), FreeModuleMap.zero(K.module(n),
                                                       K.module(n + 1)))
                assert cubical_identity_violations(K) == []

    def test_nc_reads_no_degeneracy(self):
        rng = random.Random(8)
        for ring in (ZZ, Zmod(2), Zmod(3), Zmod(4)):
            L = random_chain_complex(ring, 4, 3, rng)
            K = dnc(L, max(L.modules, default=0) + 1)
            nc(K)
            assert K.maps
            assert not [key for key in K.maps if key[0] == "s"]
