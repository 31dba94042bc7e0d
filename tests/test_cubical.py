import math
import random

from chainops.complexes import ChainComplex, verify_differential
from chainops.cubical import dnc, dnc_inclusion, dnc_projection, nc
from chainops.freemod import FreeModule, FreeModuleMap
from chainops.randomgen import random_chain_complex
from chainops.rings import ZZ, Zmod


class TestDnc:
    def test_cubical_identities(self):
        rng = random.Random(1)
        for ring in (ZZ, Zmod(2), Zmod(3)):
            for _ in range(4):
                L = random_chain_complex(ring, 3, 3, rng)
                assert dnc(L, 4).check_identities() == []

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
            K = dnc(L, 5)
            inc = dnc_inclusion(L, K)
            proj = dnc_projection(L, K)
            assert inc.commutes_with_differential()
            assert proj.commutes_with_differential()

    def test_projection_retracts_inclusion(self):
        rng = random.Random(5)
        L = random_chain_complex(ZZ, 4, 3, rng)
        K = dnc(L, 5)
        comp = dnc_projection(L, K).compose(dnc_inclusion(L, K))
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
