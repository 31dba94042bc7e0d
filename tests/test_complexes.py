import random

from chainops.complexes import (
    ChainComplex,
    HomologyGroup,
    OperatorModule,
    homology,
    verify_differential,
)
from chainops.freemod import FreeModule, FreeModuleMap
from chainops.randomgen import random_chain_complex
from chainops.rings import QQ, ZZ, Zmod


def two_term(ring, value, top_degree=1):
    """ring --value--> ring in degrees top_degree, top_degree-1."""
    m1 = FreeModule(ring, [("e", top_degree)])
    m0 = FreeModule(ring, [("e", top_degree - 1)])
    d = FreeModuleMap(m1, m0, {(("e", top_degree - 1), ("e", top_degree)): value})
    return ChainComplex(ring, {top_degree: m1, top_degree - 1: m0},
                        {top_degree: d})


def circle_complex(ring=ZZ):
    """Simplicial chains of the 3-vertex circle triangulation."""
    verts = FreeModule(ring, ["v0", "v1", "v2"])
    edges = FreeModule(ring, ["e01", "e12", "e20"])
    d = FreeModuleMap(edges, verts, {
        ("v1", "e01"): 1, ("v0", "e01"): -1,
        ("v2", "e12"): 1, ("v1", "e12"): -1,
        ("v0", "e20"): 1, ("v2", "e20"): -1,
    })
    return ChainComplex(ring, {0: verts, 1: edges}, {1: d})


class TestVerifyDifferential:
    def test_valid_empty_report(self):
        assert verify_differential(circle_complex()) == []

    def test_d_squared_two(self):
        m = {n: FreeModule(ZZ, [("a", n)]) for n in range(3)}
        # d1 = 1, d2 = 2 gives d o d = 2 != 0 out of degree 2
        d1 = FreeModuleMap(m[1], m[0], {(("a", 0), ("a", 1)): 1})
        d2 = FreeModuleMap(m[2], m[1], {(("a", 1), ("a", 2)): 2})
        C = ChainComplex(ZZ, m, {1: d1, 2: d2})
        assert verify_differential(C) == [2]

    def test_zero_complex(self):
        assert verify_differential(ChainComplex(ZZ, {})) == []


class TestHomology:
    def test_circle(self):
        # oracle by hand: 3 vertices, 3 edges, boundary rank 2
        C = circle_complex()
        assert homology(C, 0) == HomologyGroup(ZZ, 1, ())
        assert homology(C, 1) == HomologyGroup(ZZ, 1, ())

    def test_zero_complex(self):
        C = ChainComplex(ZZ, {})
        for n in range(-2, 3):
            assert homology(C, n).is_zero()

    def test_torsion(self):
        C = two_term(ZZ, 2)
        assert homology(C, 0) == HomologyGroup(ZZ, 0, (2,))
        assert homology(C, 1) == HomologyGroup(ZZ, 0, ())

    def test_field(self):
        C = circle_complex(Zmod(5))
        assert homology(C, 0).free_rank == 1
        assert homology(C, 1).free_rank == 1

    def test_composite_modulus(self):
        C = two_term(Zmod(6), 2)
        # kernel of *2 on Z/6 is {0,3} = Z/2; cokernel is Z/2
        assert homology(C, 0) == HomologyGroup(Zmod(6), 0, (2,))
        assert homology(C, 1) == HomologyGroup(Zmod(6), 0, (2,))


class TestEulerCharacteristic:
    def test_random_complexes(self):
        for ring in (ZZ, Zmod(3), QQ):
            rng = random.Random(17)
            for _ in range(8):
                C = random_chain_complex(ring, 5, 4, rng)
                assert verify_differential(C) == []
                # the complex is supported in degrees [0, 5]
                chi_ranks = sum((-1) ** n * C.module(n).rank for n in range(6))
                chi_hom = sum((-1) ** n * homology(C, n).free_rank
                              for n in range(6))
                assert chi_ranks == chi_hom


class TestOperatorModule:
    def test_zero_module_maps_never_reach_the_rule(self):
        def rule(key, src, tgt):
            raise AssertionError(f"rule reached for {key!r}")

        M = FreeModule(ZZ, ["x"])
        K = OperatorModule(ZZ, {0: M, 2: M}, rule)
        for key in (("d", 0, 0), ("s", 0, 0), ("d", 2, 1), ("s", 2, 0)):
            f = K.structure_map(key)
            assert f.is_zero() and f.source == M
        assert sorted(K.modules) == [0, 2]

    def test_each_map_is_built_once_under_its_own_key(self):
        built = []

        def rule(key, src, tgt):
            built.append(key)
            return FreeModuleMap(src, tgt, {("y", "x"): key[2]})

        K = OperatorModule(ZZ, {0: FreeModule(ZZ, ["y"]),
                                1: FreeModule(ZZ, ["x"])}, rule)
        for _ in range(2):
            assert [K.structure_map(("d", 1, i)).entries for i in (1, 2)] \
                == [{("y", "x"): 1}, {("y", "x"): 2}]
        assert built == [("d", 1, 1), ("d", 1, 2)]
