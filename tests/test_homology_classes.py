import random

import pytest
from sympy import Matrix, ZZ as sympy_ZZ
from sympy.matrices.normalforms import invariant_factors

from chainops.complexes import ChainComplex, ChainMap, homology
from chainops.freemod import FreeModule, FreeModuleMap
from chainops.homology_classes import HomologySpace
from chainops.linalg import kernel_matrix, solve_matrix
from chainops.randomgen import random_chain_complex
from chainops.rings import QQ, ZZ, Zmod
from chainops.simplicial import chains, circle_space, classifying_space

from test_linalg import lift_lattice_oracle


def _perturb(ring, rep, boundary):
    out = dict(rep)
    for k, v in boundary.items():
        t = ring.add(out.get(k, ring.zero()), v)
        if ring.is_zero(t):
            out.pop(k, None)
        else:
            out[k] = t
    return out


def _invariant_factors(rows):
    """The nonzero invariant factors of an integer matrix, by sympy."""
    if not rows or not rows[0]:
        return []
    return [abs(int(d)) for d in
            invariant_factors(Matrix(rows), domain=sympy_ZZ) if d]


def _oracle_group(C, n):
    """(free rank, divisors > 1) of H_n, computed without HomologySpace.

    Over Z and Q the ranks of the differentials give the free rank, and
    over Z the invariant factors > 1 of the map into degree n are the
    torsion (the kernel is a direct summand).  Over Z/m, H_n is the
    lattice {u : d u = 0 mod m} (lift_lattice_oracle) modulo the image
    plus m Z^n: the image read in the lattice's coordinates, and its
    invariant factors."""
    ring = C.ring
    dim = C.module(n).rank
    d_out = C.differential(n).to_matrix()
    d_in = C.differential(n + 1).to_matrix()
    if ring.kind == "Q":
        rank = (lambda A: Matrix(A).rank() if A and A[0] else 0)
        return dim - rank(d_out) - rank(d_in), ()
    if ring.kind == "Z":
        into = _invariant_factors(d_in)
        return (dim - len(_invariant_factors(d_out)) - len(into),
                tuple(d for d in into if d > 1))
    m = ring.modulus
    lattice = Matrix(lift_lattice_oracle(d_out, m) if d_out
                     else [[int(i == j) for j in range(dim)]
                           for i in range(dim)])
    image = [list(col) for col in zip(*d_in)] + [
        [m * int(i == j) for j in range(dim)] for i in range(dim)]
    coords = (Matrix(image) * lattice.inv()).tolist()
    divisors = [d for d in _invariant_factors(coords) if d > 1]
    if ring.is_field():
        return len(divisors), ()
    return 0, tuple(divisors)


class TestRanksMatchHomology:
    @pytest.mark.parametrize("ring", (ZZ, QQ, Zmod(3), Zmod(4), Zmod(6)),
                             ids=str)
    def test_random_complexes_match_an_independent_oracle(self, ring):
        rng = random.Random(1)
        compared = torsion = 0
        for _ in range(12):
            C = random_chain_complex(ring, 4, 4, rng)
            for n in range(5):
                if not C.module(n).rank:
                    continue
                G = homology(C, n)
                assert (G.free_rank, G.divisors) == _oracle_group(C, n), n
                compared += 1
                torsion += bool(G.divisors)
        assert compared > 30
        if ring in (ZZ, Zmod(4), Zmod(6)):
            assert torsion > 3


class TestClassArithmetic:
    def test_torsion_class_order(self):
        C = chains(classifying_space(2, 4), ZZ)
        H = HomologySpace(C, 1)
        assert H.divisors == (2,)
        rep = H.representative([1])
        assert H.class_vector(rep) == (1,)
        double = {k: 2 * v for k, v in rep.items()}
        assert H.class_vector(double) == (0,)

    def test_boundary_invariance(self):
        rng = random.Random(2)
        for ring in (ZZ, Zmod(5)):
            C = random_chain_complex(ring, 4, 3, rng)
            for n in range(4):
                H = HomologySpace(C, n)
                if H.rank == 0:
                    continue
                rep = H.representative([1] + [0] * (H.rank - 1))
                d = C.differential(n + 1)
                if not d.source.rank:
                    continue
                b = d.apply({d.source.basis[0]: ring.normalize(3)})
                assert H.class_vector(rep) == \
                    H.class_vector(_perturb(ring, rep, b))

    @pytest.mark.parametrize("m", (4, 6, 9), ids=lambda m: f"Z/{m}")
    def test_composite_modulus_classes(self, m):
        # over Z/m each generator's class is its unit vector, its divisor
        # times it is the zero class, and adding a boundary keeps it
        ring = Zmod(m)
        rng = random.Random(m)
        checked = 0
        for _ in range(10):
            C = random_chain_complex(ring, 4, 3, rng)
            for n in range(5):
                H = HomologySpace(C, n)
                d = C.differential(n + 1)
                for i, div in enumerate(H.divisors):
                    unit = [int(j == i) for j in range(H.rank)]
                    rep = H.representative(unit)
                    assert H.class_vector(rep) == tuple(unit)
                    multiple = {k: ring.mul(div, x) for k, x in rep.items()}
                    assert not any(H.class_vector(multiple))
                    if d.source.rank:
                        b = d.apply({d.source.basis[0]: 1})
                        assert H.class_vector(_perturb(ring, rep, b)) == \
                            tuple(unit)
                    checked += 1
        assert checked > 10

    def test_non_cycle_rejected(self):
        C = chains(circle_space(), ZZ)
        H = HomologySpace(C, 1)
        assert H.class_vector({"e01": 1}) is None

    def test_all_classes_count(self):
        C = chains(classifying_space(3, 3), Zmod(3))
        H = HomologySpace(C, 2)
        classes = dict(H.all_classes())
        assert len(classes) == 3 ** H.rank
        for coords, rep in classes.items():
            assert H.class_vector(rep) == coords


class TestFieldClasses:
    @pytest.mark.parametrize("ring", (Zmod(2), Zmod(3), Zmod(5), QQ),
                             ids=str)
    def test_cycle_minus_its_class_representative_is_a_boundary(self, ring):
        # checked against solve_matrix, not against the echelon bases:
        # v - representative(class_vector(v)) is a boundary, and the
        # representative of a nonzero class is not
        rng = random.Random(5)
        nonzero = 0
        for _ in range(12):
            C = random_chain_complex(ring, 4, 5, rng)
            for n in range(5):
                H = HomologySpace(C, n)
                d_in = C.differential(n - C.step).to_matrix()
                ker = kernel_matrix(C.differential(n).to_matrix(), ring)
                for _ in range(4):
                    coeffs = [ring.normalize(rng.randint(-4, 4))
                              for _ in ker]
                    col = [ring.normalize(sum(c * k[i]
                                              for c, k in zip(coeffs, ker)))
                           for i in range(len(H.basis))]
                    v = {b: x for b, x in zip(H.basis, col) if x}
                    coords = H.class_vector(v)
                    assert len(coords) == H.rank
                    rep = H.representative(coords)
                    assert H.class_vector(rep) == coords
                    w = [ring.normalize(x - rep.get(b, ring.zero()))
                         for b, x in zip(H.basis, col)]
                    assert solve_matrix(d_in, w, ring) is not None
                    nonzero += any(coords)
                    # and the generators are independent modulo boundaries
                    coords = [ring.normalize(rng.randint(-4, 4))
                              for _ in range(H.rank)]
                    if any(coords):
                        rep = H.representative(coords)
                        assert solve_matrix(
                            d_in, [rep.get(b, ring.zero()) for b in H.basis],
                            ring) is None
        assert nonzero > 20


class TestInducedMap:
    def test_identity_chain_map(self):
        # H_n(f) column by column: the class of f applied to each
        # generator's representative
        rng = random.Random(3)
        C = random_chain_complex(Zmod(7), 4, 3, rng)
        ident = ChainMap(C, C, {n: FreeModuleMap.identity(C.module(n))
                                for n in C.modules})
        for n in range(4):
            H = HomologySpace(C, n)
            cols = []
            for j in range(H.rank):
                rep = H.representative([int(i == j) for i in range(H.rank)])
                cols.append(H.class_vector(ident.component(n).apply(rep)))
            assert cols == [tuple(1 if i == j else 0
                                  for i in range(H.rank))
                            for j in range(H.rank)]

    def test_mod_p_reduction_of_multiplication(self):
        # Z -2-> Z has H_0 = Z/2; over Z/2 the induced picture degenerates
        m1 = FreeModule(ZZ, ["a"])
        m0 = FreeModule(ZZ, ["b"])
        C = ChainComplex(ZZ, {0: m0, 1: m1},
                         {1: FreeModuleMap(m1, m0, {("b", "a"): 2})})
        H = HomologySpace(C, 0)
        assert H.divisors == (2,)
        assert H.class_vector({"b": 1}) == (1,)
        assert H.class_vector({"b": 2}) == (0,)
        assert H.class_vector({"b": 3}) == (1,)
