import itertools
import json
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import chainops.operads as operads_module
import chainops.powerops as powerops_module
from chainops.complexes import verify_differential
from chainops.homology_classes import HomologySpace
from chainops.powerops import (
    MAX_LIFT_WORDS,
    BigradedClass,
    CochainSystem,
    EquivariantLift,
    ProductClassifier,
    adem_coefficient,
    adem_side,
    adem_terms,
    build_w,
    classical_power,
    cochain_cross,
    cup_i_oracle,
    equivariant_lift_j,
    lift_word_count,
    lift_words,
    power_degree,
    power_op,
    power_unit,
    steenrod_square,
    theta_bar,
    verify_adem,
    verify_cartan,
)
from chainops.rings import QQ, SizeBoundError, Zmod
from chainops.simplicial import (chains, circle_space, classifying_space,
                                 cochains, product_space, sphere_space,
                                 torus_space)
from conftest import cleared_operad_caches
from oracles import (bockstein, bz2_square, bzp_apply, chain_map_defect, cup,
                     eager_adem_side, eager_cartan_sides,
                     full_product_coordinates, solved_lift,
                     verify_vanishing_pattern)


class TestWResolution:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_structure_at_cap_20(self, p):
        # build_w raises if d^2, exactness, or the coproduct checks fail
        W = build_w(p, 20)
        assert verify_differential(W.complex) == []

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_quotient_homology_rank_one(self, p):
        W = build_w(p, 12)
        Q = W.quotient_complex()
        for n in range(12):
            assert HomologySpace(Q, n).rank == 1

    def test_quotient_homology_reads_the_boundary(self):
        # a corrupted N whose coefficients sum to 2 mod 3 gives the
        # quotient a nonzero differential, so some rank drops below one
        W = build_w(3, 6)
        W.boundary_element = lambda n: ({1: 1, 0: -1} if n % 2
                                        else {0: 1, 1: 1})
        Q = W.quotient_complex()
        assert any(HomologySpace(Q, n).rank != 1 for n in range(6))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_quotient_bockstein_pattern(self, p):
        W = build_w(p, 12)
        for n in range(1, 12):
            beta = W.quotient_bockstein(n)
            if n % 2 == 0:
                assert beta == {("e", n - 1): 1}
            else:
                assert beta == {}

    @pytest.mark.parametrize("p", [4, 9])
    def test_composite_p_is_not_exact(self, p):
        with pytest.raises(ValueError, match="not exact at degree 0"):
            build_w(p, 4)

    def test_size_bound_builds_nothing(self, monkeypatch):
        # 997^2 (4 + 1)^2 = 24,850,225; unbounded, this took 31 s
        monkeypatch.setattr(powerops_module, "WResolution",
                            lambda *args: pytest.fail("W was built"))
        with pytest.raises(SizeBoundError, match="resolution too large"):
            build_w(997, 4)

    def test_boundary_alternates(self):
        W = build_w(3, 6)
        assert W.boundary_element(1) == {1: 1, 0: -1}
        assert W.boundary_element(2) == {0: 1, 1: 1, 2: 1}


def _without_the_arity_term(r, n):
    """lift_words with the even degrees' arity-(r - 1) words left out."""
    if n == 0:
        return (tuple(range(1, r + 1)),)
    below = _without_the_arity_term(r, n - 1)
    return tuple((1,) + tuple((v + j - 1) % r + 1 for v in w)
                 for j in ((1,) if n % 2 else range(1, r)) for w in below)


def _stirling2(n, k):
    """S(n, k) by its recurrence S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


class TestLift:
    """The lift's closed-form words (lift_words) against the lift solved
    degree by degree by the contracting homotopy (oracles.solved_lift),
    and against the chain-map equation boundary(e_n) = T e_{n-1} (n odd)
    or N e_{n-1} (n even) that the solve is made to satisfy."""

    @staticmethod
    def equation_failures(words, p, top):
        W = build_w(p, top)
        return [n for n in range(1, top + 1) if chain_map_defect(
            W, n, dict.fromkeys(words(p, n), 1),
            dict.fromkeys(words(p, n - 1), 1))]

    def test_p2_lift_is_alternating_words(self):
        # component n is the one word (1, 2, 1, ...) of length n + 2, the
        # word cup_i_oracle evaluates for cup_n
        lift = equivariant_lift_j(2, cap=8)
        for n in range(9):
            word = tuple((1, 2)[j % 2] for j in range(n + 2))
            assert lift.component(n) == {word: 1}, n

    @pytest.mark.parametrize("p, top", [(2, 12), (3, 12), (5, 6), (7, 4)])
    def test_equals_the_solved_lift(self, p, top):
        W = build_w(p, top)
        lift = equivariant_lift_j(p, cap=top)
        reference = solved_lift(W, cap=top)
        for n in range(top + 1):
            assert lift.component(n) == reference.component(n), (p, n)

    # p = 3 to degree 20 is the highest index a CLI request reaches:
    # q(p - 1) with q <= 10
    @pytest.mark.parametrize("p, top", [(2, 20), (3, 20), (5, 10), (7, 6)])
    def test_satisfies_the_chain_map_equation(self, p, top):
        assert self.equation_failures(lift_words, p, top) == []

    @pytest.mark.parametrize("p", [3, 5])
    def test_dropping_the_arity_term_breaks_the_equation(self, p):
        assert self.equation_failures(_without_the_arity_term, p, 4)[0] == 2

    def test_word_counts_are_stirling_numbers(self):
        # S(floor(n/2) + p - 1, p - 1): 2^(k+1) - 1 at p = 3, and 1, 10,
        # 65, 350, 1,701, 7,770 at p = 5 for k = n // 2 = 0..5
        for p, top in ((2, 20), (3, 20), (5, 10), (7, 6)):
            for n in range(top + 1):
                want = _stirling2(n // 2 + p - 1, p - 1)
                assert len(lift_words(p, n)) == want, (p, n)
                assert lift_word_count(p, n) == want, (p, n)
        assert [lift_word_count(3, 2 * k) for k in range(6)] == \
            [1, 3, 7, 15, 31, 63]
        assert [lift_word_count(5, 2 * k) for k in range(6)] == \
            [1, 10, 65, 350, 1701, 7770]

    def test_word_bound(self, monkeypatch):
        # the bound admits p = 3 to degree 25, p = 5 to 11 and p = 7 to
        # 7, each the last degree under MAX_LIFT_WORDS
        for p, last, words in ((3, 25, 8191), (5, 11, 7770), (7, 7, 2646)):
            assert lift_word_count(p, last) == words <= MAX_LIFT_WORDS
            assert lift_word_count(p, last + 1) > MAX_LIFT_WORDS
        # component 26 at p = 3 (16,383 words) is refused before any
        # word is listed
        listed = []
        monkeypatch.setattr(powerops_module, "lift_words",
                            lambda *args: listed.append(args))
        lift = EquivariantLift(3)
        with pytest.raises(SizeBoundError,
                           match="lift degree 26 has 16383 words"):
            lift.component(26)
        assert listed == []

    def test_seeded_lifts_differ_but_solve_same_equations(self):
        W = build_w(3, 5)
        a = solved_lift(W, cap=5, seed=11)
        b = solved_lift(W, cap=5, seed=12)
        assert a.components != b.components
        for lift in (a, b):
            for n in range(1, 6):
                assert not chain_map_defect(W, n, lift.component(n),
                                            lift.component(n - 1)), n

    @pytest.mark.parametrize("seed", [None, 7])
    def test_grown_lift_equals_prebuilt(self, seed):
        W = build_w(3, 6)
        grown = solved_lift(W, cap=2, seed=seed)
        prebuilt = solved_lift(W, cap=6, seed=seed)
        assert grown.cap == 2
        assert grown.component(6) == prebuilt.component(6)
        assert grown.components == prebuilt.components

    def test_zero_class_reads_no_lift(self, monkeypatch):
        # the zero class has zero squares in every degree they land in,
        # and none of them reads a component of the lift
        alg = CochainSystem(classifying_space(2, 3), Zmod(2))
        lift = equivariant_lift_j(2, cap=0)
        monkeypatch.setattr(lift, "component", lambda n: pytest.fail(
            "component %d read for the zero class" % n))
        for i in range(2):
            out = steenrod_square(BigradedClass(2, 0, {}), i, alg, lift)
            assert out.is_zero()
            assert out.degree == 2 + i


class TestNoResolution:
    """The operations read the lift, a function of p alone: with the
    resolution W made unbuildable, the verifiers at bench size and the
    steenrod command give the reports they gave when each built W."""

    @pytest.fixture(autouse=True)
    def no_resolution(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the resolution W was built")
        for name in ("build_w", "WResolution"):
            monkeypatch.setattr(powerops_module, name, refuse)
        monkeypatch.setattr("chainops.cli.build_w", refuse)

    def test_cartan_at_bench_size(self):
        alg = CochainSystem(classifying_space(3, 3), Zmod(3))
        assert verify_cartan(alg, degree_cap=2, p=3, smax=2, lift_cap=8) \
            == {"passed": True, "checked": 486, "failures": []}

    def test_adem_at_bench_size(self):
        alg = CochainSystem(classifying_space(3, 5), Zmod(3))
        assert verify_adem(alg, 3, 3, 4) == \
            {"passed": True, "checked": 180, "failures": []}

    def test_steenrod_command(self, capsys):
        from chainops.cli import main
        assert main(["steenrod", "--space", "bz2", "--dim", "4",
                     "--degree-cap", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        # Sq^i x^n = C(n, i) x^(n + i) on the generator x of H^1(BZ/2)
        assert [(r["degree"], r["i"], r["value"])
                for r in report["results"]] == [
            (1, 0, "(1,)"), (1, 1, "(1,)"), (2, 0, "(1,)"), (2, 1, "(0,)"),
            (2, 2, "(1,)"), (3, 0, "(1,)"), (3, 1, "(1,)")]


class TestPowerUnit:
    """power_unit against the facts its docstring derives it from: the
    degree-one constant of the lift, P^0 = 1, and P^{q/2} = x^p."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_degree_one_constant_on_the_circle(self, p):
        # D_{p-1}(y) = (-1)^m m! y, cochain for cochain: the circle has
        # one 1-simplex, and y^p = y mod p there
        ring = Zmod(p)
        X = circle_space()
        lift = equivariant_lift_j(p, cap=0)
        m = (p - 1) // 2
        c = (-1) ** m * math.factorial(m)
        for v in range(1, p):
            y = {sx: v for sx in X.simplices(1)}
            assert theta_bar(X, ring, lift, p - 1, y, 1) == {
                sx: c * v % p for sx in X.simplices(1)}
        assert power_unit(1, 0, p) * c % p == 1

    @pytest.mark.parametrize("p, dim, degrees", [(3, 5, (1, 2, 3, 4)),
                                                 (5, 3, (1, 2))])
    def test_p0_is_identity(self, p, dim, degrees):
        alg = CochainSystem(classifying_space(p, dim), Zmod(p))
        lift = equivariant_lift_j(p, cap=0)
        for q in degrees:
            H = alg.homology_space(q)
            for _, rep in H.all_classes():
                out = classical_power(BigradedClass(q, 0, rep), 0, alg, lift)
                assert out.degree == q
                assert H.class_vector(out.rep) == H.class_vector(rep), q

    @pytest.mark.parametrize("p", [3, 5])
    def test_top_power_is_the_pth_cup_power(self, p):
        # P^{q/2} x = u(q, q/2) D_0(x) and D_0 is the cup power, so the
        # two agree as cochains; BZ/2 has one simplex in each dimension,
        # and its 2p-simplex has nondegenerate front faces
        ring = Zmod(p)
        X = classifying_space(2, 2 * p)
        alg = CochainSystem(X, ring)
        lift = equivariant_lift_j(p, cap=0)
        x = {sx: 1 for sx in X.simplices(2)}
        power, q = x, 2
        for _ in range(p - 1):
            power = cup(X, ring, power, q, x, 2)
            q += 2
        assert power
        out = classical_power(BigradedClass(2, 0, x), 1, alg, lift)
        assert out.degree == 2 * p
        assert out.rep == power
        for q in (2, 4, 6):
            assert power_unit(q, q // 2, p) == 1


class TestCoefficients:
    def test_adem_coefficient_matches_lucas(self):
        for p in (2, 3, 5):
            for i in range(12):
                for j in range(12):
                    want = 1
                    a, b = i + j, i
                    while a or b:
                        da, db = a % p, b % p
                        want = want * (math.comb(da, db) if da >= db else 0)
                        a //= p
                        b //= p
                    assert adem_coefficient(i, j, p) == want % p

    def test_adem_coefficient_negative_is_zero(self):
        assert adem_coefficient(-1, 2, 3) == 0
        assert adem_coefficient(2, -1, 3) == 0


class TestAdemTable:
    """The relations adem_terms expands, checked on the rings
    H*((BZ/p)^n; F_p), where every power operation is known in closed
    form (oracles.bzp_power).  On the simplicial test spaces every side
    of every relation is a zero cochain, so only these rings tell a wrong
    binomial, sign or Bockstein in the table apart.  On H*(BZ/p) every
    term of beta P^a beta P^b vanishes (the inner beta lands in F_p[y],
    which the outer beta kills), so the sign of that row is read on
    H*(BZ/p x BZ/p)."""

    @staticmethod
    def _rhs(a, b, eps, delta, p, z):
        out = {}
        for sign, (m, n), (outer, r), (inner, i) in adem_terms(
                a, b, eps, delta, p):
            c = sign * adem_coefficient(m, n, p) % p
            if not c:
                continue
            for key, v in bzp_apply([(outer, r), (inner, i)], z, p).items():
                out[key] = (out.get(key, 0) + c * v) % p
        return {key: v for key, v in out.items() if v}

    def _failures(self, monomials):
        failures = []
        checked = 0
        for p in (3, 5, 7):
            for a, b in itertools.product(range(1, 7), repeat=2):
                if a >= p * b:
                    continue
                for eps, delta, z in itertools.product(
                        (0, 1), (0, 1), monomials):
                    checked += 1
                    lhs = bzp_apply([(eps, a), (delta, b)], z, p)
                    if lhs != self._rhs(a, b, eps, delta, p, z):
                        failures.append((p, a, b, eps, delta, z))
        # 31, 34 and 36 pairs a < p b at p = 3, 5 and 7
        assert checked == 4 * len(monomials) * (31 + 34 + 36)
        return failures

    def test_relations_hold_on_the_ring(self):
        start = time.monotonic()
        one = [{((e, k),): 1} for e in (0, 1) for k in range(8)]
        two = [{((e1, k1), (e2, k2)): 1}
               for e1, e2 in itertools.product((0, 1), repeat=2)
               for k1, k2 in itertools.product(range(2), repeat=2)]
        assert self._failures(one) == []
        assert self._failures(two) == []
        assert time.monotonic() - start < 1.0

    def test_least_case_of_the_bockstein_binomial(self):
        # P^1 beta P^1 (x y^2) at p = 3, of degree 14, is y^7.  At i = 0
        # the first sum's binomial is C((p-1)(b-i), a-pi) = C(2, 1) = 2;
        # the plain relation's C((p-1)(b-i) - 1, a-pi) = C(1, 1) = 1 in
        # its place gives 2 y^7
        z = {((1, 2),): 1}
        assert bzp_apply([(0, 1), (1, 1)], z, 3) == {((0, 7),): 1}
        assert self._rhs(1, 1, 0, 1, 3, z) == {((0, 7),): 1}


class TestPowerDegree:
    """power_degree states once where P^s (beta P^s) lands and when it
    vanishes; classical_power evaluates exactly the operations it says
    do not vanish, at the generator index (q - 2s)(p - 1) - eps."""

    CASES = [(p, q, s, eps) for p in (3, 5, 7) for q in range(13)
             for s in range(-1, q + 2) for eps in (0, 1)]

    def test_matches_the_unstable_rule(self):
        # P^s x = 0 for 2s > q, and beta P^s x = beta(x^p) = 0 for 2s = q
        for p, q, s, eps in self.CASES:
            vanishes = s < 0 or 2 * s > q or (2 * s == q and eps == 1)
            assert power_degree(q, s, p, eps) == \
                (q + 2 * s * (p - 1) + eps, vanishes), (p, q, s, eps)

    def test_classical_power_reads_it(self, monkeypatch):
        # theta_bar records the index it is asked for, on a space whose
        # dimensions hold every output degree, so nothing is evaluated
        asked = []

        def record(X, ring, lift, n, x, q, cells):
            asked.append(n)
            return {"cell": 1}

        monkeypatch.setattr(powerops_module, "theta_bar", record)
        space = SimpleNamespace(dims=lambda: range(200))
        for p, q, s, eps in self.CASES:
            alg = CochainSystem(space, Zmod(p))
            lift = SimpleNamespace(p=p)
            asked.clear()
            out = classical_power(BigradedClass(q, None, {"x": 1}), s, alg,
                                  lift, eps)
            degree, vanishes = power_degree(q, s, p, eps)
            index = (q - 2 * s) * (p - 1) - eps
            assert out.degree == degree, (p, q, s, eps)
            assert asked == ([] if s < 0 or index < 0 else [index]), \
                (p, q, s, eps)
            assert out.is_zero() == vanishes, (p, q, s, eps)


class TestAdemSidesByDegree:
    """adem_side decides a side of an Adem relation by its two degrees
    before it runs an operation.  On every class of degree <= the cap and
    every side the sweep asks for, it must equal the eager composite of
    two classical_power calls (oracles.eager_adem_side), in degree and in
    cochain.  Every side those sweeps ask for is zero on these spaces, so
    beta^eps P^0 beta^delta P^0 is compared too: P^0 P^0 x is the class
    x, a nonempty cochain whenever x is not zero."""

    @pytest.mark.parametrize("space, p, degree_cap, pair_bound", [
        (classifying_space(3, 5), 3, 4, 3),
        (classifying_space(3, 8), 3, 4, 3),
        (sphere_space(8), 3, 8, 2),
        (torus_space(), 3, 2, 3),
        (circle_space(), 5, 1, 3),
    ], ids=["bz3-dim5", "bz3-dim8", "sphere8", "torus", "circle-p5"])
    def test_equals_the_eager_composite(self, space, p, degree_cap,
                                        pair_bound):
        alg = CochainSystem(space, Zmod(p))
        lift = equivariant_lift_j(p, cap=0)

        def op(cls, s, bock):
            return classical_power(cls, s, alg, lift, bock)

        sides = {((delta, 0), (eps, 0))
                 for eps, delta in itertools.product((0, 1), repeat=2)}
        for b in range(1, pair_bound):
            for a in range(1, pair_bound - b + 1):
                if a >= p * b:
                    continue
                for eps, delta in itertools.product((0, 1), repeat=2):
                    sides.add(((delta, b), (eps, a)))
                    sides.update((inner, outer) for _, _, outer, inner
                                 in adem_terms(a, b, eps, delta, p))
        nonzero = 0
        for q in [n for n in space.dims() if n <= degree_cap]:
            for _, rep in alg.homology_space(q).all_classes():
                x = BigradedClass(q, 0, rep)
                for inner, outer in sorted(sides):
                    got = adem_side(op, x, inner, outer, p, space.dims())
                    want = eager_adem_side(x, inner, outer, alg, lift)
                    assert (got.degree, got.rep) == (want.degree, want.rep), \
                        (q, inner, outer)
                    nonzero += not got.is_zero()
        assert nonzero

    def test_bench_size_runs_no_operation(self, monkeypatch):
        # the size of the adem-bz3 benchmark job: every side vanishes or
        # leaves the 5-skeleton, so no lifted generator is evaluated
        calls = []
        real = powerops_module.theta_bar
        monkeypatch.setattr(powerops_module, "theta_bar",
                            lambda *args: calls.append(args[3]) or real(*args))
        alg = CochainSystem(classifying_space(3, 5), Zmod(3))
        report = verify_adem(alg, p=3, pair_bound=3, degree_cap=4)
        assert report == {"passed": True, "checked": 180, "failures": []}
        assert calls == []

    def test_gate_size_reads_no_class(self, monkeypatch):
        # on the 8-skeleton every lhs - rhs is the empty cochain, which
        # reads no class
        reads = []
        real = HomologySpace.class_vector
        monkeypatch.setattr(HomologySpace, "class_vector",
                            lambda self, z: reads.append(z) or real(self, z))
        alg = CochainSystem(classifying_space(3, 8), Zmod(3))
        report = verify_adem(alg, p=3, pair_bound=3, degree_cap=4)
        assert report == {"passed": True, "checked": 180, "failures": []}
        assert reads == []


class TestSteenrodSquares:
    def setup_method(self):
        self.ring = Zmod(2)
        self.X = classifying_space(2, 4)
        from chainops.powerops import CochainSystem
        self.alg = CochainSystem(self.X, self.ring)
        self.lift = equivariant_lift_j(2, cap=10)
        self.spaces = {n: HomologySpace(self.alg.complex, n)
                       for n in self.X.dims()}

    def _gen(self, q):
        H = self.spaces[q]
        return BigradedClass(q, 0, H.representative([1] + [0] * (H.rank - 1)))

    def test_table_matches_cup_i_oracle(self):
        for q in (1, 2, 3):
            x = self._gen(q)
            for i in range(0, q + 1):
                out = steenrod_square(x, i, self.alg, self.lift)
                if out.degree not in self.spaces:
                    continue
                H = self.spaces[out.degree]
                oracle = cup_i_oracle(self.X, self.ring, q - i, x.rep, q)
                assert H.class_vector(out.rep) == H.class_vector(oracle)

    def test_sq0_is_identity(self):
        for q in (1, 2, 3):
            x = self._gen(q)
            out = steenrod_square(x, 0, self.alg, self.lift)
            H = self.spaces[q]
            assert H.class_vector(out.rep) == H.class_vector(x.rep)

    def test_top_square_is_cup_square(self):
        for q in (1, 2):
            x = self._gen(q)
            out = steenrod_square(x, q, self.alg, self.lift)
            sq = cup(self.X, self.ring, x.rep, q, x.rep, q)
            H = self.spaces[2 * q]
            assert H.class_vector(out.rep) == H.class_vector(sq)

    def test_squares_on_the_polynomial_ring(self):
        # H*(BZ/2; F_2) = F_2[x], one class in each degree, so the class
        # of x^n is the nonzero class of H^n, and Sq^i(x^n) is
        # C(n, i) x^(n + i) (oracles.bz2_square): a value that does not
        # come from the interval-cut kernel
        X = classifying_space(2, 10)
        alg = CochainSystem(X, self.ring)
        lift = equivariant_lift_j(2, cap=0)
        nonzero = 0
        for n in range(1, 11):
            H = alg.homology_space(n)
            assert H.rank == 1
            x = BigradedClass(n, 0, H.representative([1]))
            for i in range(0, 11 - n):
                out = steenrod_square(x, i, alg, lift)
                assert out.degree == n + i
                want = bz2_square(i, {n: 1}).get(n + i, 0)
                got = alg.homology_space(n + i).class_vector(out.rep)
                assert got == (want,), (n, i)
                nonzero += want
        assert nonzero > 10, nonzero

    def test_vanishing_above_degree(self):
        x = self._gen(1)
        out = steenrod_square(x, 2, self.alg, self.lift)
        H = self.spaces[3]
        assert all(self.ring.is_zero(c) for c in H.class_vector(out.rep))

    def test_additivity_on_torus(self):
        ring = Zmod(2)
        X = torus_space()
        from chainops.powerops import CochainSystem
        alg = CochainSystem(X, ring)
        lift = equivariant_lift_j(2, cap=6)
        H1 = HomologySpace(alg.complex, 1)
        H2 = HomologySpace(alg.complex, 2)
        assert H1.rank == 2
        a = H1.representative([1, 0])
        b = H1.representative([0, 1])
        ab = {lab: ring.add(a.get(lab, 0), b.get(lab, 0))
              for lab in set(a) | set(b)}
        for i in (0, 1):
            lhs = steenrod_square(BigradedClass(1, 0, ab), i, alg, lift)
            ra = steenrod_square(BigradedClass(1, 0, a), i, alg, lift)
            rb = steenrod_square(BigradedClass(1, 0, b), i, alg, lift)
            rhs = {lab: ring.add(ra.rep.get(lab, 0), rb.rep.get(lab, 0))
                   for lab in set(ra.rep) | set(rb.rep)}
            H = H1 if i == 0 else H2
            assert H.class_vector(lhs.rep) == H.class_vector(rhs)


class TestOddPrimaryPowers:
    def setup_method(self):
        self.ring = Zmod(3)
        self.X = classifying_space(3, 4)
        self.alg = CochainSystem(self.X, self.ring)
        self.lift = equivariant_lift_j(3, cap=10)

    def _gen(self, q):
        H = HomologySpace(self.alg.complex, q)
        return BigradedClass(q, None,
                             H.representative([1] + [0] * (H.rank - 1)))

    def test_cartan_refuses_p_2(self):
        # power_op's index (2s - q)(p - 1) is the odd-prime rule; at p = 2
        # it would report a false Cartan failure on BZ/2
        from chainops.powerops import CochainSystem
        alg = CochainSystem(classifying_space(2, 3), Zmod(2))
        with pytest.raises(ValueError, match="odd prime"):
            verify_cartan(alg, degree_cap=1, p=2)

    def test_adem_refuses_p_2(self):
        # at p = 2 the odd-prime relation at a = b = 1 reads Sq^2 Sq^2 = 0,
        # not Sq^2 Sq^2 = Sq^3 Sq^1; BZ/2's one generator would hide it
        alg = CochainSystem(classifying_space(2, 6), Zmod(2))
        with pytest.raises(ValueError, match="odd prime"):
            verify_adem(alg, 2, 2, 2)

    @pytest.mark.parametrize("verifier", ["cartan", "adem"])
    @pytest.mark.parametrize("p", [4, 9])
    def test_verifiers_refuse_a_composite_p(self, verifier, p):
        # the verifiers' own guard refuses only p = 2; the lift's prime
        # check refuses a composite p
        alg = CochainSystem(classifying_space(3, 2), Zmod(3))
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            if verifier == "cartan":
                verify_cartan(alg, degree_cap=1, p=p)
            else:
                verify_adem(alg, p, 2, 1)

    def test_classical_negative_and_overflow_vanish(self):
        x = self._gen(2)
        assert classical_power(x, -1, self.alg, self.lift).is_zero()
        # 2s > q makes the generator index negative: the operation is zero
        assert classical_power(x, 2, self.alg, self.lift).is_zero()

    def test_paper_indexed_matches_classical_complement(self):
        # power_op is classical_power re-indexed by s -> q - s: the same
        # cochain, unit included, for every weight, plain and Bockstein
        for q in range(4):
            x = self._gen(q)
            for s in range(-1, q + 2):
                for bock in (False, True):
                    a = power_op(x, s, self.alg, self.lift, bock)
                    b = classical_power(x, q - s, self.alg, self.lift, bock)
                    assert a.degree == b.degree, (q, s, bock)
                    assert a.rep == b.rep, (q, s, bock)

    def test_bockstein_squares_to_zero(self):
        x = self._gen(1)
        bx = bockstein(x, self.X, 3)
        assert bx.degree == 2
        H2 = HomologySpace(self.alg.complex, 2)
        assert any(c % 3 for c in H2.class_vector(bx.rep))
        bbx = bockstein(bx, self.X, 3)
        H3 = HomologySpace(self.alg.complex, 3)
        assert all(c % 3 == 0 for c in H3.class_vector(bbx.rep))

    def test_vanishing_pattern(self):
        from chainops.powerops import CochainSystem
        sys_alg = CochainSystem(self.X, self.ring)
        rep = verify_vanishing_pattern(sys_alg, self.lift,
                                       degree_cap=2, index_cap=6)
        assert rep["passed"], rep["failures"][:3]

    def test_empty_class_maps_to_empty(self):
        x = BigradedClass(2, None, {})
        assert power_op(x, 1, self.alg, self.lift).is_zero()
        assert classical_power(x, 1, self.alg, self.lift).is_zero()

    def test_empty_class_above_cap_maps_to_empty(self):
        # the zero class has zero powers at every index, even one past
        # the lift's prebuilt cap; a nonzero class reads the lift there
        lift = equivariant_lift_j(3, cap=2)
        empty = BigradedClass(2, None, {})
        x = self._gen(2)
        # generator index (2s - q)(p - 1) = 4 > 2
        out = power_op(empty, 2, self.alg, lift)
        assert out.is_zero()
        assert out.degree == 2
        assert power_op(x, 2, self.alg, lift).rep == \
            power_op(x, 2, self.alg, self.lift).rep
        # generator index (q - 2s)(p - 1) = 4 > 2
        out = classical_power(empty, 0, self.alg, lift)
        assert out.is_zero()
        assert out.degree == 2
        assert classical_power(x, 0, self.alg, lift).rep == \
            classical_power(x, 0, self.alg, self.lift).rep

    def test_zero_for_degree_reasons_leaves_the_lift(self, monkeypatch):
        # on the 3-skeleton P^1 of a degree-3 class lands in degree 7, and
        # beta P^1 in degree 8: both are zero, and neither evaluates the
        # lift at its generator index (2, and 1 for beta)
        alg = CochainSystem(classifying_space(3, 3), self.ring)
        lift = equivariant_lift_j(3, cap=0)
        H = alg.homology_space(3)
        x = BigradedClass(3, None, H.representative([1] + [0] * (H.rank - 1)))
        calls = []
        monkeypatch.setattr(powerops_module, "theta_bar",
                            lambda *args: calls.append(args))
        for bock, degree in ((False, 7), (True, 8)):
            out = classical_power(x, 1, alg, lift, bock)
            assert out.degree == degree and out.is_zero()
        assert calls == []


class TestThetaWellDefined:
    def test_two_lifts_same_class(self):
        ring = Zmod(3)
        X = classifying_space(3, 3)
        W = build_w(3, 6)
        C = cochains(X, ring)
        H1 = HomologySpace(C, 1)
        x = H1.representative([1])
        H2 = HomologySpace(C, 2)
        a = solved_lift(W, cap=6, seed=5)
        b = solved_lift(W, cap=6, seed=6)
        za = theta_bar(X, ring, a, 1, x, 1)
        zb = theta_bar(X, ring, b, 1, x, 1)
        assert H2.class_vector(za) == H2.class_vector(zb)

    def test_cohomologous_representatives_same_class(self):
        ring = Zmod(3)
        X = classifying_space(3, 4)
        lift = equivariant_lift_j(3, cap=6)
        C = cochains(X, ring)
        H2 = HomologySpace(C, 2)
        y = H2.representative([1] + [0] * (H2.rank - 1))
        # perturb by a coboundary of a degree-1 cochain
        d1 = C.differentials[1]
        rng = random.Random(7)
        f = {lab: rng.randrange(3) for lab in C.module(1).basis}
        y2 = dict(y)
        for lab, c in d1.apply(f).items():
            t = ring.add(y2.get(lab, 0), c)
            if ring.is_zero(t):
                y2.pop(lab, None)
            else:
                y2[lab] = t
        assert y2 != y
        H4 = HomologySpace(C, 4)
        za = theta_bar(X, ring, lift, 2, y, 2)
        zb = theta_bar(X, ring, lift, 2, y2, 2)
        assert H4.class_vector(za) == H4.class_vector(zb)


def _random_cochain(ring, labels, rng):
    out = {}
    for lab in labels:
        if ring.kind == "Q":
            c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        else:
            c = ring.normalize(rng.randrange(ring.modulus))
        if not ring.is_zero(c):
            out[lab] = c
    return out


def _basis_reps(h):
    return [h.representative([int(k == m) for k in range(h.rank)])
            for m in range(h.rank)]


def _shuffle_images(X, Y, ring, n):
    """The shuffle image of a (x) b for every pair of basis cycles, in
    the classifier's order (degree of a, then a's class, then b's): a
    dict product simplex -> coefficient, built cell by cell with the
    degeneracy maps, its keys in the order the loops first reach them."""
    images = []
    for i in X.dims():
        j = n - i
        if j not in Y.dims():
            continue
        for a in _basis_reps(HomologySpace(chains(X, ring), i)):
            for b in _basis_reps(HomologySpace(chains(Y, ring), j)):
                image = {}
                for xa, ca in a.items():
                    for yb, cb in b.items():
                        for A in itertools.combinations(range(n), i):
                            B = [t for t in range(n) if t not in A]
                            inv = sum(1 for u in A for v in B if u > v)
                            sa = X.nondegenerate(xa)
                            for t in B:
                                sa = X.degeneracy(sa, t)
                            sb = Y.nondegenerate(yb)
                            for t in A:
                                sb = Y.degeneracy(sb, t)
                            image[sa, sb] = ring.add(
                                image.get((sa, sb), ring.zero()),
                                ring.normalize((-1) ** inv * ca * cb))
                images.append(image)
    return images


def _brute_force_pairing(X, Y, ring, z, n):
    """<z, shuffle image of a (x) b> for every pair of basis cycles, in
    the classifier's order."""
    vals = []
    for image in _shuffle_images(X, Y, ring, n):
        total = ring.zero()
        for lab, c in image.items():
            total = ring.add(total, ring.mul(c, z.get(lab, ring.zero())))
        vals.append(total)
    return tuple(vals)


def _first_appearance_support(X, Y, ring, n):
    """The product simplices on which some shuffle image is nonzero, in
    order of first appearance over the images in coordinate order."""
    order = {}
    for image in _shuffle_images(X, Y, ring, n):
        for lab, c in image.items():
            if not ring.is_zero(c):
                order.setdefault(lab)
    return list(order)


class TestProductClassifier:
    """Coordinates on X x Y: X = Y = BZ/3 to dimension 3, and X = BZ/3
    to dimension 3 with Y the circle, over Z/3 and Q."""

    @pytest.fixture(scope="class", params=["bz3xbz3", "bz3xcircle"])
    def factors(self, request):
        X = classifying_space(3, 3)
        Y = X if request.param == "bz3xbz3" else circle_space()
        return X, Y, product_space(X, Y)

    @pytest.fixture(params=[Zmod(3), QQ], ids=str)
    def ring(self, request):
        return request.param

    def test_matches_brute_force_pairing(self, factors, ring):
        X, Y, P = factors
        classifier = ProductClassifier(X, Y, ring)
        rng = random.Random(11)
        for n in P.dims():
            for _ in range(3):
                z = _random_cochain(ring, P.simplices(n), rng)
                assert classifier.coordinates(z, n) == \
                    _brute_force_pairing(X, Y, ring, z, n), n

    def test_sparse_cochains_read_by_column(self, factors, ring):
        # a few cells on the table's support and more off it: the column
        # read skips the latter, so z and its restriction to the support
        # have the brute-force pairing's coordinates
        X, Y, P = factors
        classifier = ProductClassifier(X, Y, ring)
        rng = random.Random(13)
        off_support_read = 0
        for n in P.dims():
            support = set(classifier.support(n))
            on = sorted(support)
            off = sorted(set(P.simplices(n)) - support)
            for _ in range(3):
                z = _random_cochain(
                    ring, rng.sample(on, min(3, len(on)))
                    + rng.sample(off, min(6, len(off))), rng)
                coords = classifier.coordinates(z, n)
                assert coords == _brute_force_pairing(X, Y, ring, z, n), n
                assert coords == classifier.coordinates(
                    {lab: c for lab, c in z.items() if lab in support}, n)
                off_support_read += sum(lab not in support for lab in z)
        assert off_support_read

    def test_support_in_order_of_first_appearance(self, factors, ring):
        # interval_cut_action evaluates the support cells in this order
        X, Y, P = factors
        classifier = ProductClassifier(X, Y, ring)
        for n in P.dims():
            assert list(classifier.support(n)) == \
                _first_appearance_support(X, Y, ring, n), n

    def test_coboundaries_vanish(self, factors, ring):
        X, Y, P = factors
        classifier = ProductClassifier(X, Y, ring)
        C = cochains(P, ring)
        rng = random.Random(12)
        for n in P.dims():
            if n == 0:
                continue
            for _ in range(3):
                f = _random_cochain(ring, P.simplices(n - 1), rng)
                df = C.differential(n - 1).apply(f)
                assert all(ring.is_zero(c)
                           for c in classifier.coordinates(df, n)), n

    def test_cross_products_of_basis_classes_are_distinct(self, factors,
                                                          ring):
        X, Y, P = factors
        classifier = ProductClassifier(X, Y, ring)
        CX, CY = cochains(X, ring), cochains(Y, ring)
        for n in P.dims():
            coords = []
            for i in X.dims():
                j = n - i
                if j not in Y.dims():
                    continue
                hx, hy = HomologySpace(CX, i), HomologySpace(CY, j)
                for x in _basis_reps(hx):
                    for y in _basis_reps(hy):
                        z = cochain_cross(X, Y, ring, x, i, y, j, P)
                        coords.append(classifier.coordinates(z, n))
            # Kuenneth: as many cross products as product cycles
            assert all(len(c) == len(coords) for c in coords), n
            assert len(set(coords)) == len(coords), n
            assert all(any(not ring.is_zero(v) for v in c) for c in coords)



class TestCrossCoordinates:
    """verify_cartan reads its right side by Kuenneth.  For every pair
    (a, b) of operation outputs P^s x and beta P^s x (classes x of degree
    <= 2, s <= 2, p = 3), with both signs, cross_coordinates must give the
    coordinates of a cross b built on X x X and paired; so must it for
    each degree's signed sum of all of them.  The spaces: BZ/3 to
    dimension 3 (the benchmark's size) and 4 (the gate's), and the torus,
    whose degree-one outputs make odd x odd blocks."""

    SPACES = {"bz3-dim3": lambda: classifying_space(3, 3),
              "bz3-dim4": lambda: classifying_space(3, 4),
              "torus": torus_space}

    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_matches_the_full_product(self, space):
        ring = Zmod(3)
        X = self.SPACES[space]()
        alg = CochainSystem(X, ring)
        P = product_space(X, X)
        lift = equivariant_lift_j(3, cap=0)
        classifier = ProductClassifier(X, X, ring)
        outputs = {}
        for q in range(3):
            for _, rep in alg.homology_space(q).all_classes():
                for s, bock in itertools.product(range(3), (False, True)):
                    out = power_op(BigradedClass(q, 0, rep), s, alg, lift,
                                   bock)
                    if out.degree in X.dims():
                        outputs[out.degree,
                                frozenset(out.rep.items())] = out
        sums = {}
        blocks = set()
        for a, b in itertools.product(outputs.values(), repeat=2):
            n = a.degree + b.degree
            for sign in (1, -1):
                term = (a.rep, a.degree, b.rep, b.degree, sign)
                coords = classifier.cross_coordinates([term], n)
                assert coords == full_product_coordinates(
                    classifier, P, [term], n), (a.degree, b.degree, sign)
                sums.setdefault(n, []).append(term)
                if any(coords):
                    blocks.add((a.degree, b.degree))
        for n, terms in sums.items():
            assert classifier.cross_coordinates(terms, n) == \
                full_product_coordinates(classifier, P, terms, n), n
        # nonzero terms in blocks that a swapped block or a Koszul sign
        # would break: two different degrees, and odd x odd on the torus
        assert any(qa != qb for qa, qb in blocks)
        if space == "torus":
            assert (1, 1) in blocks


class TestCartanSupportRestriction:
    """verify_cartan evaluates its left side only on the cells the
    classifier reads.  On BZ/3 to dimension 3 that must give the same
    coordinates as the full evaluation for every class pair of degree
    <= 2, every s <= 2 and both variants, s = q1 + q2 included, where
    the output degree is the degree of the cross product itself."""

    def test_support_evaluation_keeps_the_coordinates(self):
        ring = Zmod(3)
        X = classifying_space(3, 3)
        alg = CochainSystem(X, ring)
        P = product_space(X, X)
        palg = CochainSystem(P, ring)
        lift = equivariant_lift_j(3, cap=0)
        classifier = ProductClassifier(X, X, ring)
        nonzero = set()
        for q1, q2 in itertools.product(range(3), repeat=2):
            for _, x in alg.homology_space(q1).all_classes():
                for _, y in alg.homology_space(q2).all_classes():
                    z = BigradedClass(q1 + q2, 0, cochain_cross(
                        X, X, ring, x, q1, y, q2, P))
                    for s, bock in itertools.product(range(3),
                                                     (False, True)):
                        full = power_op(z, s, palg, lift, bock)
                        part = power_op(z, s, palg, lift, bock,
                                        classifier.support)
                        n = full.degree
                        assert part.degree == n
                        if n not in P.dims():
                            assert not full.rep and not part.rep
                            continue
                        assert set(part.rep) <= set(classifier.support(n))
                        coords = classifier.coordinates(full.rep, n)
                        assert classifier.coordinates(part.rep, n) == \
                            coords, (q1, q2, s, bock)
                        if any(coords):
                            nonzero.add((s == q1 + q2, n - (q1 + q2)))
        # nonzero classes were compared at s = q1 + q2, where the output
        # degree is the input degree (plain) or one above it (Bockstein)
        assert {(True, 0), (True, 1)} <= nonzero


class TestCartanSidesByDegree:
    """verify_cartan decides each left side P^s(x cross y) (beta P^s
    when bocksteined) by its degree, as classical_power does, before it
    builds x cross y: a side that vanishes or leaves the product's
    skeleton is the empty cochain of its degree, and x cross y is built
    once per pair, for the first side that is evaluated.  Every side it
    reads must equal oracles.eager_cartan_sides, which builds x cross y
    for every side, in cochain and in degree."""

    @pytest.mark.parametrize("space, p, degree_cap", [
        (classifying_space(3, 2), 3, 1),
        (classifying_space(3, 3), 3, 2),
        (classifying_space(3, 4), 3, 2),
        (torus_space(), 3, 2),
        (circle_space(), 5, 1),
    ], ids=["bz3-dim2", "bz3-dim3", "bz3-dim4", "torus", "circle-p5"])
    def test_equals_the_eager_sides(self, monkeypatch, space, p,
                                    degree_cap):
        alg = CochainSystem(space, Zmod(p))
        read = []
        real = ProductClassifier.coordinates
        monkeypatch.setattr(
            ProductClassifier, "coordinates",
            lambda self, z, n: read.append((z, n)) or real(self, z, n))
        report = verify_cartan(alg, degree_cap, p, smax=2)
        assert report["passed"], report["failures"][:3]
        want = eager_cartan_sides(alg, degree_cap, p, smax=2)
        assert len(read) == report["checked"] == len(want)
        for index, (got, side) in enumerate(zip(read, want)):
            assert got == side, index
        assert any(z for z, _ in read)

    def test_bench_size_builds_54_cross_products(self, monkeypatch):
        # the cartan-bz3 benchmark job: every side of the 27 pairs of
        # degree 3 or 4 vanishes or leaves the 6-dimensional product
        calls = []
        real = powerops_module.cochain_cross
        monkeypatch.setattr(powerops_module, "cochain_cross",
                            lambda *args: calls.append(args) or real(*args))
        alg = CochainSystem(classifying_space(3, 3), Zmod(3))
        report = verify_cartan(alg, degree_cap=2, p=3, smax=2)
        assert report == {"passed": True, "checked": 486, "failures": []}
        assert len(calls) == 54
        assert {args[4] + args[6] for args in calls} == {0, 1, 2}


class TestCartanCutSignControl:
    """The interval-cut signs are kept in the per-process chain tables.
    A verifier run whose tables are rebuilt under a corrupted sign, after
    a passing one on the same space in the same process, must see it;
    and a run after that, on clean tables again, must pass."""

    def test_dropped_cut_sign_fails_on_the_same_space(self, monkeypatch):
        alg = CochainSystem(classifying_space(3, 2), Zmod(3))
        baseline = verify_cartan(alg, degree_cap=1, p=3, smax=2)
        assert baseline["passed"], baseline["failures"][:3]
        with cleared_operad_caches(), monkeypatch.context() as patch:
            patch.setattr(operads_module, "_cut_sign",
                          lambda u, lens, tpts: 1)
            report = verify_cartan(alg, degree_cap=1, p=3, smax=2)
        assert not report["passed"]
        assert report["checked"] == baseline["checked"]
        assert len(report["failures"]) == 8
        assert {f["check"] for f in report["failures"]} == {
            "cartan", "cartan-bockstein"}
        assert all(f["witness"] for f in report["failures"])
        assert verify_cartan(alg, degree_cap=1, p=3, smax=2) == baseline


class TestCartanBeyondTheGate:
    """Cartan requests past the gate's smax 2 at p = 3: weight 3 reads
    P^0 on classes of degree 3, and p = 5 reads the unit's factor m!.
    Each needs one unit for both indexings and a sign-correct action."""

    @pytest.mark.parametrize("space, p, smax, degree_cap, checked", [
        ("bz3", 3, 3, 2, 648),
        ("circle", 5, 2, 1, 600),
        ("bz5", 5, 3, 1, 800),
    ])
    def test_passes_with_every_relation_checked(self, space, p, smax,
                                                 degree_cap, checked):
        X = circle_space() if space == "circle" else \
            classifying_space(p, 3)
        report = verify_cartan(CochainSystem(X, Zmod(p)), degree_cap, p,
                               smax=smax)
        assert report["passed"], report["failures"][:3]
        assert report["checked"] == checked

    def test_p1_of_a_square_on_bz3(self):
        # P^1(y^2) = 2 y^4 for y of degree 2: D_4 on a degree-4 class,
        # where the action's arity-3 signs reach degree 4
        ring = Zmod(3)
        X = classifying_space(3, 8)
        alg = CochainSystem(X, ring)
        lift = equivariant_lift_j(3, cap=0)
        y = alg.homology_space(2).representative([1])
        y2 = cup(X, ring, y, 2, y, 2)
        y4 = cup(X, ring, y2, 4, y2, 4)
        out = classical_power(BigradedClass(4, 0, y2), 1, alg, lift)
        assert out.degree == 8
        H8 = alg.homology_space(8)
        want = H8.class_vector({lab: 2 * c % 3 for lab, c in y4.items()})
        assert any(want)
        assert H8.class_vector(out.rep) == want


class TestHomologySpacesPerDegree:
    """A CochainSystem builds the homology space of a degree once, on the
    first read, and the verifiers read through it."""

    @pytest.fixture
    def built(self, monkeypatch):
        # (complex, degree) of every homology space powerops builds
        import chainops.powerops as powerops
        spaces = []

        class Counting(HomologySpace):
            def __init__(self, C, n):
                spaces.append((C, n))
                super().__init__(C, n)

        monkeypatch.setattr(powerops, "HomologySpace", Counting)
        return spaces

    def test_accessor_builds_once(self, built):
        from chainops.powerops import CochainSystem
        alg = CochainSystem(classifying_space(3, 3), Zmod(3))
        assert alg.homology_space(2) is alg.homology_space(2)
        assert built == [(alg.complex, 2)]

    def test_verify_adem(self, built):
        from chainops.powerops import CochainSystem, verify_adem
        alg = CochainSystem(classifying_space(3, 5), Zmod(3))
        assert verify_adem(alg, p=3, pair_bound=3, degree_cap=4)["passed"]
        assert sorted(n for _, n in built) == [0, 1, 2, 3, 4]

    def test_cartan_and_vanishing_pattern_share_spaces(self, built):
        from chainops.powerops import CochainSystem
        alg = CochainSystem(classifying_space(3, 2), Zmod(3))
        assert verify_cartan(alg, degree_cap=1, p=3, smax=2)["passed"]
        lift = equivariant_lift_j(3, cap=6)
        assert verify_vanishing_pattern(alg, lift, degree_cap=1,
                                        index_cap=6)["passed"]
        # the rest are the Cartan classifier's spaces of the factor chains
        assert sorted(n for C, n in built if C is alg.complex) == [0, 1, 2]
