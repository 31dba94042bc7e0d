"""End-to-end acceptance sweep.

Each test here is one gate: exact-arithmetic verification of a whole
subsystem within a stated time budget.  They are slower than the unit
tests and deliberately re-build everything from scratch.
"""

import json
import random
import time
from fractions import Fraction

import pytest

import chainops.operads as operads_module
import chainops.powerops as powerops_module
from chainops.bar_hopf import (
    check_connected,
    h0_hopf,
    indecomposables,
    one_generator_dga,
    reduced_bar,
    square_generator_dga,
    trivial_dga,
)
from chainops.cli import main
from chainops.complexes import verify_differential
from chainops.cubical import dnc, dnc_inclusion, dnc_projection, nc
from chainops.dold_kan import denormalize, normalize
from chainops.freemod import FreeModuleMap
from chainops.homology_classes import HomologySpace
from chainops.operads import (
    check_einfinity,
    check_operad_axioms,
    surjection_operad,
)
from chainops.powerops import (
    BigradedClass,
    CochainSystem,
    adem_coefficient,
    build_w,
    cup_i_oracle,
    equivariant_lift_j,
    power_op,
    steenrod_square,
    theta_bar,
    verify_adem,
    verify_cartan,
)
from chainops.randomgen import random_chain_complex
from chainops.rings import ZZ, Zmod
from chainops.simplicial import classifying_space, cochains
from conftest import cleared_operad_caches
from oracles import (bockstein, check_algebra_axioms, cup, solved_lift,
                     verify_vanishing_pattern)


def _add(ring, a, b):
    out = dict(a)
    for lab, c in b.items():
        t = ring.add(out.get(lab, ring.zero()), c)
        if ring.is_zero(t):
            out.pop(lab, None)
        else:
            out[lab] = t
    return out


class TestCriterion1DoldKan:
    def test_hundred_seeded_roundtrips_under_5s(self):
        start = time.monotonic()
        rng = random.Random(20260823)
        count = 0
        for ring in (ZZ, Zmod(3)):
            for _ in range(52):
                L = random_chain_complex(ring, rng.randrange(2, 7), 3, rng)
                top = max(L.modules, default=0)
                N = normalize(denormalize(L, top + 1))
                assert N.modules == L.modules
                assert N.differentials == L.differentials
                C = nc(dnc(L, top + 1))
                comp = dnc_projection(L, C).compose(dnc_inclusion(L, C))
                for n in comp.source.modules:
                    assert comp.component(n) == \
                        FreeModuleMap.identity(comp.source.module(n))
                assert verify_differential(C) == []
                count += 1
        assert count >= 100
        assert time.monotonic() - start < 5.0


class TestCriterion2WResolution:
    def test_w_fidelity_under_2s(self):
        start = time.monotonic()
        for p in (2, 3, 5):
            W = build_w(p, 20)  # raises on any structural defect
            assert verify_differential(W.complex) == []
            Q = W.quotient_complex()
            for n in range(21):
                assert HomologySpace(Q, n).rank == 1
            for n in range(1, 21):
                beta = W.quotient_bockstein(n)
                if n % 2 == 0:
                    assert beta == {("e", n - 1): 1}
                else:
                    assert beta == {}
        assert time.monotonic() - start < 2.0


class TestCriterion3EInfinity:
    def test_operad_axioms_and_einfinity_under_30s(self):
        start = time.monotonic()
        for m in (2, 3):
            O = surjection_operad(3, Zmod(m), 4)
            axioms = check_operad_axioms(O, 3, 4)
            assert axioms["passed"], axioms["failures"][:3]
            einf = check_einfinity(O, 3, 4)
            assert einf["passed"], einf["failures"][:3]
        assert time.monotonic() - start < 30.0


class TestCriterion4ModTwoOperations:
    def test_steenrod_axioms_on_bz2_under_60s(self):
        start = time.monotonic()
        ring = Zmod(2)
        X = classifying_space(2, 6)
        alg = CochainSystem(X, ring)
        lift = equivariant_lift_j(2, cap=12)
        spaces = {n: HomologySpace(alg.complex, n) for n in X.dims()}

        classes = {}
        for q in range(1, 7):
            classes[q] = [rep for _, rep in spaces[q].all_classes()]

        for q in range(1, 7):
            for rep in classes[q]:
                x = BigradedClass(q, 0, rep)
                for i in range(0, min(q, 6 - q) + 1):
                    out = steenrod_square(x, i, alg, lift)
                    H = spaces[q + i]
                    # table entry against the brute-force oracle
                    oracle = cup_i_oracle(X, ring, q - i, rep, q)
                    assert H.class_vector(out.rep) == \
                        H.class_vector(oracle), (q, i)
                    if i == q:
                        # top operation is the cup square
                        sq = cup(X, ring, rep, q, rep, q)
                        assert H.class_vector(out.rep) == \
                            H.class_vector(sq), q
                # vanishing above the degree
                for i in range(q + 1, 7 - q):
                    out = steenrod_square(x, i, alg, lift)
                    H = spaces[q + i]
                    assert all(ring.is_zero(c)
                               for c in H.class_vector(out.rep)), (q, i)

        # Bockstein compatibility: beta after P^s equals the
        # beta-shifted operation
        for q in range(1, 5):
            for rep in classes[q]:
                x = BigradedClass(q, 0, rep)
                for s in range(0, 3):
                    direct = power_op(x, s, alg, lift, bocksteined=True)
                    if direct.degree > 6 or direct.degree < 0:
                        continue
                    composed = bockstein(
                        power_op(x, s, alg, lift), X, 2)
                    H = spaces[direct.degree]
                    assert H.class_vector(direct.rep) == \
                        H.class_vector(composed.rep), (q, s)

        # additivity over every pair of classes in each degree
        for q in range(1, 6):
            for ra in classes[q]:
                for rb in classes[q]:
                    ab = _add(ring, ra, rb)
                    for i in range(0, min(q, 6 - 2 * q) + 1):
                        lhs = steenrod_square(
                            BigradedClass(q, 0, ab), i, alg, lift)
                        rhs = _add(
                            ring,
                            steenrod_square(BigradedClass(q, 0, ra),
                                            i, alg, lift).rep,
                            steenrod_square(BigradedClass(q, 0, rb),
                                            i, alg, lift).rep)
                        H = spaces[q + i]
                        assert H.class_vector(lhs.rep) == \
                            H.class_vector(rhs), (q, i)

        # index pattern of the nonvanishing theta evaluations
        pattern = verify_vanishing_pattern(alg, lift, degree_cap=3,
                                           index_cap=6)
        assert pattern["passed"], pattern["failures"][:3]
        assert time.monotonic() - start < 60.0


class TestCriterion5Cartan:
    def test_cartan_p3_under_5min(self):
        start = time.monotonic()
        ring = Zmod(3)
        X = classifying_space(3, 4)
        alg = CochainSystem(X, ring)
        report = verify_cartan(alg, degree_cap=2, p=3, smax=2,
                               with_bockstein=True, lift_cap=8)
        assert report["passed"], report["failures"][:3]
        assert report["checked"] > 0
        assert time.monotonic() - start < 300.0


class TestCriterion6Adem:
    def test_adem_p3_under_10min(self):
        start = time.monotonic()
        ring = Zmod(3)
        X = classifying_space(3, 8)
        alg = CochainSystem(X, ring)
        report = verify_adem(alg, p=3, pair_bound=3, degree_cap=4)
        assert report["passed"], report["failures"][:3]
        assert report["checked"] > 0
        assert time.monotonic() - start < 600.0


class TestCriterion7WellDefined:
    def test_ten_lift_pairs_agree(self):
        ring = Zmod(3)
        X = classifying_space(3, 3)
        alg = CochainSystem(X, ring)
        W = build_w(3, 6)
        H1 = HomologySpace(alg.complex, 1)
        H2 = HomologySpace(alg.complex, 2)
        x = BigradedClass(1, 0, H1.representative([1]))
        for seed in range(10):
            a = solved_lift(W, cap=6, seed=2 * seed + 1)
            b = solved_lift(W, cap=6, seed=2 * seed + 2)
            assert a.components != b.components
            za = power_op(x, 1, alg, a)
            zb = power_op(x, 1, alg, b)
            assert za.degree == 1
            assert H1.class_vector(za.rep) == H1.class_vector(zb.rep), seed
            ta = theta_bar(X, ring, a, 1, x.rep, 1)
            tb = theta_bar(X, ring, b, 1, x.rep, 1)
            assert H2.class_vector(ta) == H2.class_vector(tb), seed

    def test_ten_cohomologous_pairs_agree(self):
        ring = Zmod(3)
        X = classifying_space(3, 4)
        alg = CochainSystem(X, ring)
        lift = equivariant_lift_j(3, cap=8)
        C = alg.complex
        H2 = HomologySpace(C, 2)
        H4 = HomologySpace(C, 4)
        y = H2.representative([1] + [0] * (H2.rank - 1))
        d1 = C.differentials[1]
        base = power_op(BigradedClass(2, 0, y), 1, alg, lift)
        want = H4.class_vector(base.rep)
        for seed in range(10):
            rng = random.Random(1000 + seed)
            # C^1 has rank 2 and d1 rank 1, so a uniform f is a cocycle
            # a third of the time; redraw until the coboundary moves y
            df = {}
            while not df:
                f = {lab: rng.randrange(3) for lab in C.module(1).basis}
                df = d1.apply(f)
            y2 = _add(ring, y, df)
            assert y2 != y
            out = power_op(BigradedClass(2, 0, y2), 1, alg, lift)
            assert H4.class_vector(out.rep) == want, seed


class TestCriterion8BarHopf:
    def test_fixtures_under_10s(self):
        start = time.monotonic()
        for make in (trivial_dga, one_generator_dga, square_generator_dga):
            A = make()
            assert A.verify()["passed"]
            assert check_connected(A)["passed"]
            B = reduced_bar(A, 4, 4)
            rep = B.verify()
            assert rep["square_failures"] == []
            H = h0_hopf(B)
            hopf = H.verify()
            assert hopf["passed"], hopf["failures"][:3]
            colie = indecomposables(H).verify_co_jacobi()
            assert colie["passed"], colie["failures"][:3]
        assert time.monotonic() - start < 10.0


class TestCriterion9NegativeControls:
    def test_flipped_composition_sign_is_caught(self):
        ring = Zmod(3)
        O = surjection_operad(2, ring, 2)
        orig = O.compose_basis

        def flipped(u, k, vs, js):
            out = orig(u, k, vs, js)
            if (len(u) - k) % 2:
                return {w: ring.neg(ring.normalize(c))
                        for w, c in out.items()}
            return out

        O.compose_basis = flipped
        report = check_operad_axioms(O, 2, 2)
        assert not report["passed"]
        names = {f["check"] for f in report["failures"]}
        assert "composition-chain-map" in names
        assert all(f["witness"] for f in report["failures"])

    def test_dropped_koszul_sign_is_caught(self, monkeypatch):
        ring = Zmod(3)
        X = classifying_space(3, 2)
        baseline = check_algebra_axioms(surjection_operad(2, ring, 2), X,
                                        2, 2)
        assert baseline["passed"]
        monkeypatch.setattr(operads_module, "_cut_sign",
                            lambda u, lens, tpts: 1)
        report = check_algebra_axioms(surjection_operad(2, ring, 2), X, 2, 2)
        assert not report["passed"]
        assert all(f["witness"] for f in report["failures"])

    @pytest.mark.parametrize("corrupt", [
        # every letter read as degree one
        lambda orig: lambda keys, degrees=None: orig(keys),
        # no reordering signs at all
        lambda orig: lambda keys, degrees=None: 1,
    ], ids=["degrees-dropped", "sign-one"])
    def test_corrupted_koszul_rule_is_caught(self, monkeypatch, corrupt,
                                             fresh_operad_caches):
        # every graded reordering reads operads.koszul_sign, so one
        # corruption of it before the operad is built must break both the
        # operad's axioms and the action's; the fixture empties the
        # process-wide boundary, composition and block-sign caches, which
        # would otherwise serve signs computed before the corruption
        monkeypatch.setattr(operads_module, "koszul_sign",
                            corrupt(operads_module.koszul_sign))
        ring = Zmod(3)
        reports = [
            check_operad_axioms(surjection_operad(3, ring, 2), 3, 2),
            check_algebra_axioms(surjection_operad(2, ring, 2),
                                 classifying_space(3, 2), 2, 2),
        ]
        for report in reports:
            assert not report["passed"]
            assert all(f["witness"] for f in report["failures"])

    def test_clean_check_after_a_corrupted_one_passes(self, monkeypatch):
        # a negative control must not leave its corrupted signs in the
        # process-wide caches for the checks that run after it
        ring = Zmod(3)
        with cleared_operad_caches(), monkeypatch.context() as patch:
            patch.setattr(operads_module, "koszul_sign",
                          lambda keys, degrees=None: 1)
            assert not check_operad_axioms(surjection_operad(3, ring, 2),
                                           3, 2)["passed"]
        assert check_operad_axioms(surjection_operad(3, ring, 2), 3,
                                   2)["passed"]
        assert check_algebra_axioms(surjection_operad(2, ring, 2),
                                    classifying_space(3, 2), 2, 2)["passed"]

    def test_corrupted_power_normalisation_is_caught(self, monkeypatch):
        # with the unit forced to 1 the operations lose their
        # normalisation, and the Cartan formula must then fail on the
        # product classes
        ring = Zmod(3)
        alg = CochainSystem(classifying_space(3, 2), ring)
        baseline = verify_cartan(alg, degree_cap=1, p=3, smax=2)
        assert baseline["passed"], baseline["failures"][:3]
        monkeypatch.setattr(powerops_module, "power_unit",
                            lambda q, s, p: 1)
        report = verify_cartan(alg, degree_cap=1, p=3, smax=2)
        assert not report["passed"]
        assert report["checked"] == baseline["checked"]
        assert any(f["check"] == "cartan" for f in report["failures"])
        assert all(f["witness"] for f in report["failures"])

    def test_corrupted_adem_table_is_caught(self, monkeypatch):
        ring = Zmod(3)
        X = classifying_space(3, 2)
        alg = CochainSystem(X, ring)

        def corrupted(i, j, p):
            return (adem_coefficient(i, j, p) + 1) % p

        monkeypatch.setattr(powerops_module, "adem_coefficient", corrupted)
        report = verify_adem(alg, p=3, pair_bound=3, degree_cap=1)
        assert not report["passed"]
        bad = [f for f in report["failures"]
               if f["check"] == "adem-coefficient"]
        assert bad
        # the witness names the offending pair and both values
        i, j, got, want = bad[0]["witness"]
        assert got != want
        # each binomial is checked once per sweep, not once per class
        # and relation that reads it
        assert len({f["witness"][:2] for f in bad}) == len(bad)


class TestCriterion10Determinism:
    JOBS = [
        ["homology", "--space", "torus", "--ring", "Z"],
        ["homology", "--space", "bz3", "--dim", "4", "--ring", "Z/3"],
        ["w-resolution", "--p", "5", "--cap", "12"],
        ["dold-kan-roundtrip", "--count", "5", "--seed", "9"],
        ["operad-check", "--arity-cap", "2", "--degree-cap", "3",
         "--ring", "Z/3"],
        # arity 3 is where the composition memo is read most
        ["operad-check", "--arity-cap", "3", "--degree-cap", "2",
         "--ring", "Z/3"],
        ["einfinity-check", "--arity-cap", "2", "--degree-cap", "3",
         "--ring", "Z/2"],
        ["steenrod", "--p", "2", "--space", "bz2", "--dim", "4",
         "--degree-cap", "3"],
        ["cartan-check", "--space", "bz3", "--dim", "2", "--degree-cap",
         "1", "--smax", "2"],
        # the product's first factor is itself a product
        ["cartan-check", "--space", "torus", "--degree-cap", "1", "--smax",
         "1"],
        ["adem-check", "--space", "bz3", "--dim", "3", "--degree-cap", "2",
         "--amax", "3"],
        ["bar", "--fixture", "square-generator"],
        ["hopf-check", "--fixture", "one-generator"],
    ]

    def test_reports_byte_identical_across_runs(self, tmp_path):
        for idx, job in enumerate(self.JOBS):
            first = tmp_path / f"{idx}-a.json"
            second = tmp_path / f"{idx}-b.json"
            assert main(["--out", str(first)] + job) == 0, job
            assert main(["--out", str(second)] + job) == 0, job
            assert first.read_bytes() == second.read_bytes(), job
            json.loads(first.read_text())
