import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import chainops.operads as operads_module
from chainops.complexes import ChainComplex, HOMOLOGICAL
from chainops.freemod import FreeModule, add_scaled
from chainops.operads import (
    MAX_ARITY,
    Operad,
    _bases,
    _composable,
    _inputs,
    _sweep_size,
    check_einfinity,
    check_operad_axioms,
    interval_cut_action,
    is_surjection_word,
    koszul_sign,
    occurrence_counts,
    orientation,
    rename_values,
    surjection_boundary,
    surjection_composition,
    surjection_operad,
    surjection_words,
    word_count,
)
from chainops.powerops import build_w, equivariant_lift_j, theta_bar
from chainops.rings import QQ, ZZ, SizeBoundError, Zmod
from chainops.simplicial import (classifying_space, cochains, product_space,
                                 torus_space)
from oracles import (_compositions, check_algebra_axioms, filtered_cut_table,
                     k_input_action, solved_lift)


def _degree(u, k):
    return len(u) - k


def one_point_operad(ring, arity):
    """O(k) = the unit complex for every k, trivial action and gamma.

    Acyclic but not free: the basis point is fixed by everything."""
    levels = {k: ChainComplex(ring, {0: FreeModule(ring, [("pt", k)])}, {},
                              HOMOLOGICAL)
              for k in range(1, arity + 1)}

    def act(k, perm, label):
        return {label: 1}

    def compose(u, k, vs, arities):
        return {("pt", sum(arities)): 1}

    return Operad(ring, levels, act, compose, ("pt", 1))


class TestWords:
    def test_arity_two_is_two_per_degree(self):
        for d in range(6):
            ws = surjection_words(2, d)
            assert len(ws) == 2
            assert all(is_surjection_word(u, 2) for u in ws)

    def test_arity_three_counts(self):
        for d in range(5):
            assert len(surjection_words(3, d)) == 3 * 2 ** (d + 2) - 6

    def test_word_count_matches_the_listing(self):
        for k in range(5):
            for d in range(6 if k < 4 else 4):
                assert word_count(k, d) == len(surjection_words(k, d)), (k, d)

    def test_no_adjacent_repeats(self):
        for u in surjection_words(3, 3):
            assert all(u[i] != u[i + 1] for i in range(len(u) - 1))

    def test_orientation_values(self):
        assert orientation((1, 2)) == 1
        assert orientation((1, 2, 1)) == 1
        # caesuras at positions 0 (value 1) and 1 (value 2) are already
        # in (value, occurrence) order
        assert orientation((1, 2, 1, 2)) == 1
        # (2, 1, 2, 1): caesuras value 2 then value 1, one inversion
        assert orientation((2, 1, 2, 1)) == -1


class TestKoszulSign:
    """koszul_sign against a bubble sort that multiplies (-1)^(deg a *
    deg b) at each adjacent swap it makes."""

    @staticmethod
    def _bubble_sign(keys, degrees):
        items = list(zip(keys, degrees))
        sign = 1
        for end in range(len(items) - 1, 0, -1):
            for i in range(end):
                (a, da), (b, db) = items[i], items[i + 1]
                if a > b:
                    items[i], items[i + 1] = items[i + 1], items[i]
                    sign *= (-1) ** (da * db)
        return sign

    @pytest.mark.parametrize("key", [
        lambda rng: rng.randint(0, 4),
        lambda rng: (rng.randint(0, 2), rng.randint(0, 2)),
    ], ids=["int", "tuple"])
    def test_matches_bubble_sort(self, key):
        rng = random.Random(29)
        for _ in range(1500):
            n = rng.randint(0, 8)
            # few distinct keys, so most lists hold ties
            keys = [key(rng) for _ in range(n)]
            degrees = [rng.randint(0, 3) for _ in range(n)]
            assert koszul_sign(keys, degrees) \
                == self._bubble_sign(keys, degrees), (keys, degrees)
            assert koszul_sign(keys) == self._bubble_sign(keys, [1] * n), keys


class TestBoundary:
    def test_squares_to_zero(self):
        for k in (2, 3):
            for d in range(1, 5):
                for u in surjection_words(k, d):
                    acc = {}
                    for w, c in surjection_boundary(u, k).items():
                        for w2, c2 in surjection_boundary(w, k).items():
                            acc[w2] = acc.get(w2, 0) + c * c2
                    assert all(v == 0 for v in acc.values()), u

    def test_degree_drops_by_one(self):
        for u in surjection_words(2, 3):
            for w in surjection_boundary(u, 2):
                assert _degree(w, 2) == 2

    def test_equivariant_under_renaming(self):
        for d in range(4):
            for u in surjection_words(3, d + 1):
                for perm in itertools.permutations((1, 2, 3)):
                    lhs = {rename_values(w, perm): c
                           for w, c in surjection_boundary(u, 3).items()}
                    rhs = surjection_boundary(rename_values(u, perm), 3)
                    assert lhs == rhs


class TestComposition:
    def test_right_unit(self):
        for k in (1, 2, 3):
            for d in range(4):
                for u in surjection_words(k, d):
                    res = surjection_composition(u, k, [(1,)] * k, [1] * k)
                    assert res == {u: 1}

    def test_left_unit(self):
        for j in (1, 2, 3):
            for d in range(4):
                for v in surjection_words(j, d):
                    assert surjection_composition((1,), 1, [v], [j]) \
                        == {v: 1}

    def test_degree_additive(self):
        u = (1, 2, 1)
        v = (1, 2, 1, 2)
        res = surjection_composition(u, 2, [v, (1,)], [2, 1])
        assert res
        for w in res:
            assert _degree(w, 3) == _degree(u, 2) + _degree(v, 2)

    def test_cup_composed_with_itself(self):
        # the two ways of bracketing the cup word (1, 2)
        left = surjection_composition((1, 2), 2, [(1, 2), (1,)], [2, 1])
        right = surjection_composition((1, 2), 2, [(1,), (1, 2)], [1, 2])
        assert left == {(1, 2, 3): 1}
        assert right == {(1, 2, 3): 1}

    def test_chain_map_relation_small(self):
        # d(gamma(u; v, w)) = gamma(du; v, w) + (-1)^|u| gamma(u; dv, w)
        #                     + (-1)^{|u|+|v|} gamma(u; v, dw)
        for du_ in range(3):
            for u in surjection_words(2, du_):
                for dv in range(2):
                    for v in surjection_words(2, dv):
                        lhs = {}
                        for w, c in surjection_composition(
                                u, 2, [v, (1,)], [2, 1]).items():
                            for w2, c2 in surjection_boundary(w, 3).items():
                                lhs[w2] = lhs.get(w2, 0) + c * c2
                        rhs = {}
                        for u2, c in surjection_boundary(u, 2).items():
                            for w, c2 in surjection_composition(
                                    u2, 2, [v, (1,)], [2, 1]).items():
                                rhs[w] = rhs.get(w, 0) + c * c2
                        sgn = (-1) ** du_
                        for v2, c in surjection_boundary(v, 2).items():
                            for w, c2 in surjection_composition(
                                    u, 2, [v2, (1,)], [2, 1]).items():
                                rhs[w] = rhs.get(w, 0) + sgn * c * c2
                        keys = set(lhs) | set(rhs)
                        assert all(lhs.get(w, 0) == rhs.get(w, 0)
                                   for w in keys), (u, v)


class TestSurjectionOperadLevels:
    def test_level_ranks(self):
        O = surjection_operad(3, Zmod(2), 3)
        for d in range(4):
            assert O.level(2).module(d).rank == 2
            assert O.level(3).module(d).rank == 3 * 2 ** (d + 2) - 6

    def test_arity_one_is_the_unit_complex(self):
        O = surjection_operad(2, ZZ, 3)
        assert O.level(1).module(0).rank == 1
        assert O.unit == (1,)

    def test_differentials_square_to_zero(self):
        from chainops.complexes import verify_differential
        O = surjection_operad(3, ZZ, 3)
        for k in (1, 2, 3):
            assert verify_differential(O.level(k)) == []

    def test_group_relations(self):
        O = surjection_operad(3, Zmod(3), 2)
        assert O.group_relation_failures() == []

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            surjection_operad(3, ZZ, 30)

    def test_arity_guard(self):
        with pytest.raises(SizeBoundError, match="arity <= 4"):
            surjection_operad(MAX_ARITY + 1, ZZ, 0)
        assert surjection_operad(MAX_ARITY, ZZ, 0).arities() == \
            list(range(1, MAX_ARITY + 1))


class TestEInfinity:
    def test_arity_two_free_and_acyclic(self):
        for ring in (Zmod(2), ZZ):
            O = surjection_operad(2, ring, 6)
            report = check_einfinity(O, 2, 6)
            assert report["passed"], report["failures"]

    def test_one_point_operad_not_free(self):
        O = one_point_operad(Zmod(2), 2)
        report = check_einfinity(O, 2, 0)
        assert not report["passed"]
        checks = {f["check"] for f in report["failures"]}
        assert checks == {"freeness"}

    def test_one_point_operad_acyclic(self):
        O = one_point_operad(ZZ, 3)
        report = check_einfinity(O, 3, 0)
        assert all(f["check"] != "acyclicity" for f in report["failures"])


class TestOperadAxioms:
    def test_one_point_operad_passes(self):
        O = one_point_operad(ZZ, 3)
        report = check_operad_axioms(O, 3, 0)
        assert report["passed"], report["failures"]

    def test_surjection_operad_small_caps(self):
        O = surjection_operad(2, Zmod(3), 2)
        report = check_operad_axioms(O, 2, 2)
        assert report["passed"], report["failures"]

    def test_corrupted_composition_fails_with_witness(self):
        O = surjection_operad(3, ZZ, 1)
        original = O.compose_basis

        def tampered(u, k, vs, arities):
            out = original(u, k, vs, arities)
            if u == (1, 2) and list(vs) == [(1, 2), (1,)]:
                out = {w: -c for w, c in out.items()}
            return out

        O.compose_basis = tampered
        report = check_operad_axioms(O, 3, 1)
        assert not report["passed"]
        assert any("(1, 2)" in repr(f["witness"])
                   for f in report["failures"])


class TestCompositionMemo:
    """The surjection operad computes each composition once and hands out
    the stored result; the memo must key on everything gamma reads."""

    @pytest.mark.parametrize("arity_cap,degree_cap,ring", [
        (3, 2, Zmod(3)),
        (4, 1, ZZ),
    ])
    def test_memoised_composition_equals_the_reference(self, arity_cap,
                                                       degree_cap, ring):
        O = surjection_operad(arity_cap, ring, degree_cap)
        # the sweep fills the memo in order, so a key that confuses two
        # tuples hands the later one the earlier one's result
        for k, u, _, js, vs, _ in _composable(O, arity_cap, degree_cap):
            assert O.compose_basis(u, k, list(vs), list(js)) \
                == surjection_composition(u, k, vs, js), (u, vs, js)

    def test_each_distinct_composition_is_computed_once(
            self, monkeypatch, fresh_operad_caches):
        # the memo is one per process, keyed without the ring: it starts
        # empty here, and a second operad over another ring computes none
        computed = []

        def counting(u, k, vs, arities):
            computed.append((u, k, tuple(vs), tuple(arities)))
            return surjection_composition(u, k, vs, arities)

        monkeypatch.setattr(operads_module, "surjection_composition",
                            counting)
        O = surjection_operad(3, Zmod(3), 2)
        memoised = O.compose_basis
        requested = []

        def recording(u, k, vs, arities):
            requested.append((u, k, tuple(vs), tuple(arities)))
            return memoised(u, k, vs, arities)

        O.compose_basis = recording
        assert check_operad_axioms(O, 3, 2)["passed"]
        assert len(requested) == 3477
        assert len(set(requested)) == 193
        assert sorted(computed) == sorted(set(requested))
        computed.clear()
        assert check_operad_axioms(surjection_operad(3, ZZ, 2), 3,
                                   2)["passed"]
        assert computed == []

    def test_shared_results_are_not_mutated(self):
        ring = Zmod(3)
        X = classifying_space(3, 2)
        O = surjection_operad(3, ring, 2)
        first = check_operad_axioms(O, 3, 2)
        assert first["passed"]
        assert check_operad_axioms(O, 3, 2) == first
        fresh = check_algebra_axioms(surjection_operad(3, ring, 2), X, 2, 2)
        assert fresh["passed"]
        assert check_algebra_axioms(O, X, 2, 2) == fresh


class TestSweepSize:
    """check_operad_axioms counts its tuples from the basis sizes before
    it sweeps; the CLI tests cover the refusal (TestSizeBounds)."""

    @pytest.mark.parametrize("arity_cap,degree_cap", [
        (1, 0), (2, 3), (3, 1), (3, 2), (4, 1),
    ])
    def test_sweep_size_counts_the_tuples_the_sweep_visits(self, arity_cap,
                                                          degree_cap):
        O = surjection_operad(arity_cap, ZZ, degree_cap)
        bases = _bases(O, arity_cap, degree_cap)
        visited = 0
        for k, u, du, js, vs, ds in _composable(O, arity_cap, degree_cap):
            visited += 1 + sum(1 for _ in _inputs(
                bases, sum(js), arity_cap, degree_cap - du - sum(ds)))
        assert _sweep_size(bases, arity_cap, degree_cap) == visited


class TestComposableSweep:
    @staticmethod
    def _brute_force(O, arity_cap, degree_cap):
        def basis(j):
            C = O.level(j)
            return [(lab, n) for n in C.modules
                    for lab in C.module(n).basis]

        out = set()
        for k in O.arities():
            for js in itertools.product(O.arities(), repeat=k):
                if k > arity_cap or sum(js) > arity_cap:
                    continue
                for u, du in basis(k):
                    for chosen in itertools.product(*(basis(j) for j in js)):
                        ds = tuple(d for _, d in chosen)
                        if du + sum(ds) <= degree_cap:
                            out.add((k, u, du, js,
                                     tuple(v for v, _ in chosen), ds))
        return out

    @pytest.mark.parametrize("arity_cap,degree_cap", [(3, 2), (4, 1)])
    def test_yields_every_composable_tuple_once(self, arity_cap,
                                                degree_cap):
        O = surjection_operad(arity_cap, Zmod(2), degree_cap)
        seen = Counter(_composable(O, arity_cap, degree_cap))
        assert set(seen.values()) == {1}
        assert set(seen) == self._brute_force(O, arity_cap, degree_cap)

    @pytest.mark.parametrize("arity_cap,degree_cap,axioms,einfinity", [
        (2, 2, 20, 12),
        (3, 1, 110, 130),
        (3, 2, 266, 345),
        (3, 3, 574, 800),
        (4, 1, 946, 3996),
    ])
    def test_checked_counts(self, arity_cap, degree_cap, axioms, einfinity):
        O = surjection_operad(arity_cap, Zmod(2), degree_cap)
        report = check_operad_axioms(O, arity_cap, degree_cap)
        assert report["passed"], report["failures"][:3]
        assert report["checked"] == axioms
        report = check_einfinity(O, arity_cap, degree_cap)
        assert report["passed"], report["failures"][:3]
        assert report["checked"] == einfinity


class TestActionControls:
    FIXED = (1, 2, 1)

    def _fixing_operad(self, arity):
        # the transposition of arity 2 fixes one degree-1 word
        O = surjection_operad(arity, Zmod(3), 2)
        original = O.act

        def act(k, perm, label):
            if k == 2 and tuple(perm) == (2, 1) and label == self.FIXED:
                return {label: 1}
            return original(k, perm, label)

        O.act = act
        return O

    def test_freeness_names_the_fixed_word(self):
        report = check_einfinity(self._fixing_operad(2), 2, 2)
        assert {f["check"] for f in report["failures"]} == {"freeness"}
        assert [f["witness"] for f in report["failures"]] \
            == [(2, (2, 1), 1, self.FIXED)]

    def test_operad_axioms_catch_the_fixed_word(self):
        report = check_operad_axioms(self._fixing_operad(3), 3, 2)
        assert not report["passed"]
        checks = {f["check"] for f in report["failures"]}
        assert {"check": "group-relations", "witness": (2, "square", 1)} \
            in report["failures"]
        assert checks & {"outer-equivariance", "inner-equivariance"}


class TestCompositeModulus:
    @pytest.mark.parametrize("m", [4, 6])
    def test_levels_have_the_homology_of_the_unit(self, m):
        O = surjection_operad(3, Zmod(m), 2)
        report = check_einfinity(O, 3, 2)
        assert report["passed"], report["failures"]

    def test_dropped_differential_is_not_acyclic(self):
        ring = Zmod(4)
        O = surjection_operad(2, ring, 2)
        C = O.level(2)
        O.levels[2] = ChainComplex(ring, C.modules, {
            n: d for n, d in C.differentials.items() if n != 1})
        report = check_einfinity(O, 2, 2)
        assert not report["passed"]
        assert {f["check"] for f in report["failures"]} == {"acyclicity"}
        assert all(f["witness"][0] == 2 for f in report["failures"])


def _reference_interval_cut_action(X, ring, u, k, xs, cells=None):
    """The interval-cut action as one loop that lists its own cuts and
    reduces every factor into the ring before multiplying."""
    d = len(u) - k
    ns = [deg for _, deg in xs]
    n = sum(ns) - d
    if n < 0 or n not in X.dims():
        return {}
    occ = occurrence_counts(u)
    poss = {}
    for i, v in enumerate(u):
        poss.setdefault(v, []).append(i)
    per_value = []
    for s in range(1, k + 1):
        free = ns[s - 1] - occ[s] + 1
        if free < 0:
            return {}
        per_value.append(list(_compositions(free, occ[s])))
    out = {}
    for sigma in X.simplices(n) if cells is None else cells(n):
        sx = X.nondegenerate(sigma)
        total = ring.zero()
        for combo in itertools.product(*per_value):
            lens = [0] * len(u)
            used = {s: 0 for s in range(1, k + 1)}
            for i, v in enumerate(u):
                t = used[v] = used[v] + 1
                lens[i] = combo[v - 1][t - 1]
            tpts = [0]
            for length in lens:
                tpts.append(tpts[-1] + length)
            coeff = ring.one()
            for s, (entry, _) in enumerate(xs, start=1):
                verts = []
                for i in poss[s]:
                    verts.extend(range(tpts[i], tpts[i + 1] + 1))
                if len(set(verts)) < len(verts):
                    coeff = ring.zero()
                    break
                face = X.vertex_face(sx, verts)
                if face.is_degenerate:
                    coeff = ring.zero()
                    break
                c = entry.get(face.base, ring.zero())
                if ring.is_zero(c):
                    coeff = ring.zero()
                    break
                coeff = ring.mul(coeff, ring.normalize(c))
            if ring.is_zero(coeff):
                continue
            sign = ring.normalize(operads_module._cut_sign(u, lens, tpts))
            total = ring.add(total, ring.mul(sign, coeff))
        if not ring.is_zero(total):
            out[sigma] = total
    return out


def _awkward_values(ring):
    """Coefficients a caller may hand in unreduced: over Z/m a value
    above m, negatives, multiples of m and explicit zeros."""
    if ring.kind == "Zmod":
        m = ring.modulus
        return [m + 1, -1, m, 0, 2, -m - 2, 2 * m, 1]
    if ring.kind == "Q":
        return [Fraction(1, 2), -1, 0, Fraction(-2, 3), 3, Fraction(0)]
    return [2, -1, 0, 3, -2, 1]


class TestIntervalCutOracle:
    """oracles.k_input_action, the reference for the chain kernel, reads
    its cuts from the walk and reduces each output cell once; a
    per-factor reducing loop is its own reference, on every surjection
    word of arity <= 3 and degree <= 2 and distinct inputs."""

    @pytest.fixture(scope="class", params=["bz3", "torus", "bz3xbz3"])
    def space(self, request):
        if request.param == "bz3":
            return classifying_space(3, 3), None
        if request.param == "torus":
            return torus_space(), None
        X = classifying_space(3, 2)
        P = product_space(X, X)
        # a proper subset of each degree's cells, as verify_cartan passes
        return P, lambda n: P.simplices(n)[::3]

    @pytest.mark.parametrize("ring", [Zmod(3), Zmod(4), ZZ, QQ],
                             ids=str)
    def test_matches_the_reference(self, space, ring):
        X, cells = space
        values = _awkward_values(ring)
        top = min(max(X.dims()), 2)

        def cochain(q, slot):
            # a different cochain in each slot; some cells left out
            out = {}
            for i, lab in enumerate(X.simplices(q)):
                if (i + slot) % 5 != 4:
                    out[lab] = values[(i + 3 * slot) % len(values)]
            return out

        nonzero = 0
        for k in (1, 2, 3):
            for d in (0, 1, 2):
                for u in surjection_words(k, d):
                    for ns in itertools.product(range(top + 1), repeat=k):
                        xs = [(cochain(q, slot), q)
                              for slot, q in enumerate(ns)]
                        got = k_input_action(X, ring, u, k, xs, cells)
                        want = _reference_interval_cut_action(
                            X, ring, u, k, xs, cells)
                        assert got == want, (u, ns)
                        nonzero += bool(want)
        assert nonzero >= 200, nonzero


class TestCutTableOracle:
    """The walk that lists the interval cuts gives the cuts of the
    filtering build in tests/oracles.py, each once.

    The lift components stop at degree 8 at p = 3 and 5 at p = 5, where
    the filter takes about 2 s.  At degree 10 and 6 it takes about 22 s:
    the filter forms every product of compositions, and their number
    grows much faster with the degree than the cuts kept."""

    @staticmethod
    def assert_same_cuts(u, k, degrees):
        walked = operads_module._cut_table(u, k, degrees)
        assert len(set(walked)) == len(walked), (u, degrees)
        assert set(walked) == set(filtered_cut_table(u, k, degrees)), \
            (u, degrees)
        return len(walked)

    def test_every_small_word(self):
        cuts = 0
        for k in (1, 2, 3):
            for d in (0, 1, 2):
                for u in surjection_words(k, d):
                    for ns in itertools.product(range(4), repeat=k):
                        cuts += self.assert_same_cuts(u, k, ns)
        assert cuts > 1000, cuts

    @pytest.mark.parametrize("p, top", [(3, 8), (5, 5)])
    def test_every_word_of_the_lift(self, p, top):
        # classical_power reads e_n only on classes of degree
        # q >= n / (p - 1): the three smallest such q for each n
        lift = equivariant_lift_j(p, cap=top)
        cuts = 0
        for n in range(top + 1):
            least = -(-n // (p - 1))
            for q in range(least, least + 3):
                for u in lift.component(n):
                    cuts += self.assert_same_cuts(u, p, (q,) * p)
        assert cuts > 10000, cuts


class TestChainKernel:
    """interval_cut_action, a chain of arity-p words acting on the p-th
    power of one cochain, against oracles.k_input_action run on p copies
    of that cochain: each word alone, and each whole component with its
    coefficients, of the lifts TestCutTableOracle sweeps (p = 3 to degree
    8, p = 5 to degree 5, on the same degrees q), and of a seeded lift,
    whose coefficients are not all 1.  On BZ/3, and on BZ/3 x BZ/3 with
    a proper subset of the cells, as verify_cartan passes them.  The
    kernel reads x by cell index, through face rows kept on the space:
    repeated calls with other cochains and other cells read the rows
    the earlier calls filled."""

    @pytest.fixture(scope="class", params=["bz3", "bz3xbz3"])
    def space(self, request):
        if request.param == "bz3":
            return classifying_space(3, 5), None
        X = classifying_space(3, 2)
        P = product_space(X, X)
        return P, lambda n: P.simplices(n)[::3]

    @pytest.mark.parametrize("p, top", [(3, 8), (5, 5)])
    def test_matches_the_reference(self, space, p, top):
        X, cells = space
        ring = Zmod(p)
        values = _awkward_values(ring)
        W = build_w(p, top)
        lifts = [equivariant_lift_j(p, cap=top),
                 solved_lift(W, cap=top, seed=1)]
        assert any(c != 1 for n in range(top + 1)
                   for c in lifts[1].component(n).values())
        words = {}
        nonzero, reached = set(), set()
        for n in range(top + 1):
            least = -(-n // (p - 1))
            for q in range(least, least + 3):
                if q not in X.dims() or p * q - n not in X.dims():
                    continue
                reached.add(n)
                x = {lab: values[i % len(values)]
                     for i, lab in enumerate(X.simplices(q)) if i % 5 != 4}
                for lift in lifts:
                    chain = lift.component(n)
                    want = {}
                    for u, c in chain.items():
                        if (u, q) not in words:
                            words[u, q] = k_input_action(
                                X, ring, u, p, [(x, q)] * p, cells)
                            assert interval_cut_action(
                                X, ring, {u: 1}, p, x, q, cells) == \
                                words[u, q], (u, q)
                        add_scaled(want, c, words[u, q], ring)
                    assert interval_cut_action(X, ring, chain, p, x, q,
                                               cells) == want, (n, q)
                    if want:
                        nonzero.add(n)
        # every component that lands on the space is compared where it
        # is not 0; on BZ/3 that is every component
        assert nonzero == reached, (nonzero, reached)
        if cells is None:
            assert reached == set(range(top + 1))

    def test_repeated_calls_on_one_space(self):
        # one fresh product space: cells= a subset, then every cell, then
        # the subset again, each with two cochains, so that calls read
        # rows that earlier calls left partly or wholly filled
        ring = Zmod(3)
        values = _awkward_values(ring)
        X = classifying_space(3, 2)
        P = product_space(X, X)
        lift = equivariant_lift_j(3, cap=4)
        inputs = [{lab: values[(i + shift) % len(values)]
                   for i, lab in enumerate(P.simplices(2))
                   if i % 4 != shift}
                  for shift in (0, 3)]
        nonzero = 0
        for cells in (lambda n: P.simplices(n)[1::4], None,
                      lambda n: P.simplices(n)[1::4]):
            for x in inputs:
                for n in (2, 3, 4):
                    chain = lift.component(n)
                    want = {}
                    for u, c in chain.items():
                        add_scaled(want, c, k_input_action(
                            P, ring, u, 3, [(x, 2)] * 3, cells), ring)
                    assert interval_cut_action(P, ring, chain, 3, x, 2,
                                               cells) == want, n
                    nonzero += bool(want)
        assert nonzero == 18

    def test_keys_outside_the_q_cells_are_ignored(self):
        # x read by cell index ignores a key that is not a q-cell, as the
        # reference's read by label does: cells of other degrees and a
        # label of no cell
        ring = Zmod(3)
        X = classifying_space(3, 4)
        lift = equivariant_lift_j(3, cap=4)
        x = {lab: 1 + i % 2 for i, lab in enumerate(X.simplices(2))}
        stray = dict(x)
        stray.update({(1,): 2, (1, 2, 1): 1, (2, 2, 2, 2): 1, "stray": 1})
        nonzero = 0
        for n in range(2, 5):
            chain = lift.component(n)
            want = {}
            for u, c in chain.items():
                add_scaled(want, c, k_input_action(X, ring, u, 3,
                                                   [(x, 2)] * 3), ring)
            assert interval_cut_action(X, ring, chain, 3, stray, 2) == want
            nonzero += bool(want)
        assert nonzero == 3


class TestChainTableMemo:
    """The table of a (chain, k, q) is built once per process, on first
    use, and shared by every call on every space; a seeded lift's
    component, whose words differ, gets a table of its own."""

    def test_each_chain_is_tabled_once(self, monkeypatch):
        table = operads_module._chain_table
        requested = []
        current = [None]

        def recording(terms, k, q):
            requested.append(((terms, k, q), current[0]))
            return table(terms, k, q)

        table.cache_clear()
        monkeypatch.setattr(operads_module, "_chain_table", recording)
        ring = Zmod(3)
        plain = equivariant_lift_j(3, cap=4)
        seeded = solved_lift(build_w(3, 4), cap=4, seed=3)
        spaces = {"bz3": classifying_space(3, 3), "torus": torus_space(),
                  "bz3-again": classifying_space(3, 3)}
        for name, X in spaces.items():
            current[0] = name
            for lift in (plain, seeded):
                for n in range(5):
                    for q in (1, 2):
                        x = {lab: 1 for lab in X.simplices(q)}
                        theta_bar(X, ring, lift, n, x, q)
        keys = [key for key, _ in requested]
        distinct = set(keys)
        info = table.cache_info()
        assert (info.misses, info.hits) == (len(distinct),
                                            len(keys) - len(distinct))
        # a table read on three spaces, built on the first
        read_on = {}
        for key, name in requested:
            read_on.setdefault(key, set()).add(name)
        assert any(len(names) == 3 for names in read_on.values())
        # the seeded component of a degree is a chain of its own
        for n in (1, 2):
            ours = frozenset(plain.component(n).items())
            theirs = frozenset(seeded.component(n).items())
            assert ours != theirs
            assert (ours, 3, 1) in distinct and (theirs, 3, 1) in distinct


class TestActionIsAChainMap:
    """delta theta(u; x) = theta(du; x) + sum_s (-1)^(d + n_1 + ... +
    n_(s-1)) theta(u; ..., delta x_s, ...) for every word of the shapes
    below, on random integral cochains of the BZ/3 6-skeleton.  These
    are degrees check_algebra_axioms does not reach: a caesura sign
    that is right only up to degree 3 in arity 2, degree 2 in arity 3
    and degree 1 in arity 4 fails each shape."""

    @pytest.fixture(scope="class")
    def space(self):
        X = classifying_space(3, 6)
        from chainops.simplicial import cochains
        return X, cochains(X, ZZ)

    @pytest.mark.parametrize("k, d, ns", [
        (2, 4, (3, 4)),
        (2, 5, (4, 4)),
        (3, 3, (1, 1, 3)),
        (3, 3, (2, 2, 2)),
        (4, 2, (1, 1, 1, 1)),
    ])
    def test_action_commutes_with_the_differentials(self, space, k, d, ns):
        X, C = space
        rng = random.Random(sum(ns) + 7 * d)

        def delta(x, n):
            return {lab: c for lab, c in C.differential(n).apply(x).items()
                    if c}

        xs = [({lab: rng.choice((-2, -1, 1, 2)) for lab in X.simplices(n)}, n)
              for n in ns]
        out = sum(ns) - d
        compared = 0
        for u in surjection_words(k, d):
            terms = [add_scaled({}, c, k_input_action(X, ZZ, w, k, xs), ZZ)
                     for w, c in surjection_boundary(u, k).items()]
            sign = (-1) ** d
            for s in range(k):
                moved = list(xs)
                moved[s] = (delta(*xs[s]), ns[s] + 1)
                terms.append(add_scaled(
                    {}, sign, k_input_action(X, ZZ, u, k, moved), ZZ))
                sign *= (-1) ** ns[s]
            rhs = {}
            for term in terms:
                add_scaled(rhs, 1, term, ZZ)
            lhs = delta(k_input_action(X, ZZ, u, k, xs), out)
            assert lhs == {lab: c for lab, c in rhs.items() if c}, u
            compared += any(terms)
        assert compared, "every term of every identity was 0"
