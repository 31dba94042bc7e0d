"""Bar construction and Hopf-algebra structure for connected rational DGAs.

A finitely presented augmented differential graded algebra over the
rationals, bigraded by (cohomological degree, weight), feeds a reduced
bar construction; the degree-zero cohomology of the bar complex carries
a commutative Hopf algebra structure (shuffle product, deconcatenation
coproduct) whose indecomposables form a co-Lie coalgebra.

Everything here is window-truncated: word length, degree, and weight
caps are explicit arguments, and operations that could be affected by
content outside the window say so rather than silently truncating.
"""

import itertools
from fractions import Fraction

from .complexes import COHOMOLOGICAL, ChainComplex, verify_differential
from .freemod import FreeModule, FreeModuleMap, add_scaled, zero_module
from .homology_classes import HomologySpace
from .linalg import EchelonBasis, sparse_rows
from .operads import koszul_sign
from .rings import QQ


class AugmentedDGA:
    """Augmented bigraded DGA over Q, given by a finite basis.

    basis: dict label -> (degree, weight).  One label must sit in
    bidegree (0, 0) and play the role of the unit; the augmentation
    sends it to 1 and every other basis label to 0, so the augmentation
    ideal is spanned by the non-unit labels.

    diff: dict label -> {label: coefficient}, raising degree by one and
    preserving weight.  mult: dict (label, label) -> {label: coeff};
    missing pairs multiply to zero (interpreted as falling outside the
    retained window when their bidegrees would allow a product).
    """

    def __init__(self, name, basis, unit, diff=None, mult=None):
        self.name = name
        self.basis = dict(basis)
        self.unit = unit
        if basis[unit] != (0, 0):
            raise ValueError("unit must sit in bidegree (0, 0)")
        self.diff = {a: dict(v) for a, v in (diff or {}).items()}
        self.mult = {k: dict(v) for k, v in (mult or {}).items()}

    def degree(self, a):
        return self.basis[a][0]

    def weight(self, a):
        return self.basis[a][1]

    def ideal_basis(self):
        """Basis of the augmentation ideal."""
        return [a for a in self.basis if a != self.unit]

    def d(self, vec):
        out = {}
        for a, c in vec.items():
            add_scaled(out, c, self.diff.get(a, {}), QQ)
        return out

    def product(self, vec1, vec2):
        out = {}
        for a, c in vec1.items():
            for b, c2 in vec2.items():
                if a == self.unit:
                    term = {b: Fraction(1)}
                elif b == self.unit:
                    term = {a: Fraction(1)}
                else:
                    term = self.mult.get((a, b), {})
                add_scaled(out, c * c2, term, QQ)
        return out

    def augment(self, vec):
        return vec.get(self.unit, Fraction(0))

    def verify(self):
        """Differential, Leibniz, graded-commutativity, augmentation."""
        failures = []
        for a in self.basis:
            dd = self.d(self.d({a: Fraction(1)}))
            if dd:
                failures.append({"check": "d-squared", "witness": a})
            for b, c in self.diff.get(a, {}).items():
                qa, ra = self.basis[a]
                qb, rb = self.basis[b]
                if qb != qa + 1 or rb != ra:
                    failures.append({"check": "differential-bidegree",
                                     "witness": (a, b)})
        labels = list(self.basis)
        for a in labels:
            for b in labels:
                ab = self.product({a: Fraction(1)}, {b: Fraction(1)})
                ba = self.product({b: Fraction(1)}, {a: Fraction(1)})
                sgn = Fraction((-1) ** (self.degree(a) * self.degree(b)))
                flipped = {e: sgn * c for e, c in ba.items()}
                if ab != flipped:
                    failures.append({"check": "commutativity",
                                     "witness": (a, b)})
                lhs = self.d(ab)
                rhs = self.product(self.d({a: Fraction(1)}),
                                   {b: Fraction(1)})
                add_scaled(rhs, -1 if self.degree(a) % 2 else 1,
                           self.product({a: Fraction(1)},
                                        self.d({b: Fraction(1)})), QQ)
                if lhs != rhs:
                    failures.append({"check": "leibniz", "witness": (a, b)})
                got = self.augment(ab)
                want = self.augment({a: Fraction(1)}) * \
                    self.augment({b: Fraction(1)})
                if got != want:
                    failures.append({"check": "augmentation",
                                     "witness": (a, b)})
        failures.sort(key=repr)
        return {"passed": not failures, "failures": failures}

    def complex_for_weight(self, r):
        """The cochain complex of the weight-r part."""
        by_deg = {}
        for a, (q, w) in self.basis.items():
            if w == r:
                by_deg.setdefault(q, []).append(a)
        modules = {q: FreeModule(QQ, sorted(by_deg[q], key=repr))
                   for q in by_deg}
        diffs = {}
        for q, mod in modules.items():
            tgt = modules.get(q + 1) or zero_module(QQ)
            entries = {}
            for a in mod.basis:
                for b, c in self.diff.get(a, {}).items():
                    entries[(b, a)] = c
            diffs[q] = FreeModuleMap(mod, tgt, entries)
        return ChainComplex(QQ, modules, diffs, direction=COHOMOLOGICAL)


def check_connected(A: AugmentedDGA) -> dict:
    """Cohomological connectedness within the retained window.

    Requires H^i(A)(r) = 0 for i < 0, H^0(A)(r) = 0 for r != 0, and
    H^0(A)(0) = Q.  Returns per-clause violations.
    """
    weights = sorted({w for (_, w) in A.basis.values()})
    failures = []
    for r in weights:
        C = A.complex_for_weight(r)
        degrees = [q for q in C.modules if q <= 0]
        for q in degrees:
            rank = HomologySpace(C, q).rank
            if q < 0 and rank != 0:
                failures.append({"check": "negative-degree",
                                 "witness": (q, r, rank)})
            elif q == 0:
                want = 1 if r == 0 else 0
                if rank != want:
                    failures.append({"check": "degree-zero",
                                     "witness": (q, r, rank)})
    failures.sort(key=repr)
    return {"passed": not failures, "failures": failures}


# the lowest shifted degree a bar window keeps: one below degree 0, so
# that the differential into degree 0, which H^0 reads, is built
DEGREE_LO = -1


def _word_degree(A, word):
    return sum(A.degree(a) - 1 for a in word)


class BarComplex:
    """Window of the reduced bar construction of an augmented DGA.

    Words are tuples of augmentation-ideal basis labels of length at
    most length_cap, graded by the total shifted degree; the
    differential combines the internal differentials and the collapse
    of adjacent letters, with the usual shift signs.

    The top degree degree_hi is the edge of the window: degree
    degree_hi + 1 is never built, so the differential out of degree_hi
    is dropped and H^{degree_hi} of the window is not faithful (every
    top-degree word counts as a cocycle).  Cohomology below degree_hi
    is unaffected by that cut.  incomplete lists the (word, lost term)
    pairs where the boundary of a word below degree_hi leaves the
    window; since each boundary term raises shifted degree by exactly
    one and never lengthens a word, such a loss only comes from a
    product or differential that does not respect the grading.
    """

    def __init__(self, A: AugmentedDGA, length_cap: int, degree_hi: int):
        self.algebra = A
        self.length_cap = length_cap
        self.degree_hi = degree_hi
        ideal = A.ideal_basis()
        words = {(): 0}
        for n in range(1, length_cap + 1):
            for w in itertools.product(ideal, repeat=n):
                deg = _word_degree(A, w)
                if DEGREE_LO <= deg <= degree_hi:
                    words[w] = deg
        by_deg = {}
        for w, deg in words.items():
            by_deg.setdefault(deg, []).append(w)
        self.modules = {deg: FreeModule(QQ, sorted(ws))
                        for deg, ws in by_deg.items()}
        self.incomplete = []
        diffs = {}
        for deg, mod in self.modules.items():
            tgt = self.modules.get(deg + 1) or zero_module(QQ)
            entries = {}
            for w in mod.basis:
                for w2, c in self._boundary(w).items():
                    if w2 in tgt.index:
                        entries[(w2, w)] = \
                            entries.get((w2, w), Fraction(0)) + c
                    elif deg < degree_hi:
                        self.incomplete.append((w, w2))
            diffs[deg] = FreeModuleMap(mod, tgt, entries)
        self.complex = ChainComplex(QQ, self.modules, diffs,
                                    direction=COHOMOLOGICAL)

    def _boundary(self, word):
        A = self.algebra
        out = {}

        def add(w, c):
            if c:
                out[w] = out.get(w, Fraction(0)) + c

        sgn = 1
        for i, a in enumerate(word):
            for b, c in A.diff.get(a, {}).items():
                add(word[:i] + (b,) + word[i + 1:], sgn * c)
            sgn *= (-1) ** (A.degree(a) - 1)
            if i + 1 < len(word):
                prod = A.product({a: Fraction(1)},
                                 {word[i + 1]: Fraction(1)})
                for e, c in prod.items():
                    if e == A.unit:
                        continue
                    add(word[:i] + (e,) + word[i + 2:], -sgn * c)
        return {w: c for w, c in out.items() if c}

    def verify(self):
        """d squared vanishes on the retained window, and no word below
        the top degree has boundary terms outside it (see incomplete).
        The top degree is the edge of the window and is not checked."""
        bad = verify_differential(self.complex)
        return {"passed": not bad and not self.incomplete,
                "square_failures": bad, "incomplete": self.incomplete}


def reduced_bar(A: AugmentedDGA, length_cap: int,
                degree_hi: int = 2) -> BarComplex:
    """Reduced bar construction of a connected augmented DGA, on the
    window of shifted degrees DEGREE_LO through degree_hi.

    Words draw letters from the augmentation ideal; raising degree_hi
    widens the window the differential is verified on.  Only cohomology
    strictly below degree_hi is faithful.
    """
    return BarComplex(A, length_cap, degree_hi)


def shuffle_words(A, w1, w2):
    """Signed shuffle product of two bar words.

    Letters carry their shifted degrees; the sign of a shuffle is the
    Koszul sign of the interleaving permutation.
    """
    n1, n2 = len(w1), len(w2)
    degs1 = [A.degree(a) - 1 for a in w1]
    degs2 = [A.degree(a) - 1 for a in w2]
    out = {}
    for positions in itertools.combinations(range(n1 + n2), n1):
        rest = tuple(t for t in range(n1 + n2) if t not in positions)
        word = [None] * (n1 + n2)
        for a, t in zip(w1, positions):
            word[t] = a
        for b, t in zip(w2, rest):
            word[t] = b
        word = tuple(word)
        out[word] = out.get(word, Fraction(0)) + koszul_sign(
            positions + rest, degs1 + degs2)
    return {w: c for w, c in out.items() if c}


class HopfData:
    """H^0 of a bar window as a commutative Hopf algebra.

    Elements are dicts mapping degree-zero bar words to rationals,
    considered up to coboundaries; the basis lists canonical cocycle
    representatives.  Product is the shuffle, coproduct is
    deconcatenation, and the antipode is computed recursively along the
    word-length filtration.
    """

    def __init__(self, B: BarComplex):
        self.bar = B
        self.algebra = B.algebra
        self.h0 = HomologySpace(B.complex, 0)
        self.basis = []
        for idx in range(self.h0.rank):
            coords = [Fraction(0)] * self.h0.rank
            coords[idx] = Fraction(1)
            self.basis.append(self.h0.representative(coords))

    def product(self, x, y):
        out = {}
        for w1, c1 in x.items():
            for w2, c2 in y.items():
                for w, s in shuffle_words(self.algebra, w1, w2).items():
                    if len(w) <= self.bar.length_cap:
                        out[w] = out.get(w, Fraction(0)) + c1 * c2 * s
                    # longer shuffles fall outside the window; for
                    # degree-zero words every letter has shifted degree
                    # zero, so truncation only loses length > cap words
        return {w: c for w, c in out.items() if c}

    def coproduct(self, x):
        out = {}
        for w, c in x.items():
            for i in range(len(w) + 1):
                key = (w[:i], w[i:])
                out[key] = out.get(key, Fraction(0)) + c
        return {k: c for k, c in out.items() if c}

    def counit(self, x):
        return x.get((), Fraction(0))

    def unit_element(self):
        return {(): Fraction(1)}

    def antipode(self, x):
        """S with m(S (x) id)Delta = unit . counit, built by recursion
        on word length."""
        out = add_scaled({}, self.counit(x), self.unit_element(), QQ)
        pending = {w: c for w, c in x.items() if w}
        for length in range(1, self.bar.length_cap + 1):
            for w in sorted(k for k in pending if len(k) == length):
                c = pending[w]
                for i in range(1, len(w)):
                    left = self.antipode({w[:i]: Fraction(1)})
                    add_scaled(out, -c, self.product(
                        left, {w[i:]: Fraction(1)}), QQ)
                add_scaled(out, -c, {w: 1}, QQ)
        return out

    def verify(self):
        """Bialgebra, commutativity, counit, and antipode axioms on the
        canonical basis, within caps."""
        failures = []
        for x in self.basis:
            # counit axioms
            lhs = {}
            for (w1, w2), c in self.coproduct(x).items():
                if not w1:
                    lhs[w2] = lhs.get(w2, Fraction(0)) + c
            if {w: c for w, c in lhs.items() if c} != x:
                failures.append({"check": "counit", "witness": repr(x)})
            # antipode axiom: m(S (x) id) Delta = unit . counit
            acc = {}
            for (w1, w2), c in self.coproduct(x).items():
                add_scaled(acc, c, self.product(
                    self.antipode({w1: Fraction(1)}), {w2: Fraction(1)}), QQ)
            want = add_scaled({}, self.counit(x), self.unit_element(), QQ)
            if acc != want:
                failures.append({"check": "antipode", "witness": repr(x)})
        for x in self.basis:
            for y in self.basis:
                if _max_len(x) + _max_len(y) > self.bar.length_cap:
                    continue
                xy = self.product(x, y)
                yx = self.product(y, x)
                if xy != yx:
                    failures.append({"check": "commutativity",
                                     "witness": (repr(x), repr(y))})
                lhs = self.coproduct(xy)
                rhs = {}
                for (a1, a2), c in self.coproduct(x).items():
                    for (b1, b2), c2 in self.coproduct(y).items():
                        # degree-zero words have even letters, so the
                        # Koszul swap sign is +1
                        for w1, s1 in self.product(
                                {a1: Fraction(1)},
                                {b1: Fraction(1)}).items():
                            for w2, s2 in self.product(
                                    {a2: Fraction(1)},
                                    {b2: Fraction(1)}).items():
                                key = (w1, w2)
                                rhs[key] = rhs.get(key, Fraction(0)) \
                                    + c * c2 * s1 * s2
                rhs = {k: c for k, c in rhs.items() if c}
                if lhs != rhs:
                    failures.append({"check": "bialgebra",
                                     "witness": (repr(x), repr(y))})
        failures.sort(key=repr)
        return {"passed": not failures, "failures": failures}


def _max_len(x):
    return max((len(w) for w in x), default=0)


def h0_hopf(B: BarComplex) -> HopfData:
    """Degree-zero bar cohomology with its Hopf structure."""
    return HopfData(B)


class CoLieData:
    """Indecomposables of a connected commutative Hopf algebra with the
    cobracket induced by the reduced coproduct."""

    def __init__(self, H: HopfData):
        self.hopf = H
        positive = [x for x in H.basis if H.counit(x) == 0 and x]
        self.products = EchelonBasis(QQ, sparse_rows(
            [H.h0.class_vector(H.product(x, y)) or ()
             for x in positive for y in positive], QQ))
        # keep a class only when its reduction raises the rank of the
        # reductions kept so far: a basis of the quotient
        kept = EchelonBasis(QQ)
        self.basis = [
            x for x, v in zip(positive, sparse_rows(
                [H.h0.class_vector(x) for x in positive], QQ))
            if kept.add(self.products.reduce(v))]

    def project(self, vec):
        """Canonical coordinates of a class in the indecomposable
        quotient."""
        coords = self.hopf.h0.class_vector(vec)
        if coords is None:
            return None
        red = self.products.reduce(sparse_rows([coords], QQ)[0])
        return tuple(red.get(i, QQ.zero()) for i in range(len(coords)))

    def cobracket(self, x):
        """Antisymmetrized reduced deconcatenation, with both tensor
        legs projected to indecomposables."""
        H = self.hopf
        out = {}
        for (w1, w2), c in H.coproduct(x).items():
            if not w1 or not w2:
                continue
            a = self.project({w1: Fraction(1)})
            b = self.project({w2: Fraction(1)})
            if a is None or b is None:
                continue
            out[(a, b)] = out.get((a, b), Fraction(0)) + c
            out[(b, a)] = out.get((b, a), Fraction(0)) - c
        return {k: c for k, c in out.items() if c}

    def verify_co_jacobi(self):
        """Cyclic sum of (cobracket (x) id) . cobracket vanishes."""
        failures = []
        index = {}
        for x in self.basis:
            key = self.project(x)
            index[key] = x
        for x in self.basis:
            acc = {}
            for (a, b), c in self.cobracket(x).items():
                if a not in index:
                    continue
                for (a1, a2), c2 in self.cobracket(index[a]).items():
                    for key in ((a1, a2, b), (a2, b, a1), (b, a1, a2)):
                        acc[key] = acc.get(key, Fraction(0)) + c * c2
            acc = {k: c for k, c in acc.items() if c}
            if acc:
                failures.append({"check": "co-jacobi", "witness": repr(x)})
        return {"passed": not failures, "failures": failures}


def indecomposables(H: HopfData) -> CoLieData:
    """Indecomposable quotient of the bar Hopf algebra as a co-Lie
    coalgebra."""
    return CoLieData(H)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def trivial_dga() -> AugmentedDGA:
    """Q concentrated in bidegree (0, 0)."""
    return AugmentedDGA("trivial", {"1": (0, 0)}, "1")


def one_generator_dga() -> AugmentedDGA:
    """Free graded-commutative algebra on a closed degree-1 weight-1
    generator (its square vanishes in characteristic zero)."""
    basis = {"1": (0, 0), "x": (1, 1)}
    mult = {("x", "x"): {}}
    return AugmentedDGA("free(x)", basis, "1", mult=mult)


def square_generator_dga() -> AugmentedDGA:
    """A closed even generator together with its square: x in bidegree
    (2, 1) and y = x^2 in bidegree (4, 2), truncated above weight 2."""
    basis = {"1": (0, 0), "x": (2, 1), "y": (4, 2)}
    mult = {("x", "x"): {"y": Fraction(1)},
            ("x", "y"): {}, ("y", "x"): {}, ("y", "y"): {}}
    return AugmentedDGA("free(x)/window", basis, "1", mult=mult)
