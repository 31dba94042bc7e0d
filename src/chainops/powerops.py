"""Mod-p power operations on simplicial cochains.

The pieces: the period-two free resolution W of the p-element field
over the cyclic group ring (with its coproduct), which only the
w-resolution command builds; an equivariant lift of its generators into
the arity-p level of the surjection operad, listed by a closed-form
recursion in p alone (lift_words); and the operations obtained by
evaluating lifted generators on p-th tensor powers of a cocycle.
Verifiers check the Cartan and Adem relations on finite test algebras.

One routine, classical_power, evaluates every reduced power, under two
indexings of the same family on a class of degree q:

- the classical index s, which adem-check uses: P^s raises degree by
  2s(p - 1), P^0 is the identity and P^{q/2} the p-th power;
- the weight index, which power_op takes and cartan-check --smax
  sweeps: weight s names the classical P^{q-s} (generator index
  (2s - q)(p - 1)) and raises the weight grading by s(p - 1).

Steenrod squares are the p = 2 case, Sq^{2s} = P^s and Sq^{2s+1} the
Bockstein variant.

The odd-prime Adem relations are data: verify_adem checks the terms
that adem_terms expands from the table ADEM_TERMS.
"""

from __future__ import annotations

import functools
import itertools
import math

from .complexes import ChainComplex, homology, verify_differential
from .freemod import FreeModule, FreeModuleMap, add_scaled
from .homology_classes import HomologySpace
from .operads import interval_cut_action, koszul_sign
from .rings import RingSpec, SizeBoundError, Zmod, _is_prime
from .simplicial import (FiniteSimplicialSet, Simplex, chains, cochains,
                         product_space, word_for_positions)


# ---------------------------------------------------------------------------
# the cyclic resolution
# ---------------------------------------------------------------------------

class WResolution:
    """Free resolution of Z/p over Z/p[pi], pi cyclic of order p.

    Degree n holds the free rank-1 module on e_n; the basis of the
    underlying complex is alpha^j e_n, labelled ("e", n, j).  The
    boundary alternates between T = alpha - 1 (odd generators) and
    N = 1 + alpha + ... + alpha^(p-1) (even generators), so that the
    augmentation sending every alpha^j e_0 to 1 makes the whole thing
    exact.  A coproduct psi (a chain map, counital for the
    augmentation) makes W a coalgebra up to the usual Koszul signs.
    The operations never read W (the lift is a function of p alone);
    the w-resolution command and the tests' reference lift solve do.
    """

    def __init__(self, p: int, cap: int):
        self.p = p
        self.cap = cap
        self.ring = Zmod(p)
        modules = {}
        diffs = {}
        for n in range(cap + 1):
            modules[n] = FreeModule(self.ring,
                                    [("e", n, j) for j in range(p)])
        for n in range(1, cap + 1):
            entries = {}
            for j in range(p):
                for j2, c in self.boundary_element(n).items():
                    t = ("e", n - 1, (j + j2) % p)
                    s = ("e", n, j)
                    entries[(t, s)] = (entries.get((t, s), 0) + c) % p
            diffs[n] = FreeModuleMap(modules[n], modules[n - 1],
                                     {k: v for k, v in entries.items()
                                      if v % p})
        self.complex = ChainComplex(self.ring, modules, diffs)

    def boundary_element(self, n):
        """The group-ring element (as dict power -> coeff) with
        boundary(e_n) = element * e_{n-1}."""
        if n % 2 == 1:
            return {1: 1, 0: -1}                      # T
        return {j: 1 for j in range(self.p)}          # N

    def psi(self, n):
        """Coproduct of e_n: list of ((n1, r), (n2, s), coeff) terms
        meaning alpha^r e_{n1} tensor alpha^s e_{n2}."""
        p = self.p
        out = []
        if n % 2 == 1:
            i = (n - 1) // 2
            for j in range(i + 1):
                k = i - j
                out.append(((2 * j, 0), (2 * k + 1, 0), 1))
                out.append(((2 * j + 1, 0), (2 * k, 1), 1))
        else:
            i = n // 2
            for j in range(i + 1):
                out.append(((2 * j, 0), (2 * (i - j), 0), 1))
            for j in range(i):
                k = i - 1 - j
                for r in range(p):
                    for s in range(r + 1, p):
                        out.append(((2 * j + 1, r), (2 * k + 1, s), 1))
        return out

    # -- the pi-coinvariant quotient -----------------------------------

    def quotient_complex(self) -> ChainComplex:
        """W tensored over the group ring with Z/p: rank 1 per degree,
        with the differential read from boundary_element at alpha = 1
        (the sum of its coefficients mod p), which is zero because both
        N and T augment to zero."""
        modules = {n: FreeModule(self.ring, [("e", n)])
                   for n in range(self.cap + 1)}
        diffs = {}
        for n in range(1, self.cap + 1):
            at_one = sum(self.boundary_element(n).values())
            diffs[n] = FreeModuleMap(modules[n], modules[n - 1],
                                     {(("e", n - 1), ("e", n)): at_one})
        return ChainComplex(self.ring, modules, diffs)

    def quotient_bockstein(self, n):
        """Bockstein of the class e_n in the quotient, via the Z/p^2
        lift: boundary coefficients evaluated at alpha = 1, divided by
        p.  Sends even-index generators to the odd-index generator one
        degree below; kills odd-index generators."""
        if n == 0:
            return {}
        lift = sum(self.boundary_element(n).values())
        c = (lift % (self.p * self.p)) // self.p
        c %= self.p
        return {("e", n - 1): c} if c else {}


# build_w's cost grows about as p^2 (cap + 1)^2, mostly in _verify_psi.
# At this bound the slowest admitted requests take 0.4-0.75 s on a 2-core
# container (p = 3 with cap 332, 31 with 31, 97 with 9); unbounded,
# p = 997 with cap 4 took 31 s and p = 7919 with cap 1 15 s.
MAX_W_SIZE = 1_000_000


def build_w(p: int, cap: int) -> WResolution:
    """Construct the resolution through degree cap, for the w-resolution
    command, and verify every structural claim: d^2 = 0, exactness of
    the augmented complex (which fails at degree 0 for a composite p),
    psi a chain map, psi counital.  p^2 (cap + 1)^2 past MAX_W_SIZE is
    refused (SizeBoundError) before anything is built."""
    size = p * p * (cap + 1) ** 2
    if size > MAX_W_SIZE:
        raise SizeBoundError(
            f"resolution too large: p^2 (cap + 1)^2 = {size} "
            f"(at most {MAX_W_SIZE})")
    W = WResolution(p, cap)
    bad = verify_differential(W.complex)
    if bad:
        raise ValueError("boundary does not square to zero at %d" % bad[0])
    # the augmented complex is exact: H_0 is the augmentation's Z/p and
    # every higher homology below the cap vanishes
    for n in range(cap):
        if homology(W.complex, n).free_rank != (1 if n == 0 else 0):
            raise ValueError("resolution is not exact at degree %d" % n)
    _verify_psi(W)
    return W


def _verify_psi(W: WResolution):
    p = W.p
    for n in range(W.cap + 1):
        # counit on both sides
        left = sum(c for (n1, _), (n2, _), c in W.psi(n) if n1 == 0
                   and n2 == n) % p
        right = sum(c for (n1, _), (n2, _), c in W.psi(n) if n2 == 0
                    and n1 == n) % p
        if left != 1 or right != 1:
            raise ValueError("psi is not counital at degree %d" % n)
        if n == 0:
            continue
        lhs = {}

        def add(key, c):
            lhs[key] = (lhs.get(key, 0) + c) % p

        for (n1, r), (n2, s), c in W.psi(n):
            for j2, c2 in W.boundary_element(n1).items() if n1 else ():
                add(((n1 - 1, (r + j2) % p), (n2, s)), c * c2)
            sgn = (-1) ** n1
            for j2, c2 in W.boundary_element(n2).items() if n2 else ():
                add(((n1, r), (n2 - 1, (s + j2) % p)), sgn * c * c2)
        # psi of alpha^j2 e_{n-1}: the action is diagonal
        for j2, c2 in W.boundary_element(n).items():
            for (n1, r), (n2, s), c3 in W.psi(n - 1):
                add(((n1, (r + j2) % p), (n2, (s + j2) % p)), -c2 * c3)
        if any(v % p for v in lhs.values()):
            raise ValueError("psi is not a chain map at degree %d" % n)


# ---------------------------------------------------------------------------
# equivariant lift into the surjection operad level
# ---------------------------------------------------------------------------

# EquivariantLift.component refuses a component of more words than this,
# before listing any.  It admits degree 25 at p = 3 (8,191 words), 11 at
# p = 5 (7,770) and 7 at p = 7 (2,646).  e_12 at p = 7 has 1,323,652
# words: unbounded, the Cartan request that reads it (smax 2 on the
# circle) took 58 s and 826 MiB on a 2-core container.
MAX_LIFT_WORDS = 10_000


def lift_word_count(p: int, n: int) -> int:
    """len(lift_words(p, n)) without listing the words: the Stirling
    number of the second kind S(floor(n/2) + p - 1, p - 1), by
    inclusion-exclusion."""
    m, k = n // 2 + p - 1, p - 1
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** m
               for i in range(k + 1)) // math.factorial(k)


@functools.cache
def lift_words(r: int, n: int):
    """The words of e_n in the equivariant lift into arity r, each with
    coefficient 1, as a tuple shared by every caller:

    - e_0 is the identity word (1, 2, ..., r); at r = 1 every e_n with
      n > 0 is empty;
    - odd n: (1,) + alpha(w) for w in e_{n-1}, alpha(v) = v mod r + 1;
    - even n > 0: (1,) + alpha^j(w) for j = 1..r-1 and w in e_{n-1},
      then (1,) + (w + 1) for w in e_n of arity r - 1.

    This is the contraction solve of the chain-map equations worked out
    in closed form.  Prepending the letter 1 is a contracting homotopy h
    that kills words starting with 1, as every word here does.  So
    boundary(e_n) = T e_{n-1} (n odd) is solved by h(alpha e_{n-1}).
    For n even, boundary(e_n) = N e_{n-1} is solved by h(N e_{n-1})
    plus a solve of the remainder N e_{n-1} - boundary h(N e_{n-1}).
    The remainder's words start with 1 and never repeat it, so with
    that letter stripped it is solved in arity r - 1, where the solve
    is e_n of arity r - 1; its words come back with the 1 prepended and
    their values shifted up by one.  tests/oracles.py keeps the solve,
    and the tests check the words against it and against the chain-map
    equations."""
    if n == 0:
        return (tuple(range(1, r + 1)),)
    if r == 1:
        return ()
    below = lift_words(r, n - 1)
    words = [(1,) + tuple((v + j - 1) % r + 1 for v in w)
             for j in ((1,) if n % 2 else range(1, r)) for w in below]
    if n % 2 == 0:
        words += [(1,) + tuple(v + 1 for v in w)
                  for w in lift_words(r - 1, n)]
    return tuple(words)


class EquivariantLift:
    """A chain map from W into the arity-p surjection complex,
    equivariant for the cyclic rotation of values: e_n goes to the sum
    of lift_words(p, n), every coefficient 1.  Degree 0 is the identity
    permutation word, matching the augmentations on both sides.  W is
    not built: the lift is a function of p, which must be prime
    (ValueError).

    One bound (SizeBoundError): MAX_LIFT_WORDS, read off lift_word_count
    before any word is listed.  The index needs none: an operation on a
    class of degree q reads index (q - 2s)(p - 1) <= q(p - 1), and only
    when its output degree is a dimension of the space.
    """

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        self.p = p

    def component(self, n):
        """Image of e_n, as a dict word -> coefficient."""
        count = lift_word_count(self.p, n)
        if count > MAX_LIFT_WORDS:
            raise SizeBoundError(
                "lift degree %d has %d words at p = %d (at most %d)"
                % (n, count, self.p, MAX_LIFT_WORDS))
        return dict.fromkeys(lift_words(self.p, n), 1)


def equivariant_lift_j(p: int, cap: int) -> EquivariantLift:
    """The equivariant lift of the resolution generators into the
    arity-p surjection complex (see EquivariantLift), with its words
    listed through degree cap.  Every other degree is listed on first
    use, so cap only moves work up front: 0 lists nothing past degree 0.
    """
    lift = EquivariantLift(p)
    lift.component(cap)
    return lift


# ---------------------------------------------------------------------------
# the operations
# ---------------------------------------------------------------------------

class BigradedClass:
    """A cohomology class carried as an explicit cocycle.

    degree: cochain degree of the representative; weight: the formal
    second grading (pure bookkeeping on the simplicial test-bed).
    """

    def __init__(self, degree, weight, rep):
        self.degree = degree
        self.weight = weight
        self.rep = dict(rep)

    def is_zero(self):
        return not self.rep

    def __repr__(self):
        return "BigradedClass(q=%r, t=%r, %d terms)" % (
            self.degree, self.weight, len(self.rep))


def adem_coefficient(i, j, p):
    """The binomial (i, j) = (i+j)!/(i!j!) mod p, zero for negative
    arguments, reduced from the full binomial; verify_adem checks it
    against its own digit-by-digit Lucas oracle."""
    if i < 0 or j < 0:
        return 0
    return math.comb(i + j, i) % p


# The odd-prime Adem relations for a < p b, as verify_adem states them
# (May, LNM 168; Steenrod-Epstein).  Key (delta, eps): the left side
# beta^eps P^a beta^delta P^b.  Row (dm, dn, inner, outer, sign): the sum
# over i = 0..a+b of sign (-1)^(a+i) adem_coefficient(m, n, p)
# beta^outer P^(a+b-i) beta^inner P^i, at m = a - p i + dm and
# n = (p - 1) b - a + i + dn.  beta beta = 0 drops a sum when eps = 1.
ADEM_TERMS = {
    (0, 0): ((0, -1, 0, 0, 1),),
    (0, 1): ((0, -1, 0, 1, 1),),
    (1, 0): ((0, 0, 0, 1, 1), (-1, 0, 1, 0, -1)),
    (1, 1): ((-1, 0, 1, 1, -1),),
}


def adem_terms(a, b, eps, delta, p):
    """The right side of beta^eps P^a beta^delta P^b, one term per row of
    ADEM_TERMS and i in 0..a+b, as (sign, (m, n), (outer, r), (inner, i))
    with r = a + b - i; terms whose binomial vanishes are kept."""
    return [((-1) ** ((a + i) % 2) * sign,
             (a - p * i + dm, (p - 1) * b - a + i + dn),
             (outer, a + b - i), (inner, i))
            for dm, dn, inner, outer, sign in ADEM_TERMS[delta, eps]
            for i in range(a + b + 1)]


def theta_bar(X: FiniteSimplicialSet, ring: RingSpec,
              lift: EquivariantLift, n: int, x: dict, q: int,
              cells=None) -> dict:
    """Evaluate the lifted generator e_n, a chain of arity-p words, on
    the p-th tensor power of the cochain x of degree q; the lift's word
    bound on n applies (EquivariantLift.component).  cells, when given,
    selects the output simplices evaluated, as in interval_cut_action."""
    return interval_cut_action(X, ring, lift.component(n), lift.p, x, q, cells)


def power_degree(q: int, s: int, p: int, bocksteined=False):
    """(degree, vanishes) for P^s, or beta P^s when bocksteined, on a
    class of degree q: the output degree q + 2s(p-1) (plus one when
    bocksteined), and whether the operation is zero on every class,
    that is s < 0 or a negative generator index (q-2s)(p-1) (one lower
    when bocksteined).  The degree is returned in both cases."""
    idx = (q - 2 * s) * (p - 1) - (1 if bocksteined else 0)
    return p * q - idx, s < 0 or idx < 0


def classical_power(x: BigradedClass, s: int, alg, lift: EquivariantLift,
                    bocksteined=False, cells=None) -> BigradedClass:
    """P^s of a cocycle class, or beta P^s when bocksteined, in the
    classical indexing: the generator e_{(q-2s)(p-1)} (one lower for
    the Bockstein variant) evaluated on the p-th tensor power and scaled
    by power_unit for p > 2, raising degree by 2s(p-1) (plus one when
    bocksteined).  At p = 2 this is Sq^{2s} (Sq^{2s+1} when
    bocksteined), unscaled.

    The class is zero in the degree power_degree gives when that rule
    says the operation vanishes (s < 0, or 2s > q), when x is the zero
    class, and when the output degree is not a dimension of the space;
    none of these reads the lift.  Otherwise the lift's component at
    the index, at most q(p-1), is evaluated.
    cells, when given, selects the output simplices evaluated (see
    theta_bar); the representative is then the operation's value
    restricted to them, which need not be a cocycle."""
    p = lift.p
    q = x.degree
    out_degree, vanishes = power_degree(q, s, p, bocksteined)
    if vanishes or not x.rep or out_degree not in alg.space.dims():
        return BigradedClass(out_degree, None, {})
    # the generator index: p q less the output degree
    rep = theta_bar(alg.space, alg.ring, lift, p * q - out_degree, x.rep,
                    q, cells)
    if p > 2:
        rep = add_scaled({}, power_unit(q, s, p), rep, alg.ring)
    return BigradedClass(out_degree, None, rep)


def power_unit(q: int, s: int, p: int) -> int:
    """The unit u with P^s x = u D_i(x) on a class x of degree q, where
    D_i(x) is e_i evaluated on x^p and i = (q - 2s)(p - 1); with
    m = (p - 1)/2 and q = 2j + epsilon,

        u(q, s) = (-1)^(q + s) (-1)^j (m!)^epsilon  (mod p).

    Three facts about the D_i fix it, and the Bockstein variant
    beta P^s = u D_{i-1} shares it, because the resolution's Bockstein
    sends e_i to e_{i-1} with coefficient +1 (quotient_bockstein):

    1. D_0 is the p-th cup power on the nose: e_0 is the identity word,
       whose only cut is the Alexander-Whitney one, with sign +1.  So
       u(2j, j) = 1.
    2. Cartan: in cohomology, D_{2i}(x cross y) is (-1)^(m q1 q2)
       times sum_k D_{2k}(x) cross D_{2i-2k}(y).  The sign is the
       Koszul sign of shuffling (x (x) y)^p into x^p (x) y^p, pm
       transpositions of a degree-q1 past a degree-q2 factor; the
       terms alpha^r e_odd (x) alpha^t e_odd (r < t) of the coproduct
       of e_{2i} give p(p-1)/2 equal classes, 0 mod p.  For P^s to
       satisfy the plain Cartan formula, u(q1 + q2, s1 + s2) must be
       (-1)^(m q1 q2) u(q1, s1) u(q2, s2), and every such u has the
       form (-1)^(m q(q-1)/2) lambda^q mu^s.
    3. P^0 is the identity: on a degree-one class y,
       D_{p-1}(y) = c y with c = (-1)^m m!, the value of the lift's
       degree p-1 component on the circle's 1-simplex.  So lambda = 1/c.

    Fact 1 gives mu = (-1)^m lambda^(-2) = (-1)^m (m!)^2, which is -1
    by Wilson's theorem ((m!)^2 = (-1)^(m+1) mod p).  Hence
    u = (-1)^s (-1)^(m q(q-1)/2) (-1)^(m q) (m!)^(-q), and with
    (m!)^(-2) = (-1)^(m+1) this is the closed form above: May's
    (-1)^s nu(q) (LNM 168, section 2) times (-1)^q, the sign by which
    the value c of fact 3 differs from May's 1/m!.  No index needs a
    case of its own.
    """
    m = (p - 1) // 2
    j, eps = divmod(q, 2)
    unit = math.factorial(m) if eps else 1
    return (-1) ** ((q + s + j) % 2) * unit % p


def power_op(x: BigradedClass, s: int, alg, lift: EquivariantLift,
             bocksteined=False, cells=None) -> BigradedClass:
    """P^{q-s} of a class x of degree q (beta P^{q-s} when
    bocksteined), indexed by its weight s: classical_power at q - s,
    which raises the weight by s(p - 1).  The generator index is
    (2s - q)(p - 1), so s runs from ceil(q/2), the top power, to q,
    the identity."""
    out = classical_power(x, x.degree - s, alg, lift, bocksteined, cells)
    if x.weight is not None:
        out.weight = x.weight + s * (lift.p - 1)
    return out


def steenrod_square(x: BigradedClass, i: int, alg,
                    lift: EquivariantLift) -> BigradedClass:
    """Sq^i at p = 2: the generator e_{q-i} evaluated on x tensor x,
    raising degree by i; classical_power at i // 2, bocksteined when i
    is odd."""
    if lift.p != 2:
        raise ValueError("Steenrod squares live at p = 2")
    return classical_power(x, i // 2, alg, lift, bocksteined=i % 2 == 1)


def cup_i_oracle(X: FiniteSimplicialSet, ring: RingSpec, i: int,
                 x: dict, q: int) -> dict:
    """x cup_i x, bypassing the resolution and the lift: the chain
    {(1, 2, 1, ...): 1} of degree i, written out by hand, through
    interval_cut_action.  At p = 2 the lift's recursion gives component
    i as that word, so a comparison with steenrod_square checks the
    recursion against the hand-written word, not the value of Sq^i."""
    if i < 0:
        return {}
    word = tuple((1, 2)[j % 2] for j in range(i + 2))
    return interval_cut_action(X, ring, {word: 1}, 2, x, q)


# ---------------------------------------------------------------------------
# cross products and class comparison on product spaces
# ---------------------------------------------------------------------------

class CochainSystem:
    """The minimal bundle power operations need: a space and its ring of
    coefficients.

    The operations (power_op, classical_power, steenrod_square) read
    only `space` and `ring`.  The normalized cochain complex, which the
    verifiers read to find homology classes, is built on the first
    access to `complex`, and its cohomology in degree n on the first
    call to homology_space(n); a system that only carries operations,
    like the product space in verify_cartan, builds neither."""

    def __init__(self, X: FiniteSimplicialSet, ring: RingSpec):
        self.space = X
        self.ring = ring
        self._homology = {}

    @functools.cached_property
    def complex(self) -> ChainComplex:
        return cochains(self.space, self.ring)

    def homology_space(self, n: int) -> HomologySpace:
        """H^n of the cochain complex, built once per degree."""
        if n not in self._homology:
            self._homology[n] = HomologySpace(self.complex, n)
        return self._homology[n]


def cochain_cross(X: FiniteSimplicialSet, Y: FiniteSimplicialSet,
                  ring: RingSpec, x: dict, q: int, y: dict, qq: int,
                  product: FiniteSimplicialSet) -> dict:
    """The cochain cross product on the product space X x Y: evaluate x
    on the front q-face of the first factor and y on the back face of
    the second (the dual of the Alexander-Whitney map).  Each factor's
    face is taken once per component simplex, not once per cell."""
    n = q + qq
    out = {}
    if q < 0 or qq < 0 or not x or not y or n not in product.dims():
        return out

    def value(S, cochain, sx, vertices):
        face = S.vertex_face(sx, vertices)
        if face.is_degenerate:
            return ring.zero()
        return cochain.get(face.base, ring.zero())

    cells = product.simplices(n)
    front = {a: value(X, x, a, range(q + 1)) for a in {a for a, _ in cells}}
    back = {b: value(Y, y, b, range(q, n + 1)) for b in {b for _, b in cells}}
    for (a, b) in cells:
        c = ring.mul(front[a], back[b])
        if not ring.is_zero(c):
            out[(a, b)] = c
    return out


class ProductClassifier:
    """Canonical coordinates for cohomology classes of a product space
    X x Y over a field.

    The product cycles are the shuffle images of a (x) b, for a and b
    running over cycle representatives of bases of H_i(X) and H_j(Y).
    Over a field they form a basis of the product's homology, so
    pairing a cocycle against them separates classes.  The coordinates
    of degree n are ordered by i ascending (j = n - i), then by the
    basis class of H_i(X), then by that of H_j(Y); the cycles of one
    degree pair (i, j) make one block.

    coordinates(z, n) reads a pairing table built once per degree, on
    first use, and stored by cell: the number of product cycles, and
    for each product simplex the (cycle, coefficient) entries of the
    shuffle images that name it, with zero entries dropped.  A pairing
    walks z's entries: one lookup each, and one multiply-add per cycle
    the cell carries.  The simplices the table names are its support;
    entries of z off the support are skipped.

    cross_coordinates(terms, n) reads a sum of cross products off the
    factors' own pairings (Kuenneth), with no product cochain built.
    """

    def __init__(self, X, Y, ring):
        self.X = X
        self.Y = Y
        self.ring = ring

        def cycles(S):
            C = chains(S, ring)
            return {n: _cycle_basis(HomologySpace(C, n)) for n in S.dims()}

        self._xcycles = cycles(X)
        self._ycycles = self._xcycles if Y is X else cycles(Y)
        self._tables = {}

    def coordinates(self, z: dict, n: int):
        """Pair the degree-n cocycle z against every product cycle."""
        nrows, columns = self._table(n)
        vals = [0] * nrows
        for lab, v in z.items():
            for row, c in columns.get(lab, ()):
                vals[row] += c * v
        return tuple(map(self.ring.normalize, vals))

    def cross_coordinates(self, terms, n: int):
        """The coordinates of sum sign * (a cross b) over the terms
        (a, deg a, b, deg b, sign) with deg a + deg b = n: cocycles a on
        X and b on Y, crossed as cochain_cross does.

        By Eilenberg-Zilber (AW o EZ = id on normalized chains),
        <a cross b, EZ(alpha (x) beta)> = <a, alpha> <b, beta> when
        deg alpha = deg a, and 0 in every other block.  No Koszul sign
        enters: cochain_cross carries none, and the only shuffle whose
        front and back faces are nondegenerate is the identity, of sign
        +1.  A term with a factor outside its space's degrees is zero."""
        blocks, total = {}, 0
        for i in sorted(self._xcycles):
            if n - i in self._ycycles:
                blocks[i] = total
                total += len(self._xcycles[i]) * len(self._ycycles[n - i])
        vals = [0] * total
        for a, qa, b, qb, sign in terms:
            if qa not in blocks:
                continue
            k = blocks[qa]
            pb = [_pair(b, beta) for beta in self._ycycles[qb]]
            for alpha in self._xcycles[qa]:
                u = sign * _pair(a, alpha)
                for v in pb:
                    vals[k] += u * v
                    k += 1
        return tuple(map(self.ring.normalize, vals))

    def support(self, n):
        """The degree-n product simplices the pairing table reads, in
        order of first appearance."""
        return self._table(n)[1].keys()

    def _table(self, n):
        """(number of product cycles, cell -> [(cycle, coefficient)]) in
        degree n, built on first use."""
        table = self._tables.get(n)
        if table is None:
            table = self._tables[n] = self._pairing_table(n)
        return table

    def _pairing_table(self, n):
        # The shuffle image of a (x) b puts ca cb sign(A, B) on the cell
        # (s_B xa, s_A yb) for each (i, j)-shuffle (A, B).  Distinct
        # (xa, yb, shuffle) give distinct cells, so no two entries of an
        # image merge, and each cell's degeneracies are taken once per
        # block.
        ring = self.ring
        columns = {}
        row = 0
        for i in sorted(self._xcycles):
            j = n - i
            if j not in self._ycycles:
                continue
            shuffles = _shuffles(i, j)
            xs, ys = self._xcycles[i], self._ycycles[j]
            fronts = {xa: [Simplex(word_b, xa, i) for word_b, _, _ in shuffles]
                      for a in xs for xa in a}
            backs = {yb: [Simplex(word_a, yb, j) for _, word_a, _ in shuffles]
                     for b in ys for yb in b}
            signs = [sign for _, _, sign in shuffles]
            for a in xs:
                for b in ys:
                    for xa, ca in a.items():
                        for yb, cb in b.items():
                            plus = ring.normalize(ca * cb)
                            if ring.is_zero(plus):
                                continue
                            minus = ring.normalize(-ca * cb)
                            for sx, sy, sign in zip(fronts[xa], backs[yb],
                                                    signs):
                                columns.setdefault((sx, sy), []).append(
                                    (row, plus if sign > 0 else minus))
                    row += 1
        return row, columns


def _pair(cochain: dict, cycle: dict):
    """<cochain, cycle>, unreduced."""
    return sum(c * cochain.get(lab, 0) for lab, c in cycle.items())


def _cycle_basis(h: HomologySpace):
    """One cycle representative per basis class, in basis order."""
    return [h.representative([int(k == idx) for k in range(h.rank)])
            for idx in range(h.rank)]


def _shuffles(i, j):
    """(i, j)-shuffles as (degeneracy word of the first factor,
    degeneracy word of the second factor, sign +-1)."""
    n = i + j
    terms = []
    for A in itertools.combinations(range(n), i):
        B = tuple(t for t in range(n) if t not in A)
        terms.append((word_for_positions(B), word_for_positions(A),
                      koszul_sign(A + B)))
    return terms


# ---------------------------------------------------------------------------
# relation verifiers
# ---------------------------------------------------------------------------

# verify_cartan refuses a sweep of more relations than this.  It checks
# every pair of classes, p^rank of them per degree, and a relation's cost
# grows with p and with the product space: on a 2-core container with
# Python 3.11 (best of three in one process, four runs), 1,350 relations
# on the torus at p = 3 take 0.4-0.75 s and on the BZ/5 3-skeleton at
# p = 5 0.12-0.2 s, while 3,600 on the torus at p = 5 (smax 1, degree
# cap 1) take 0.3-0.6 s and 5,400 (smax 2) 3.7-6 s.  A sweep under this
# bound can still read a lift component past MAX_LIFT_WORDS (smax 2 on
# the circle at p = 7, 1,176 relations, reads e_12); the lift refuses it.
MAX_CARTAN_CHECKS = 2_000


def verify_cartan(alg, degree_cap: int, p: int, smax: int = 2,
                  with_bockstein: bool = True, lift_cap: int = None) -> dict:
    """Check P^s(x cross y) = sum_{i+j=s} P^i(x) cross P^j(y) for all
    class pairs of degrees within the cap on the square of the algebra's
    space.  Returns a sorted report.

    with_bockstein also checks the Bockstein variant

        beta P^s(x cross y) = sum_{i+j=s} beta P^i(x) cross P^j(y)
                              + (-1)^{deg P^i(x)} P^i(x) cross beta P^j(y),

    the sign being the Koszul sign beta picks up as a degree-one
    derivation passing P^i(x).

    Both sides are compared by their coordinates against the
    ProductClassifier's product cycles.  The left side is a cochain on
    X x X, paired through the classifier's table; since that table
    reads only its support, the left side is evaluated on the support
    cells alone.  Each left side is decided by its degree first
    (power_degree, the test classical_power makes): one that vanishes
    or leaves the product's skeleton is the empty cochain of its
    degree.  The cross product x cross y is built once per pair, for
    the first side that is evaluated, and then on every cell of its
    degree, since the cuts of a support cell read it on faces outside
    the support.  The right side is never built on X x X: each
    term P^i(x) cross P^j(y) is read by Kuenneth from the pairings of
    its factors on X (ProductClassifier.cross_coordinates).

    The sweep reads the lift, a function of p alone, at whatever index
    it asks for.  lift_cap only lists its words through that index
    before the sweep starts; the report is the same with or without it.
    It stays because callers that time the sweep apart from the lift
    pass it.

    p must be an odd prime (ValueError; the lift refuses a composite
    p): the operations are indexed by the odd-prime rule (2s - q)(p - 1),
    which does not give the Steenrod squares at p = 2.  A sweep of more
    than MAX_CARTAN_CHECKS relations is refused (SizeBoundError) before
    anything is built."""
    if p == 2:
        raise ValueError("verify_cartan needs an odd prime p, got 2")
    X = alg.space
    ring = alg.ring
    degrees = [n for n in X.dims() if n <= degree_cap]
    classes = sum(ring.modulus ** alg.homology_space(q).rank
                  for q in degrees)
    relations = classes ** 2 * (smax + 1) * (2 if with_bockstein else 1)
    if relations > MAX_CARTAN_CHECKS:
        raise SizeBoundError(
            f"Cartan check too large: {relations} relations over "
            f"{classes} classes (at most {MAX_CARTAN_CHECKS})")
    lift = equivariant_lift_j(p, cap=lift_cap or 0)
    P = product_space(X, X)
    palg = CochainSystem(P, ring)
    classifier = ProductClassifier(X, X, ring)
    failures = []
    checked = 0
    ops = {}

    def op(q, coords, rep, s, bock=False):
        # the factor operations repeat across pairs; compute each once
        key = (q, coords, s, bock)
        if key not in ops:
            ops[key] = power_op(BigradedClass(q, 0, rep), s, alg, lift,
                                bocksteined=bock)
        return ops[key]

    pdims = P.dims()
    for q1 in degrees:
        for q2 in degrees:
            q = q1 + q2
            for xc, xrep in alg.homology_space(q1).all_classes():
                for yc, yrep in alg.homology_space(q2).all_classes():
                    x = (q1, xc, xrep)
                    y = (q2, yc, yrep)
                    z = None    # x cross y, built for the first side read
                    for s in range(smax + 1):
                        for bock in ((False, True) if with_bockstein
                                     else (False,)):
                            checked += 1
                            n_out, vanishes = power_degree(q, q - s, p, bock)
                            if vanishes or n_out not in pdims:
                                lhs = {}
                            else:
                                if z is None:
                                    z = BigradedClass(q, 0, cochain_cross(
                                        X, X, ring, xrep, q1, yrep, q2, P))
                                lhs = power_op(z, s, palg, lift,
                                               bocksteined=bock,
                                               cells=classifier.support).rep
                            terms = []
                            for i in range(s + 1):
                                j = s - i
                                if not bock:
                                    terms.append((op(*x, i), op(*y, j), 1))
                                else:
                                    a2 = op(*x, i)
                                    terms.append((op(*x, i, True),
                                                  op(*y, j), 1))
                                    terms.append((a2, op(*y, j, True),
                                                  (-1) ** (a2.degree % 2)))
                            lc = classifier.coordinates(lhs, n_out)
                            rc = classifier.cross_coordinates(
                                [(a.rep, a.degree, b.rep, b.degree, sign)
                                 for a, b, sign in terms], n_out)
                            if lc != rc:
                                failures.append({
                                    "check": "cartan" if not bock
                                    else "cartan-bockstein",
                                    "witness": (q1, q2, s, bock, xc, yc)})
    failures.sort(key=repr)
    return {"passed": not failures, "checked": checked,
            "failures": failures}


def adem_side(op, x: BigradedClass, inner, outer, p: int, dims):
    """beta^eps P^r beta^delta P^i x for inner = (delta, i) and
    outer = (eps, r), where op(cls, s, bock) is classical_power.  Both
    degrees are decided first (power_degree): when either operation
    vanishes, or either degree is not in dims (the space's dimensions),
    the side is the empty cochain of the outer degree and op is never
    called, so the lift is not read."""
    (delta, i), (eps, r) = inner, outer
    middle, inner_vanishes = power_degree(x.degree, i, p, delta)
    degree, outer_vanishes = power_degree(middle, r, p, eps)
    if (inner_vanishes or outer_vanishes or middle not in dims
            or degree not in dims):
        return BigradedClass(degree, None, {})
    return op(op(x, i, delta), r, eps)


def verify_adem(alg, p: int, pair_bound: int, degree_cap: int) -> dict:
    """Check the Adem relations on every class of degree <= degree_cap,
    for all pairs a < p b with a + b <= pair_bound and inner and outer
    Bocksteins delta, eps in {0, 1}:

        P^a P^b = sum_i (-1)^(a+i) C((p-1)(b-i) - 1, a - p i) P^(a+b-i) P^i,

        P^a beta P^b
            = sum_i (-1)^(a+i) C((p-1)(b-i), a - p i) beta P^(a+b-i) P^i
            - sum_i (-1)^(a+i) C((p-1)(b-i) - 1, a - p i - 1)
                                                  P^(a+b-i) beta P^i,

    where C(n, k) is n choose k, and beta of both sides (eps = 1).
    The right sides are read from ADEM_TERMS through adem_terms, and
    each binomial is checked once per sweep against a digit-by-digit
    Lucas oracle ("adem-coefficient").  Every side is evaluated by
    adem_side, which decides it by its degrees first, so a side that
    vanishes or leaves the skeleton runs no operation.  A relation whose
    lhs - rhs is the empty cochain is zero and reads no class; otherwise
    it fails ("adem" for delta = 0, "adem-bockstein" for delta = 1) when
    the class of lhs - rhs is not zero.  A right-side term whose degree
    differs from the left side's is reported ("adem-degree") and left
    out.  The lift, a function of p alone, is read at every index a side
    that does not vanish asks for.

    p must be an odd prime (ValueError; the lift refuses a composite
    p): the relations are the odd-prime ones, and at p = 2
    they are not the Adem relations of the squares (at a = b = 1 they
    read Sq^2 Sq^2 = 0, where Sq^2 Sq^2 = Sq^3 Sq^1 holds)."""
    if p == 2:
        raise ValueError("verify_adem needs an odd prime p, got 2")
    X = alg.space
    ring = alg.ring
    dims = X.dims()
    lift = equivariant_lift_j(p, cap=0)
    failures = []
    checked = 0

    cache = {}

    def op(cls, s, bock):
        key = (cls.degree, frozenset(cls.rep.items()), s, bock)
        if key not in cache:
            cache[key] = classical_power(cls, s, alg, lift,
                                         bocksteined=bock)
        return cache[key]

    # independent binomial oracle: Lucas' theorem digit by digit
    def lucas(i, j):
        if i < 0 or j < 0:
            return 0
        n, k, out = i + j, i, 1
        while n or k:
            nd, kd = n % p, k % p
            if kd > nd:
                return 0
            out = out * math.comb(nd, kd) % p
            n //= p
            k //= p
        return out

    # the relations, each right side as its nonzero terms (c, outer,
    # inner); a binomial shared by several relations is checked once
    pairs = [(a, b) for b in range(1, pair_bound)
             for a in range(1, pair_bound - b + 1) if a < p * b]
    relations = []
    seen = set()
    for (a, b), eps, delta in itertools.product(pairs, (0, 1), (0, 1)):
        terms = []
        for sign, (m, n), outer, inner in adem_terms(a, b, eps, delta, p):
            got = adem_coefficient(m, n, p) % p
            if (m, n) not in seen:
                seen.add((m, n))
                if got != lucas(m, n):
                    failures.append({"check": "adem-coefficient",
                                     "witness": (m, n, got, lucas(m, n))})
            if got:
                terms.append((sign * got, outer, inner))
        relations.append((a, b, eps, delta, terms))
    for q in [n for n in dims if n <= degree_cap]:
        for xc, xrep in alg.homology_space(q).all_classes():
            x = BigradedClass(q, 0, xrep)
            for a, b, eps, delta, terms in relations:
                checked += 1
                lhs = adem_side(op, x, (delta, b), (eps, a), p, dims)
                diff = dict(lhs.rep)
                for c, outer, inner in terms:
                    term = adem_side(op, x, inner, outer, p, dims)
                    if term.degree != lhs.degree and term.rep:
                        failures.append({
                            "check": "adem-degree",
                            "witness": (q, a, b, eps, delta, inner[1])})
                        continue
                    add_scaled(diff, -c, term.rep, ring)
                if not diff:
                    continue    # the zero cochain: no class to read
                coords = alg.homology_space(lhs.degree).class_vector(diff)
                if coords is None or any(coords):
                    failures.append({
                        "check": ("adem", "adem-bockstein")[delta],
                        "witness": (q, a, b, eps, xc)})
    failures.sort(key=repr)
    return {"passed": not failures, "checked": checked,
            "failures": failures}
