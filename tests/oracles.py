"""Oracles for the operad and power-operation tests: the interval cuts
listed by filtering every product of per-value compositions; the
interval-cut action of one word on k cochains of independent degrees,
against which the chain kernel is checked on k copies of one cochain;
the exhaustive check that the cochains are an algebra over the surjection
operad; the cochain Bockstein, computed by lifting to Z/p^2 rather
than through the resolution; the equivariant lift solved degree by
degree by the contracting homotopy, optionally perturbed by a seeded
boundary, and the chain-map equation it is checked by, against which
the lift's closed-form words are checked; the vanishing-pattern
property of the lifted generators; the coordinates of a sum of cross
products built as a cochain on the product space, against which the
Kuenneth reading is checked; the eager composite of two power
operations, against which the Adem sides decided by degree are checked;
the left sides of the Cartan relations with x cross y built for every
side, against which the sides decided by degree are checked; and the
power operations on the rings H*((BZ/p)^n; F_p), on which the Adem
relations are checked term by term, and the squares on H*(BZ/2; F_2)."""
import functools
import itertools
import math
import random

import chainops.operads as operads
from chainops.freemod import add_scaled
from chainops.operads import (Operad, _bases, _basis_with_degrees,
                              _block_sign, _composable, _d_of_basis,
                              _nontrivial_permutations, occurrence_counts,
                              rename_values, surjection_boundary,
                              word_count)
from chainops.powerops import (BigradedClass, CochainSystem,
                               ProductClassifier, classical_power,
                               cochain_cross, equivariant_lift_j, power_op,
                               theta_bar)
from chainops.rings import ZZ, SizeBoundError, Zmod
from chainops.simplicial import FiniteSimplicialSet, cochains, product_space


def _compositions(total, parts):
    """The ordered ways of writing total as parts non-negative terms."""
    if parts == 0:
        yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def filtered_cut_table(u, k, degrees):
    """The (vertex_sets, lens, tpts) cuts of operads._cut_table, listed
    the other way: every product of the compositions of each value's
    length budget over its occurrences, then the cuts in which a value's
    vertex list repeats a vertex dropped."""
    occ = occurrence_counts(u)
    poss = {}
    for i, v in enumerate(u):
        poss.setdefault(v, []).append(i)
    per_value = []
    for s in range(1, k + 1):
        free = degrees[s - 1] - occ[s] + 1
        if free < 0:
            return []
        per_value.append(list(_compositions(free, occ[s])))
    cuts = []
    for combo in itertools.product(*per_value):
        lens = [0] * len(u)
        used = {s: 0 for s in range(1, k + 1)}
        for i, v in enumerate(u):
            t = used[v] = used[v] + 1
            lens[i] = combo[v - 1][t - 1]
        tpts = [0]
        for length in lens:
            tpts.append(tpts[-1] + length)
        vertex_sets = []
        for s in range(1, k + 1):
            verts = []
            for i in poss[s]:
                verts.extend(range(tpts[i], tpts[i + 1] + 1))
            if any(verts[j] == verts[j + 1]
                   for j in range(len(verts) - 1)):
                break
            vertex_sets.append(tuple(verts))
        else:
            cuts.append((tuple(vertex_sets), tuple(lens), tuple(tpts)))
    return cuts


# the cuts of one word for given degrees hold no signs, so one memo for
# the tests serves every call, under a patched sign rule too
_word_cuts = functools.cache(operads._cut_table)


def k_input_action(X: FiniteSimplicialSet, ring, u, k, xs, cells=None):
    """theta(u; x_1..x_k) on normalized cochains of X, for one word u
    and k cochains of independent degrees.

    xs: list of (cochain, degree) pairs.  A surjection of degree d
    lowers the total degree by d: the result is the cochain whose value
    on an n-simplex is the signed sum over all ways of cutting 0..n into
    k+d intervals, assigned to the values of u in order, of the product
    of the x_s evaluated on the concatenations of their intervals.  The
    cuts are those of operads._cut_table; each call signs a cut through
    operads._cut_sign when the cut first contributes, and reduces each
    output cell's sum into the ring once.  cells selects the output
    simplices, as in operads.interval_cut_action.
    """
    ns = tuple(deg for _, deg in xs)
    n = sum(ns) - (len(u) - k)
    if n < 0 or n not in X.dims():
        return {}
    cuts = _word_cuts(u, k, ns)
    if not cuts:
        return {}
    entries = [entry for entry, _ in xs]
    signs = [None] * len(cuts)      # filled as the cuts contribute
    vertex_face = X.vertex_face
    out = {}
    for sigma in X.simplices(n) if cells is None else cells(n):
        sx = X.nondegenerate(sigma)
        total = 0
        for j, (vertex_sets, lens, tpts) in enumerate(cuts):
            term = 1
            for entry, verts in zip(entries, vertex_sets):
                face = vertex_face(sx, verts)
                c = 0 if face.word else entry.get(face.base, 0)
                if not c:
                    break
                term *= c
            else:
                sign = signs[j]
                if sign is None:
                    sign = signs[j] = operads._cut_sign(u, lens, tpts)
                total += sign * term
        total = ring.normalize(total)
        if total:
            out[sigma] = total
    return out


def cup(X, ring, a, qa, b, qb):
    """a cup b: the arity-2 degree-0 word acting by interval cuts."""
    return k_input_action(X, ring, (1, 2), 2, [(a, qa), (b, qb)])


def check_algebra_axioms(O: Operad, X: FiniteSimplicialSet, arity_cap: int,
                         degree_cap: int) -> dict:
    """Exhaustive checks, on basis elements within the caps, of the
    diagrams that make the normalized cochains of X an algebra over the
    surjection operad O through k_input_action (theta).

    Covers: theta commuting with the differentials, the unit acting as
    the identity, compatibility of theta with the operad composition,
    and the commutativity diagram (the symmetric action on the operad
    side absorbs permutations of the arguments up to Koszul signs).
    The arity-2 degree-0 word acts as the cup product and the degree-i
    words as the cup-i products.
    """
    ring = O.ring
    C = cochains(X, ring)
    failures = []
    checked = 0
    adeg = _basis_with_degrees(C, degree_cap)

    def theta(u, k, xs):
        return k_input_action(X, ring, u, k,
                              [({lab: 1}, n) for lab, n in xs])

    for k, ops in _bases(O, arity_cap, degree_cap).items():
        for u, du in ops:
            for xs in itertools.product(adeg, repeat=k):
                ns = [n for _, n in xs]
                if sum(ns) > degree_cap:
                    continue
                checked += 1
                # differential compatibility
                n_out = sum(ns) - du
                lhs = {}
                for lab, c in theta(u, k, xs).items():
                    add_scaled(lhs, c, _d_of_basis(C, lab, n_out), ring)
                rhs = {}
                for u2, c in _d_of_basis(O.level(k), u, du).items():
                    add_scaled(rhs, c, theta(u2, k, xs), ring)
                sgn = (-1) ** du
                for s in range(k):
                    for lab2, c in _d_of_basis(C, xs[s][0], ns[s]).items():
                        xs2 = list(xs)
                        xs2[s] = (lab2, ns[s] + 1)
                        add_scaled(rhs, sgn * c, theta(u, k, xs2), ring)
                    sgn *= (-1) ** ns[s]
                if lhs != rhs:
                    failures.append({"check": "action-chain-map",
                                     "witness": (k, u, tuple(xs))})
                # commutativity diagram
                for perm in _nontrivial_permutations(k):
                    acted = {}
                    for u2, c in O.act(k, perm, u).items():
                        add_scaled(acted, c, theta(u2, k, xs), ring)
                    xs_in = [xs[perm[s] - 1] for s in range(k)]
                    # read through the module, so that a patched rule
                    # reaches this sign as it reaches the action's
                    sgn = operads.koszul_sign(perm,
                                              [ns[s - 1] for s in perm])
                    direct = add_scaled({}, sgn, theta(u, k, xs_in), ring)
                    if acted != direct:
                        failures.append({"check": "commutativity",
                                         "witness": (k, u, tuple(xs),
                                                     perm)})

    # unit diagram
    for (lab, n) in adeg:
        checked += 1
        if theta(O.unit, 1, [(lab, n)]) != {lab: ring.one()}:
            failures.append({"check": "unit-action", "witness": (lab, n)})

    # composition compatibility
    for k, u, du, js, vs, dvs in _composable(O, arity_cap, degree_cap):
        prefix = [0]
        for x in js:
            prefix.append(prefix[-1] + x)
        for xs in itertools.product(adeg, repeat=sum(js)):
            ns = [n for _, n in xs]
            if du + sum(dvs) + sum(ns) > degree_cap:
                continue
            checked += 1
            lhs = {}
            for w, c in O.compose_basis(u, k, vs, js).items():
                add_scaled(lhs, c, theta(w, sum(js), xs), ring)
            inner = []
            for s in range(k):
                block = xs[prefix[s]:prefix[s + 1]]
                val = theta(vs[s], js[s], block)
                m = sum(n for _, n in block) - dvs[s]
                inner.append((val, m))
            rhs = add_scaled({}, _block_sign(js, dvs, tuple(ns)),
                             k_input_action(X, ring, u, k, inner), ring)
            if lhs != rhs:
                failures.append({"check": "composition-compatibility",
                                 "witness": (k, u, vs, tuple(xs))})
    failures.sort(key=repr)
    return {"passed": not failures, "checked": checked,
            "failures": failures}


def bockstein(x, X, p):
    """The Z/p -> Z/p^2 -> Z/p connecting operation on cochains: lift
    the representative, apply the coboundary, divide by p."""
    big = Zmod(p * p)
    ring = Zmod(p)
    C2 = cochains(X, big)
    lifted = {lab: int(c) % (p * p) for lab, c in x.rep.items()}
    q = x.degree
    d = C2.differentials.get(q)
    out = {}
    if d is not None:
        img = d.apply(lifted)
        for lab, c in img.items():
            c = int(c) % (p * p)
            if c % p:
                raise ValueError("representative is not a mod-p cocycle")
            v = (c // p) % p
            if v:
                out[lab] = ring.normalize(v)
    return BigradedClass(q + 1, x.weight, out)


def word_boundary(vector, k, ring=ZZ):
    """The boundary of a chain of arity-k surjection words."""
    out = {}
    for w, c in vector.items():
        add_scaled(out, c, surjection_boundary(w, k), ring)
    return out


def group_image(chain, p, element):
    """(sum_j c_j alpha^j) applied to a chain of arity-p words over Z/p,
    for element the dict j -> c_j, alpha renaming each value v to
    v mod p + 1."""
    out = {}
    for j, c in element.items():
        perm = tuple((v - 1 + j) % p + 1 for v in range(1, p + 1))
        add_scaled(out, c, {rename_values(w, perm): co
                            for w, co in chain.items()}, Zmod(p))
    return out


def chain_map_defect(W, n, chain, below):
    """boundary(chain) less b_n below, mod p, where below is the image of
    e_{n-1} and b_n = T (n odd) or N (n even) is W.boundary_element(n):
    empty exactly when chain is an image of e_n that satisfies the
    chain-map equation."""
    ring = Zmod(W.p)
    return add_scaled(word_boundary(chain, W.p, ring), -1,
                      group_image(below, W.p, W.boundary_element(n)), ring)


def _contraction_solve(c, k, ring):
    """A word combination x with boundary(x) = c, for c a boundary in
    the arity-k surjection complex over the given ring.

    Prepending the value 1 is a contracting homotopy onto the span of
    words that start with 1 and never repeat it; stripping that leading
    letter lands in the arity-(k-1) complex, where we recurse.
    """
    x = {}
    if not c:
        return x
    hx = {}
    for w, co in c.items():
        if w[0] != 1:
            hx[(1,) + w] = co
    rem = add_scaled({w: co for w, co in c.items() if not ring.is_zero(co)},
                     -1, word_boundary(hx, k, ring), ring)
    x.update(hx)
    if rem:
        if any(w[0] != 1 or 1 in w[1:] for w in rem) or k < 2:
            raise ValueError("input is not a boundary")
        inner = {tuple(v - 1 for v in w[1:]): co for w, co in rem.items()}
        for w, co in _contraction_solve(inner, k - 1, ring).items():
            uw = (1,) + tuple(v + 1 for v in w)
            x[uw] = co
    return {w: co for w, co in x.items() if not ring.is_zero(co)}


class SolvedLift:
    """The reference lift: a chain map from W into the arity-p surjection
    complex, equivariant for the cyclic rotation of values, solved degree
    by degree, with the lift's p and component(n) interface.

    component(n) builds every missing degree up to n in increasing
    order.  Each new degree solves the chain-map equation with the
    contracting homotopy, adds the seeded perturbation (drawn from an
    rng kept on the lift) and checks the equation.  Because degrees are
    always built in order from one rng, a lift grown to n equals one
    prebuilt to n, seeded or not.  Unseeded, it is the lift that
    powerops.lift_words lists; seeded, an independent but equally valid
    lift, whose coefficients are not all 1.  Growing past W.cap raises
    SizeBoundError.
    """

    def __init__(self, W, seed=None):
        self.W = W
        self.p = W.p
        self.ring = Zmod(W.p)
        self._rng = random.Random(seed) if seed is not None else None
        self.components = {0: {tuple(range(1, W.p + 1)): self.ring.one()}}

    @property
    def cap(self):
        """The highest degree built so far."""
        return max(self.components)

    def component(self, n):
        """Image of e_n, growing the lift up to degree n if needed."""
        while self.cap < n:
            self._grow()
        return self.components[n]

    def _grow(self):
        W, p, ring, rng = self.W, self.p, self.ring, self._rng
        n = self.cap + 1
        if n > W.cap:
            raise SizeBoundError(
                "lift degree %d is past the resolution cap %d" % (n, W.cap))
        below = self.components[n - 1]
        x = _contraction_solve(group_image(below, p, W.boundary_element(n)),
                               p, ring)
        if rng is not None:
            # perturb by the boundary of a sparse random chain one
            # degree up: the lift equations are preserved exactly.  Its
            # three words are drawn uniformly, as letter sequences with
            # no adjacent repeat kept when they are surjective.
            pert = {}
            while len(pert) < min(3, word_count(p, n + 1)):
                u = [rng.randrange(1, p + 1)]
                while len(u) < p + n + 1:
                    v = rng.randrange(1, p)
                    u.append(v if v < u[-1] else v + 1)
                if len(set(u)) == p and tuple(u) not in pert:
                    pert[tuple(u)] = rng.randrange(p)
            add_scaled(x, 1, word_boundary(pert, p), ring)
        if chain_map_defect(W, n, x, below):
            raise ValueError(
                "lift failed at degree %d: the level is not acyclic "
                "within the cap" % n)
        self.components[n] = x


def solved_lift(W, cap, seed=None):
    """A SolvedLift prebuilt through degree cap; a seed perturbs every
    positive degree by a boundary."""
    lift = SolvedLift(W, seed)
    lift.component(cap)
    return lift


def verify_vanishing_pattern(alg, lift, degree_cap, index_cap):
    """theta-bar(e_n (x) x^p) can only be a nonzero class when n sits
    in the residue classes 0, -1 (q even) or p-1, p-2 (q odd) modulo
    2(p - 1)."""
    X = alg.space
    ring = alg.ring
    p = lift.p
    period = 2 * (p - 1)
    failures = []
    checked = 0
    for q in [n for n in X.dims() if n <= degree_cap]:
        for _, xrep in alg.homology_space(q).all_classes():
            if not xrep:
                continue
            for n in range(index_cap + 1):
                out_deg = p * q - n
                if out_deg < 0 or out_deg not in X.dims():
                    continue
                checked += 1
                z = theta_bar(X, ring, lift, n, xrep, q)
                coords = alg.homology_space(out_deg).class_vector(z)
                if coords is None:
                    failures.append({"check": "vanishing-cocycle",
                                     "witness": (q, n)})
                    continue
                if any(not ring.is_zero(ring.normalize(c))
                       for c in coords):
                    if q % 2 == 0:
                        ok = n % period in (0, period - 1)
                    else:
                        ok = n % period in ((p - 1) % period,
                                            (p - 2) % period)
                    if not ok:
                        failures.append({"check": "vanishing-pattern",
                                         "witness": (q, n, coords)})
    failures.sort(key=repr)
    return {"passed": not failures, "checked": checked,
            "failures": failures}


def eager_adem_side(x, inner, outer, alg, lift):
    """beta^eps P^r beta^delta P^i x for inner = (delta, i) and
    outer = (eps, r), both operations run in turn: the inner one is
    evaluated in full even where the outer one then vanishes or leaves
    the skeleton."""
    (delta, i), (eps, r) = inner, outer
    return classical_power(classical_power(x, i, alg, lift, delta), r, alg,
                           lift, eps)


def eager_cartan_sides(alg, degree_cap, p, smax):
    """The left sides of the Cartan relations verify_cartan compares, as
    (cochain, degree), in its order: for every pair of classes x, y of
    degrees <= degree_cap, every s <= smax and both variants, x cross y
    is built on every cell of the product space and power_op is run on
    it, evaluated on the classifier's support, even where the side
    vanishes or leaves the product's skeleton."""
    X, ring = alg.space, alg.ring
    P = product_space(X, X)
    palg = CochainSystem(P, ring)
    lift = equivariant_lift_j(p, cap=0)
    classifier = ProductClassifier(X, X, ring)
    degrees = [n for n in X.dims() if n <= degree_cap]
    sides = []
    for q1, q2 in itertools.product(degrees, repeat=2):
        for _, x in alg.homology_space(q1).all_classes():
            for _, y in alg.homology_space(q2).all_classes():
                z = BigradedClass(q1 + q2, 0, cochain_cross(
                    X, X, ring, x, q1, y, q2, P))
                for s, bock in itertools.product(range(smax + 1),
                                                 (False, True)):
                    side = power_op(z, s, palg, lift, bock,
                                    classifier.support)
                    sides.append((side.rep, side.degree))
    return sides


def full_product_coordinates(classifier, P, terms, n):
    """The coordinates of sum sign * (a cross b) over the terms (a, deg a,
    b, deg b, sign): the sum is built as a cochain on the product space
    P = X x Y, one cochain_cross per term, and paired through the
    classifier's table, which ProductClassifier.cross_coordinates must
    match without building it."""
    ring = classifier.ring
    cochain = {}
    for a, qa, b, qb, sign in terms:
        add_scaled(cochain, sign, cochain_cross(
            classifier.X, classifier.Y, ring, a, qa, b, qb, P), ring)
    return classifier.coordinates(cochain, n)


# H*(BZ/p; F_p) = Lambda(x) (x) F_p[y] with |x| = 1, |y| = 2 and beta x = y,
# and its n-fold tensor power H*((BZ/p)^n; F_p) (Kuenneth).  An element
# is a dict from monomials to coefficients mod p; a monomial is a tuple of
# one (e, k) per factor, for x^e y^k with e in {0, 1}.

def bzp_power(s, z, p):
    """P^s on H*((BZ/p)^n; F_p).  On one factor
    P^t(y^k) = (k choose t) y^(k + t(p-1)) and P^t(x y^k) = x P^t(y^k),
    since P^0 x = x and P^t x = 0 for t > 0; on a tensor product the
    Cartan formula P^s(u v) = sum_t P^t(u) P^(s-t)(v) holds, with no
    sign, as every P^t has even degree."""
    out = {}
    for mono, c in z.items():
        for split in _compositions(s, len(mono)):
            coeff = c
            for (_, k), t in zip(mono, split):
                coeff = coeff * math.comb(k, t) % p
            if coeff:
                key = tuple((e, k + t * (p - 1))
                            for (e, k), t in zip(mono, split))
                out[key] = (out.get(key, 0) + coeff) % p
    return {key: c for key, c in out.items() if c}


def bzp_bockstein(z, p):
    """beta on H*((BZ/p)^n; F_p): beta(x y^k) = y^(k+1) and
    beta(y^k) = 0 on one factor, extended to tensor products as a
    derivation, beta(u v) = beta(u) v + (-1)^|u| u beta(v)."""
    out = {}
    for mono, c in z.items():
        sign = c
        for j, (e, k) in enumerate(mono):
            if e:
                key = mono[:j] + ((0, k + 1),) + mono[j + 1:]
                out[key] = (out.get(key, 0) + sign) % p
                sign = -sign
    return {key: c for key, c in out.items() if c}


def bzp_apply(ops, z, p):
    """Apply the operations (bockstein, s), read right to left as in
    beta^eps P^a beta^delta P^b, to the element z."""
    for bock, s in reversed(ops):
        z = bzp_power(s, z, p)
        if bock:
            z = bzp_bockstein(z, p)
    return z


# H*(BZ/2; F_2) = F_2[x] with |x| = 1.  An element is a dict from the
# exponent n of x^n to its coefficient mod 2.

def bz2_square(i, z):
    """Sq^i on H*(BZ/2; F_2): Sq^i(x^n) = (n choose i) x^(n + i), the
    Cartan formula applied to Sq(x) = x + x^2."""
    out = {}
    for n, c in z.items():
        coeff = c * math.comb(n, i) % 2
        if coeff:
            out[n + i] = (out.get(n + i, 0) + coeff) % 2
    return {n: c for n, c in out.items() if c}
