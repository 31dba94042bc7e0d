"""Operads in chain complexes with executable axiom checks.

The concrete instance is the surjection operad: the degree-d piece of
arity k is spanned by the nondegenerate surjections {1..k+d} ->> {1..k}
(no adjacent repeats).  Its differential deletes letters, its composition
substitutes words with overlapping splittings, the symmetric groups act
by renaming values, and it acts on normalized simplicial cochains by
interval cuts; the arity-2 part reproduces the cup and cup-i products.
The structure maps are read on basis labels, and the axiom checks sweep
the composable tuples of basis labels within an arity and a degree cap.

Sign conventions follow the orientation formalism: a word u carries the
orientation sign or(u), the number of inversions among its caesura
letters (letters whose value recurs later) relative to the
(value, occurrence)-sorted order.  All structure maps are defined by a
pure Koszul rule in the oriented basis and transported back, which is
what makes d^2 = 0, the chain-map property of gamma, associativity and
equivariance come out exactly.  The pure Koszul rule is koszul_sign,
the one place where a reordering of graded letters becomes a sign: the
orientation, the composition, the equivariance and block signs of the
checks and the interval-cut signs all read it.
"""

from __future__ import annotations

import functools
import itertools
import math

from .complexes import ChainComplex, HOMOLOGICAL, homology
from .freemod import FreeModule, FreeModuleMap, add_scaled
from .rings import RingSpec, SizeBoundError
from .simplicial import FiniteSimplicialSet, cochains


# ---------------------------------------------------------------------------
# surjection words
# ---------------------------------------------------------------------------

def is_surjection_word(u, k) -> bool:
    """Onto {1..k} with no adjacent repeats."""
    if set(u) != set(range(1, k + 1)):
        return False
    return all(u[i] != u[i + 1] for i in range(len(u) - 1))


@functools.cache
def surjection_words(k: int, degree: int):
    """All nondegenerate surjections {1..k+degree} ->> {1..k}, sorted, as
    a tuple shared by every caller (built once per process)."""
    if k == 0:
        return ((),) if degree == 0 else ()
    # only words without adjacent repeats are listed: after the first
    # letter, step o picks the o-th smallest letter other than the last,
    # which keeps the words sorted
    out = []
    for first in range(1, k + 1):
        for steps in itertools.product(range(1, k), repeat=k + degree - 1):
            u = [first]
            for o in steps:
                u.append(o if o < u[-1] else o + 1)
            if len(set(u)) == k:
                out.append(tuple(u))
    return tuple(out)


def word_count(k: int, degree: int) -> int:
    """len(surjection_words(k, degree)), without listing the words: of
    the j (j - 1)^(n - 1) words of length n over j letters that have no
    adjacent repeats, inclusion-exclusion keeps those using all k."""
    n = k + degree
    if k == 0:
        return int(n == 0)
    return sum((-1) ** (k - j) * math.comb(k, j) * j * (j - 1) ** (n - 1)
               for j in range(1, k + 1))


def letter_info(u):
    """Per letter: (value, occurrence index from 1, is_caesura).

    A caesura is a letter whose value recurs later in the word; caesuras
    are the degree-1 letters, final occurrences have degree 0.
    """
    last = {}
    for i, v in enumerate(u):
        last[v] = i
    seen = {}
    out = []
    for i, v in enumerate(u):
        seen[v] = seen.get(v, 0) + 1
        out.append((v, seen[v], last[v] != i))
    return out


def occurrence_counts(u):
    occ = {}
    for v in u:
        occ[v] = occ.get(v, 0) + 1
    return occ


def koszul_sign(keys, degrees=None) -> int:
    """The pure Koszul rule: the sign of sorting a sequence of graded
    letters by keys.

    It is (-1) to the sum of deg(a) * deg(b) over the pairs a, b that
    sorting keys puts in the other order; equal keys keep their order.
    With degrees None every letter has degree 1, and the sign is that of
    the sorting permutation.  Only pairs of odd letters count, so the
    even ones are dropped before the pairs are compared.
    """
    if degrees is not None:
        keys = [key for key, deg in zip(keys, degrees) if deg % 2]
    inv = sum(a > b for i, a in enumerate(keys) for b in keys[i + 1:])
    return -1 if inv % 2 else 1


def orientation(u) -> int:
    """Sign relating position order to (value, occurrence) order of the
    caesura letters."""
    return koszul_sign([(v, t) for v, t, c in letter_info(u) if c])


@functools.cache
def surjection_boundary(u, k):
    """Differential: signed deletion of single letters.

    Deleting the t-th occurrence of value v carries the sign
    or(u) * or(du) * (-1)^(t-1) * (-1)^(caesuras of smaller values);
    deletions that break surjectivity or create adjacent repeats drop out.
    The integer coefficients hold over every ring, so each word's
    boundary is computed once per process; callers only read the dict.
    """
    info = letter_info(u)
    occ = occurrence_counts(u)
    su = orientation(u)
    out = {}
    for i in range(len(u)):
        v, t, _ = info[i]
        if occ[v] == 1:
            continue
        w = u[:i] + u[i + 1:]
        if not is_surjection_word(w, k):
            continue
        pre = sum(occ[x] - 1 for x in occ if x < v)
        s = su * orientation(w) * (-1) ** (pre + t - 1)
        out[w] = out.get(w, 0) + s
    return {w: c for w, c in out.items() if c}


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _overlapping_splittings(length, pieces):
    """Cut-point tuples 1 = c_0 <= c_1 <= ... <= c_pieces = length; piece t
    spans positions c_{t-1}..c_t, so consecutive pieces share a letter."""
    if pieces == 0:
        return [(1,)] if length == 0 else []
    out = []
    for cuts in itertools.combinations_with_replacement(
            range(1, length + 1), pieces - 1):
        out.append((1,) + cuts + (length,))
    return out


def _caesuras_sorted(u):
    """Positions (1-based) of the caesuras in (value, occurrence) order."""
    info = letter_info(u)
    caes = [(v, t, i) for i, (v, t, c) in enumerate(info) if c]
    caes.sort(key=lambda z: (z[0], z[1]))
    return [i + 1 for _, _, i in caes]


def surjection_composition(u, k, vs, arities):
    """gamma(u; v_1..v_k): substitute v_s for the occurrences of s.

    Each v_s is split into as many overlapping pieces as s has
    occurrences; the pieces replace the occurrences in order, values are
    renumbered by block offsets, and results with adjacent repeats or
    missing values are dropped.  The sign is or(u) * prod or(v_s) times
    the Koszul sign of sorting the caesuras of the result w, in position
    order, into the source order: duplicated cut letters stand for the
    caesuras of u, transported letters for the caesuras of the v_s, and
    the source lists u's (by value and occurrence) before those of each
    v_s in turn (in orientation order).  That one sort is or(w) times
    the matching of the source order with w's oriented caesuras.
    """
    occ = occurrence_counts(u)
    offsets = {}
    off = 0
    for s in range(1, k + 1):
        offsets[s] = off
        off += arities[s - 1]
    splits = []
    for s in range(1, k + 1):
        sp = _overlapping_splittings(len(vs[s - 1]), occ.get(s, 0))
        if not sp:
            return {}
        splits.append(sp)
    base = orientation(u)
    for v in vs:
        base *= orientation(v)
    src = []
    for s in range(1, k + 1):
        for t in range(1, occ.get(s, 0)):
            src.append(("u", s, t))
    for s in range(1, k + 1):
        for pos in _caesuras_sorted(vs[s - 1]):
            src.append(("v", s, pos))
    rank = {tag: j for j, tag in enumerate(src)}
    out = {}
    for choice in itertools.product(*splits):
        used = {s: 0 for s in range(1, k + 1)}
        w = []
        tags = []
        for v in u:
            t = used[v] = used[v] + 1
            cuts = choice[v - 1]
            for pos in range(cuts[t - 1], cuts[t] + 1):
                w.append(vs[v - 1][pos - 1] + offsets[v])
                if pos == cuts[t] and t < occ[v]:
                    tags.append(("u", v, t))
                else:
                    tags.append(("v", v, pos))
        w = tuple(w)
        if not is_surjection_word(w, off):
            continue
        sign = base * koszul_sign([rank[tag] for tag, (_, _, c)
                                   in zip(tags, letter_info(w)) if c])
        out[w] = out.get(w, 0) + sign
    return {w: c for w, c in out.items() if c}


def rename_values(u, perm):
    """Unsigned symmetric-group action: value v becomes perm[v-1]."""
    return tuple([perm[v - 1] for v in u])


# ---------------------------------------------------------------------------
# operads
# ---------------------------------------------------------------------------

class Operad:
    """Arity-indexed complexes with symmetric actions, composition and unit.

    levels maps arity -> ChainComplex.  The structure maps are read on
    basis labels and return {result label: coefficient}:
    act(k, perm, label) is the action of the permutation sending v to
    perm[v-1], and compose_basis(u, k, vs, arities) evaluates gamma.
    unit is the basis label of the arity-1 identity in degree 0.
    The dicts act and compose_basis return may be shared between calls
    and between operads (the surjection operad's compositions come from
    one memo per process, keyed without the ring), so callers only read
    them.
    """

    def __init__(self, ring, levels, act, compose_basis, unit):
        self.ring = ring
        self.levels = dict(levels)
        self.act = act
        self.compose_basis = compose_basis
        self.unit = unit

    def arities(self):
        return sorted(self.levels)

    def level(self, k) -> ChainComplex:
        return self.levels[k]

    def group_relation_failures(self):
        """Coxeter relations of the adjacent transpositions (i i+1),
        checked by acting on every basis label of every level."""
        ring = self.ring
        bad = []
        for k in self.arities():
            C = self.level(k)
            labels = [lab for n in sorted(C.modules)
                      for lab in C.module(n).basis]
            # transposition[i] swaps i and i + 1; its action on a basis
            # label is read from act once, however many relations apply it
            transposition = {}
            for i in range(1, k):
                perm = list(range(1, k + 1))
                perm[i - 1], perm[i] = i + 1, i
                transposition[i] = tuple(perm)
            acted = {}

            def act_word(word, lab):
                # the transpositions of word, applied right to left
                vec = {lab: ring.one()}
                for i in reversed(word):
                    out = {}
                    for b, c in vec.items():
                        image = acted.get((i, b))
                        if image is None:
                            image = acted[(i, b)] = self.act(
                                k, transposition[i], b)
                        add_scaled(out, c, image, ring)
                    vec = out
                return vec

            def holds(left, right):
                return all(act_word(left, lab) == act_word(right, lab)
                           for lab in labels)

            for i in range(1, k):
                if not holds((i, i), ()):
                    bad.append((k, "square", i))
            for i in range(1, k - 1):
                if not holds((i, i + 1, i), (i + 1, i, i + 1)):
                    bad.append((k, "braid", i))
            for i in range(1, k):
                for j in range(i + 2, k):
                    if not holds((i, j), (j, i)):
                        bad.append((k, "commute", i, j))
        return bad


def _act_vector(O: Operad, k, perm, vec):
    """The action of perm on a sparse vector of level k."""
    out = {}
    for lab, c in vec.items():
        add_scaled(out, c, O.act(k, perm, lab), O.ring)
    return out


# ---------------------------------------------------------------------------
# the surjection operad
# ---------------------------------------------------------------------------

MAX_ARITY = 4
MAX_LEVEL_WORDS = 50_000


def surjection_operad(arity: int, ring: RingSpec, degree_cap: int) -> Operad:
    """Arities 1..arity of the surjection operad, degrees 0..degree_cap.

    Each level keeps one guard degree above the cap so that homology
    through the cap is that of the full (infinite) complex.

    Size bounds (SizeBoundError): arity <= MAX_ARITY, degree_cap <= 10,
    and at most MAX_LEVEL_WORDS words in the top level, counted by
    word_count before any is listed.  The word counts grow factorially
    with the arity (k! words of degree 0; 600, 7,800 and 100,800 of
    degree 2 at arities 4, 5 and 6) and exponentially with the degree
    (the top level holds 49,068 words at arity 3, degree cap 10, and
    33,336 and 105,936 at arity 4, degree caps 4 and 5), and the axiom
    and E-infinity sweeps with them: at degree cap 2, operad-check runs
    past 30 s at arity 5.  The sweeps have bounds of their own
    (MAX_SWEEP_TUPLES, MAX_SMITH_ENTRIES).
    """
    if arity < 1:
        raise ValueError("arity must be at least 1")
    if arity > MAX_ARITY:
        raise SizeBoundError("arity cap too large for exhaustive levels "
                             f"(arity <= {MAX_ARITY})")
    if degree_cap > 10:
        raise SizeBoundError("degree cap too large for exhaustive levels")
    stored = degree_cap + 1
    words = sum(word_count(arity, d) for d in range(stored + 1))
    if words > MAX_LEVEL_WORDS:
        raise SizeBoundError(
            f"degree cap too large for exhaustive levels ({words} words "
            f"at arity {arity}, at most {MAX_LEVEL_WORDS})")
    levels = {}
    for k in range(1, arity + 1):
        top = stored if k > 1 else 0
        modules = {d: FreeModule(ring, surjection_words(k, d))
                   for d in range(top + 1)}
        diffs = {}
        for d in range(1, top + 1):
            entries = {}
            for u in modules[d].basis:
                for w, c in surjection_boundary(u, k).items():
                    entries[(w, u)] = ring.normalize(c)
            diffs[d] = FreeModuleMap(modules[d], modules[d - 1], entries)
        levels[k] = ChainComplex(ring, modules, diffs, HOMOLOGICAL)

    def act(k, perm, u):
        return {rename_values(u, perm): 1}

    return Operad(ring, levels, act, _compose_basis, (1,))


# The axiom sweeps ask for the same composition many times (193 distinct
# of 3,477 calls at arity cap 3, degree cap 2), and every operad asks for
# the same ones: a composition's coefficients are integers that the
# callers reduce into their ring (add_scaled, ring.normalize), so one
# memo per process, keyed without the ring, serves Z, Q and every Z/m.
# The stored dicts are handed out and only read.
_COMPOSITIONS = {}


def _compose_basis(u, k, vs, arities):
    key = (u, k, tuple(vs), tuple(arities))
    out = _COMPOSITIONS.get(key)
    if out is None:
        out = _COMPOSITIONS[key] = surjection_composition(u, k, vs, arities)
    return out


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

def _basis_with_degrees(C: ChainComplex, degree_cap):
    return [(lab, n) for n in sorted(C.modules) if n <= degree_cap
            for lab in C.module(n).basis]


def _d_of_basis(C: ChainComplex, label, degree):
    """Differential of a basis element as {label: coefficient}; a degree
    whose differential is zero builds no map."""
    d = C.differentials.get(degree)
    return d.column(label) if d is not None else {}


def _bases(O: Operad, arity_cap, degree_cap):
    """arity -> [(label, degree)] for the levels within the caps."""
    return {k: _basis_with_degrees(O.level(k), degree_cap)
            for k in O.arities() if k <= arity_cap}


def _inputs(bases, count, arity_cap, degree_budget):
    """Every tuple of count basis elements (js, vs, ds): arities js with
    sum(js) <= arity_cap, labels vs, degrees ds with sum(ds) <=
    degree_budget."""
    for js in itertools.product(range(1, arity_cap - count + 2),
                                repeat=count):
        if sum(js) > arity_cap or any(j not in bases for j in js):
            continue
        for chosen in itertools.product(*(bases[j] for j in js)):
            ds = tuple(d for _, d in chosen)
            if sum(ds) <= degree_budget:
                yield js, tuple(lab for lab, _ in chosen), ds


def _composable(O: Operad, arity_cap, degree_cap):
    """Every composable (k, u, du, js, vs, ds): u of arity k and degree du,
    inputs vs of arities js and degrees ds, within both caps."""
    bases = _bases(O, arity_cap, degree_cap)
    for k in sorted(bases):
        for u, du in bases[k]:
            for js, vs, ds in _inputs(bases, k, arity_cap, degree_cap - du):
                yield k, u, du, js, vs, ds


# check_operad_axioms refuses a sweep of more composable plus
# associativity tuples than this.  It spends 50 to 80 us per tuple (on a
# 2-core container with Python 3.11): 9,034 tuples at arity cap 4,
# degree cap 2 take 0.45 to 0.7 s and 16,294 at (3, 7) 1.1 s, while
# (4, 3) has 27,462 and (3, 9) 62,942.
MAX_SWEEP_TUPLES = 20_000


def _sweep_size(bases, arity_cap, degree_cap):
    """The number of composable tuples (_composable) plus the number of
    associativity tuples (one per composable tuple and input tuple of
    _inputs) that check_operad_axioms visits, counted from the number of
    basis labels of each arity and degree without listing any tuple."""
    sizes = {}
    for j, basis in bases.items():
        for _, d in basis:
            sizes[(j, d)] = sizes.get((j, d), 0) + 1
    # seqs[c][(a, e)]: sequences of c labels of total arity a <= arity_cap
    # and total degree e <= degree_cap
    seqs = [{(0, 0): 1}]
    for _ in range(arity_cap):
        longer = {}
        for (a, e), n in seqs[-1].items():
            for (j, d), m in sizes.items():
                if a + j <= arity_cap and e + d <= degree_cap:
                    key = (a + j, e + d)
                    longer[key] = longer.get(key, 0) + n * m
        seqs.append(longer)

    def inputs(count, budget):
        return sum(n for (_, e), n in seqs[count].items() if e <= budget)

    total = 0
    for (k, du), m in sizes.items():
        total += m * inputs(k, degree_cap - du)
        for (a, e), n in seqs[k].items():
            if e <= degree_cap - du:
                total += m * n * inputs(a, degree_cap - du - e)
    return total


@functools.cache
def _nontrivial_permutations(k):
    return tuple(itertools.permutations(range(1, k + 1)))[1:]


def check_operad_axioms(O: Operad, arity_cap: int, degree_cap: int) -> dict:
    """Exhaustive diagram checks on basis elements within the caps.

    Covers: the symmetric group generator relations, gamma commuting with
    the differentials, both unit diagrams, associativity, and the two
    equivariance diagrams (outer block permutation and inner block sum).
    Returns {"passed", "checked", "failures"} with named witnesses.
    Raises SizeBoundError, before checking anything, when the sweep would
    visit more than MAX_SWEEP_TUPLES tuples.
    """
    ring = O.ring
    bases = _bases(O, arity_cap, degree_cap)
    size = _sweep_size(bases, arity_cap, degree_cap)
    if size > MAX_SWEEP_TUPLES:
        raise SizeBoundError(
            f"operad check too large: {size} composable and associativity "
            f"tuples (at most {MAX_SWEEP_TUPLES})")
    failures = [{"check": "group-relations", "witness": rel}
                for rel in O.group_relation_failures()]
    checked = 0

    def gamma_commutes_with_d(k, u, du, js, vs, ds):
        lhs = {}
        for w, c in O.compose_basis(u, k, vs, js).items():
            add_scaled(lhs, c, _d_of_basis(O.level(sum(js)), w,
                                           du + sum(ds)), ring)
        rhs = {}
        for u2, c in _d_of_basis(O.level(k), u, du).items():
            add_scaled(rhs, c, O.compose_basis(u2, k, vs, js), ring)
        sgn = (-1) ** du
        for s in range(k):
            for v2, c in _d_of_basis(O.level(js[s]), vs[s], ds[s]).items():
                vs2 = list(vs)
                vs2[s] = v2
                add_scaled(rhs, sgn * c, O.compose_basis(u, k, vs2, js),
                           ring)
            sgn *= (-1) ** ds[s]
        return lhs == rhs

    # the associativity inputs of a composable tuple depend only on its
    # total arity and degree, so each such list is built once per check
    outer_inputs = {}
    for k, u, du, js, vs, ds in _composable(O, arity_cap, degree_cap):
        checked += 1
        if not gamma_commutes_with_d(k, u, du, js, vs, ds):
            failures.append({"check": "composition-chain-map",
                             "witness": (k, u, vs)})
        # unit diagram: gamma(u; units)
        if O.compose_basis(u, k, [O.unit] * k, [1] * k) != {u: 1}:
            failures.append({"check": "right-unit", "witness": (k, u)})
        if k >= 2:
            failures.extend(_equivariance_failures(O, k, u, js, vs, ds))
        key = (sum(js), degree_cap - du - sum(ds))
        if key not in outer_inputs:
            outer_inputs[key] = list(_inputs(bases, key[0], arity_cap,
                                             key[1]))
        for ls, ws, dws in outer_inputs[key]:
            if not _associativity_holds(O, k, u, js, vs, ds, ls, ws, dws):
                failures.append({"check": "associativity",
                                 "witness": (k, u, vs, ws)})

    for j, basis in bases.items():
        for v, _ in basis:
            checked += 1
            if O.compose_basis(O.unit, 1, [v], [j]) != {v: 1}:
                failures.append({"check": "left-unit", "witness": (j, v)})

    failures.sort(key=repr)
    return {"passed": not failures, "checked": checked,
            "failures": failures}


def _equivariance_failures(O: Operad, k, u, js, vs, ds):
    """The outer (block permutation) and inner (block sum) equivariance
    diagrams of gamma(u; vs)."""
    ring = O.ring
    j = sum(js)
    failures = []
    for perm in _nontrivial_permutations(k):
        # outer action on u, same inputs
        lhs = {}
        for u2, c in O.act(k, perm, u).items():
            add_scaled(lhs, c, O.compose_basis(u2, k, vs, js), ring)
        # permuted inputs, then the block permutation of the output, with
        # the Koszul sign of sorting the permuted inputs back
        vs_in = [vs[perm[s] - 1] for s in range(k)]
        js_in = [js[perm[s] - 1] for s in range(k)]
        sgn = koszul_sign(perm, [ds[s - 1] for s in perm])
        rhs = add_scaled({}, sgn, _act_vector(
            O, j, _block_permutation(js, perm),
            O.compose_basis(u, k, vs_in, js_in)), ring)
        if lhs != rhs:
            failures.append({"check": "outer-equivariance",
                             "witness": (k, u, vs, perm)})
    for s in range(k):
        for tau in _nontrivial_permutations(js[s]):
            lhs = {}
            for v2, c in O.act(js[s], tau, vs[s]).items():
                vs2 = list(vs)
                vs2[s] = v2
                add_scaled(lhs, c, O.compose_basis(u, k, vs2, js), ring)
            rhs = _act_vector(O, j, _block_sum(js, s, tau),
                              O.compose_basis(u, k, vs, js))
            if lhs != rhs:
                failures.append({"check": "inner-equivariance",
                                 "witness": (k, u, vs, s + 1, tau)})
    return failures


@functools.cache
def _block_permutation(js, perm):
    """Permutation of {1..sum js} moving the s-th block (size js[s-1]) to
    where perm sends it, preserving the order inside blocks."""
    k = len(js)
    js_in = [js[perm[s] - 1] for s in range(k)]
    offin = [0]
    for x in js_in:
        offin.append(offin[-1] + x)
    offout = [0]
    for x in js:
        offout.append(offout[-1] + x)
    out = [0] * sum(js)
    for s in range(k):
        for local in range(1, js_in[s] + 1):
            out[offin[s] + local - 1] = offout[perm[s] - 1] + local
    return tuple(out)


@functools.cache
def _block_sum(js, s, tau):
    """id + ... + tau + ... + id acting on the s-th block (0-based s)."""
    off = sum(js[:s])
    out = list(range(1, sum(js) + 1))
    for local in range(js[s]):
        out[off + local] = off + tau[local]
    return tuple(out)


@functools.cache
def _block_sign(js, outer, inner):
    """Koszul sign of interleaving o_1..o_k, i_1..i_n into o_1, (block 1),
    o_2, (block 2), ...: block s holds the next js[s] letters i, and
    outer and inner give the degrees of the o and the i."""
    keys = [2 * s for s in range(len(js))]
    keys += [2 * s + 1 for s, j in enumerate(js) for _ in range(j)]
    return koszul_sign(keys, list(outer) + list(inner))


def _associativity_holds(O, k, u, js, vs, dvs, ls, ws, dws):
    ring = O.ring
    left = {}
    for m, c in O.compose_basis(u, k, vs, js).items():
        add_scaled(left, c, O.compose_basis(m, sum(js), ws, ls), ring)
    prefix = [0]
    for x in js:
        prefix.append(prefix[-1] + x)
    koszul = _block_sign(js, dvs, dws)
    inner_results = []
    for s in range(k):
        block = ws[prefix[s]:prefix[s + 1]]
        bls = ls[prefix[s]:prefix[s + 1]]
        inner_results.append(O.compose_basis(vs[s], js[s], block, bls))
    lens = [sum(ls[prefix[s]:prefix[s + 1]]) for s in range(k)]
    right = {}
    for combo in itertools.product(*[list(m.items())
                                     for m in inner_results]):
        newvs = [lab for lab, _ in combo]
        coeff = ring.normalize(koszul)
        for _, c in combo:
            coeff = ring.mul(coeff, c)
        add_scaled(right, coeff, O.compose_basis(u, k, newvs, lens), ring)
    return left == right


# Over Z and over Z/m with m composite, check_einfinity refuses a level
# whose homology would put more entries than this into the dense Smith
# form (linalg.integer_quotient): at degree n, a kernel of at most
# rank C_n vectors against the image of rank C_{n+1} columns, plus rank
# C_n columns m e_c over Z/m.  Measured on a 2-core container with
# Python 3.11: 86,400 entries (arity 4, degree 1, over Z) take 0.9 s;
# 107,136 (the same over Z/4) 3.6 s and 430,920 (arity 3, degree 5,
# over Z/4) 33 s.  Over a field the quotient is an echelon basis, with
# no Smith form.
MAX_SMITH_ENTRIES = 100_000


def check_einfinity(O: Operad, arity_cap: int, degree_cap: int) -> dict:
    """Freeness of the symmetric group actions and acyclicity per level.

    Freeness: every non-identity permutation must send each basis label
    to one other basis label with a nonzero coefficient.  Acyclicity:
    through the cap, each level has the homology of the ring's rank-one
    unit complex (the ring in degree 0, zero above).  Raises
    SizeBoundError, before checking anything, when a level's Smith form
    would be past MAX_SMITH_ENTRIES.
    """
    failures = []
    checked = 0
    ring = O.ring
    bases = _bases(O, arity_cap, degree_cap)
    if not ring.is_field():
        for k in bases:
            C = O.level(k)
            for n in range(degree_cap + 1):
                rows = C.module(n).rank
                cols = C.module(n + 1).rank + (rows if ring.modulus else 0)
                if rows * cols > MAX_SMITH_ENTRIES:
                    raise SizeBoundError(
                        f"E-infinity check too large: the Smith form at "
                        f"arity {k}, degree {n} would be {rows} x {cols} "
                        f"(at most {MAX_SMITH_ENTRIES} entries over {ring})")
    unit = ChainComplex(ring, {0: FreeModule(ring, [()])}, {}, HOMOLOGICAL)
    want = [homology(unit, n) for n in range(degree_cap + 1)]
    for k, basis in bases.items():
        for perm in _nontrivial_permutations(k):
            for s, n in basis:
                checked += 1
                img = O.act(k, perm, s)
                if len(img) != 1 or s in img or any(
                        ring.is_zero(c) for c in img.values()):
                    failures.append({"check": "freeness",
                                     "witness": (k, perm, n, s)})
        for n in range(degree_cap + 1):
            checked += 1
            H = homology(O.level(k), n)
            if H != want[n]:
                failures.append({"check": "acyclicity",
                                 "witness": (k, n, H.free_rank,
                                             tuple(H.divisors))})
    failures.sort(key=repr)
    return {"passed": not failures, "checked": checked,
            "failures": failures}

# ---------------------------------------------------------------------------
# interval-cut action on normalized cochains
# ---------------------------------------------------------------------------

def _compositions(total, parts):
    if parts == 0:
        yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _cut_sign(u, lens, tpts):
    """Sign of one interval-cut term.

    Three factors: the pure Koszul rule, koszul_sign, for regrouping the
    sequence interval_1, [caesura_1], interval_2, ... by value
    (intervals graded by their length, caesuras by 1; letter i sorts
    under the key (value, i, interval before caesura), packed into one
    integer); a factor -1 per caesura whose interval ends at an odd
    vertex; and (-1)^(d(d-1)/2) for a word with d caesuras, the Koszul
    sign of reversing d degree-one letters.  With the last factor the
    action commutes with the differentials for every word, also past the
    degrees check_algebra_axioms sweeps.
    """
    width = 2 * len(u)
    keys = []
    degrees = []
    extra = d = 0
    for i, (v, _, caesura) in enumerate(letter_info(u)):
        keys.append(v * width + 2 * i)
        degrees.append(lens[i])
        if caesura:
            keys.append(v * width + 2 * i + 1)
            degrees.append(1)
            extra += tpts[i + 1]
            d += 1
    extra += d * (d - 1) // 2
    sign = koszul_sign(keys, degrees)
    return -sign if extra % 2 else sign


@functools.cache
def _cut_table(u, k, degrees):
    """The interval cuts of 0..n for u acting on cochains of the given
    degrees, as (vertex_sets, lens, tpts) triples: vertex_sets[s - 1]
    lists the vertices the cut hands to value s, lens the length of each
    of u's intervals and tpts their endpoints.  Cuts that repeat a
    vertex are left out (their faces are degenerate everywhere).

    The cuts depend on u, k and the degrees only, so the table is built
    once per process and shared by every call on every space.  It holds
    no signs: interval_cut_action computes each through _cut_sign when
    its cut first contributes to a call.
    """
    occ = occurrence_counts(u)
    poss = {}
    for i, v in enumerate(u):
        poss.setdefault(v, []).append(i)
    per_value = []
    for s in range(1, k + 1):
        free = degrees[s - 1] - occ[s] + 1
        if free < 0:
            return ()
        per_value.append(list(_compositions(free, occ[s])))
    cuts = []
    for combo in itertools.product(*per_value):
        lens = [0] * len(u)
        used = {s: 0 for s in range(1, k + 1)}
        for i, v in enumerate(u):
            t = used[v] = used[v] + 1
            lens[i] = combo[v - 1][t - 1]
        tpts = [0]
        for l in lens:
            tpts.append(tpts[-1] + l)
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
    return tuple(cuts)


def interval_cut_action(X: FiniteSimplicialSet, ring: RingSpec, u, k, xs,
                        cells=None):
    """theta(u; x_1..x_k) on normalized cochains of X.

    xs: list of (cochain, degree) pairs, where a cochain is a dict
    mapping simplex labels to coefficients.  A surjection of degree d
    lowers the total degree by d: the result is the cochain whose value
    on an n-simplex is the signed sum over all ways of cutting 0..n into
    k+d intervals, assigned to the values of u in order, of the product
    of the x_s evaluated on the concatenations of their intervals.

    The cuts come from the shared _cut_table and their faces from the
    space's vertex_face memo.  Each term is the product of the raw
    coefficients and the sign, and each output cell's sum is reduced
    into the ring once: every ring here is Z, Q or a quotient of Z, so
    that equals reducing each factor.

    cells, when given, is a function of the output degree n returning
    the n-simplices to evaluate on; the result is then the cochain
    restricted to them.  It selects outputs only: the inputs are read
    wherever the cuts' faces land.
    """
    ns = tuple(deg for _, deg in xs)
    n = sum(ns) - (len(u) - k)
    if n < 0 or n not in X.dims():
        return {}
    cuts = _cut_table(u, k, ns)
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
                    sign = signs[j] = _cut_sign(u, lens, tpts)
                total += sign * term
        total = ring.normalize(total)
        if not ring.is_zero(total):
            out[sigma] = total
    return out


# ---------------------------------------------------------------------------
# algebra axiom checks
# ---------------------------------------------------------------------------

def check_algebra_axioms(O: Operad, X: FiniteSimplicialSet, arity_cap: int,
                         degree_cap: int) -> dict:
    """Exhaustive checks, on basis elements within the caps, of the
    diagrams that make the normalized cochains of X an algebra over the
    surjection operad O through interval_cut_action (theta).

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
        return interval_cut_action(X, ring, u, k,
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
                    sgn = koszul_sign(perm, [ns[s - 1] for s in perm])
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
                             interval_cut_action(X, ring, u, k, inner), ring)
            if lhs != rhs:
                failures.append({"check": "composition-compatibility",
                                 "witness": (k, u, vs, tuple(xs))})
    failures.sort(key=repr)
    return {"passed": not failures, "checked": checked,
            "failures": failures}

