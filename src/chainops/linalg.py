"""Exact sparse/dense linear algebra over Z, Z/m and Q.

Most public functions take and return dense row-major lists of exact
ring elements; sparse_kernel, lattice_coordinates and integer_quotient,
which serve the homology quotient, take sparse dicts.  Echelon forms
and kernels are computed on sparse rows (dicts column -> nonzero entry),
since the structure maps this engine meets are mostly zero; their
outputs are canonical (reduced row echelon form over a field, Hermite
normal form over Z, Howell form over Z/m), so they do not depend on the
elimination order.
Over a field there is one elimination loop, EchelonBasis: a reduced
row echelon basis grown one vector at a time, which says whether each
vector raised the rank, reduces a vector to its canonical coset
representative, and reads coordinates in the vectors it kept.  rref,
the field kernels, solve_matrix over a field and the field homology
quotients are all built on it.
Over Z and over Z/m with m composite there is one elimination loop too,
_howell_form (Howell 1986; Storjohann and Mulders 1998): the Howell form
of the stacked rows [column j of A | e_j], with pivots scaled to
divisors of m and saturation rows, and no lift to Z; over Z it runs with
m = 0, where the Howell form is the Hermite normal form.  Its rows
leading in the e-part are the kernel, and those leading in the A-part
solve A x = b by reduction.
Every integer elimination follows one pivot rule: among the entries in
play, the smallest nonzero |entry| becomes the pivot, and floor division
leaves remainders smaller than it, so the integers stay small (a merge
by extended gcd multipliers instead blows them up, as Kannan and Bachem
1979 describe for naive Hermite forms) and all outputs are
deterministic and suitable for golden tests.  _howell_form and
smith_normal_form_matrix both follow it.
Smith normal form is reached only through integer_quotient, for the
invariant factors of the homology quotient over Z and Z/m.  Lattice
coordinates against a row-Hermite basis (the Z kernels) come from
back-substitution, with no Smith form.
"""

from __future__ import annotations

import math

from .freemod import add_scaled
from .rings import RingSpec, ZZ


# ---------------------------------------------------------------------------
# integer Smith normal form
# ---------------------------------------------------------------------------

def identity_matrix(n: int, ring: RingSpec = ZZ):
    """The n x n identity matrix over the ring, as dense rows (so also as
    columns)."""
    return [[ring.one() if i == j else ring.zero() for j in range(n)]
            for i in range(n)]


def smith_normal_form_matrix(m_rows):
    """Return (S, U, V) with U*M*V = S, U, V unimodular, S diagonal with
    d1 | d2 | ... and nonnegative diagonal entries.

    One pivot loop fills the diagonal.  At (t, t) it moves the smallest
    nonzero |entry| of the trailing block there and clears the pivot's
    row and column by floor division.  A remainder is smaller than the
    pivot, so while one is left the pivot is chosen again.  Once the row
    and column are clear, a row of the block holding an entry the pivot
    does not divide is added to the pivot row and the pivot is chosen
    again.  So every new choice is smaller than the last, and the pivot
    left at (t, t) divides every entry after it."""
    R = len(m_rows)
    C = len(m_rows[0]) if R else 0
    S = [list(map(int, row)) for row in m_rows]
    U = identity_matrix(R)
    V = identity_matrix(C)
    for t in range(min(R, C)):
        while True:
            pivot = min(((abs(x), i, j) for i in range(t, R)
                         for j, x in enumerate(S[i][t:], t) if x),
                        default=None)
            if pivot is None:
                return S, U, V
            _, pi, pj = pivot
            S[t], S[pi] = S[pi], S[t]
            U[t], U[pi] = U[pi], U[t]
            for row in S + V:
                row[t], row[pj] = row[pj], row[t]
            p = S[t][t]
            for i in range(t + 1, R):
                q = S[i][t] // p
                if q:
                    S[i] = [a - q * b for a, b in zip(S[i], S[t])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[t])]
            for j in range(t + 1, C):
                q = S[t][j] // p
                if q:
                    for row in S + V:
                        row[j] -= q * row[t]
            if any(S[i][t] for i in range(t + 1, R)) or any(S[t][t + 1:]):
                continue
            bad = next((i for i in range(t + 1, R)
                        if any(x % p for x in S[i][t + 1:])), None)
            if bad is None:
                break
            S[t] = [a + b for a, b in zip(S[t], S[bad])]
            U[t] = [a + b for a, b in zip(U[t], U[bad])]
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
    return S, U, V


# ---------------------------------------------------------------------------
# echelon forms
# ---------------------------------------------------------------------------

def sparse_rows(rows, ring: RingSpec):
    """Dense rows as sparse dicts column -> nonzero normalized entry."""
    out = []
    for row in rows:
        out.append({j: v for j, v in ((j, ring.normalize(x))
                                      for j, x in enumerate(row))
                    if not ring.is_zero(v)})
    return out


class EchelonBasis:
    """A subspace over a field, grown one vector at a time and kept in
    reduced row echelon form.

    Vectors are sparse dicts column -> nonzero normalized entry.  rows
    maps each pivot column to its row: a 1 at the pivot, the pivot as its
    leading column, and zeros at every other pivot column.  The rows are
    kept fully reduced as vectors come in, so one pass over the pivot
    columns of a vector reduces it.  The vectors that raised the rank
    when added are kept, in order; coordinates() reads a vector in them.
    """

    def __init__(self, ring: RingSpec, vectors=()):
        if not ring.is_field():
            raise ValueError("rref needs a field")
        self.ring = ring
        self.rows = {}
        self.kept = []
        self._inverse = None
        for v in vectors:
            self.add(v)

    def reduce(self, v):
        """The canonical representative of v modulo the span: v minus
        each row times v's entry at its pivot, so zero at every pivot
        column.  Two vectors lie in the same coset iff their reductions
        are equal."""
        v = dict(v)
        rows = self.rows
        for c in [c for c in v if c in rows]:
            add_scaled(v, -v[c], rows[c], self.ring)
        return v

    def add(self, v) -> bool:
        """Add v to the span; True, and v is kept, when the rank rose."""
        ring = self.ring
        r = self.reduce(v)
        if not r:
            return False
        c0 = min(r)
        inv = ring.inv(r[c0])
        r = {k: ring.mul(inv, x) for k, x in sorted(r.items())}
        for other in self.rows.values():
            f = other.get(c0)
            if f is not None:
                add_scaled(other, -f, r, ring)
        self.rows[c0] = r
        self.kept.append(v)
        self._inverse = None
        return True

    def coordinates(self, v):
        """The coefficients x with sum_k x[k] * kept[k] = v, as a list,
        or None when v is outside the span.

        In the span, v is the sum of the rows times its entries at their
        pivots.  Those entries are carried to the kept vectors by the
        inverse of the square matrix of the kept vectors' entries at the
        pivots, computed on first use after the last add."""
        if self.reduce(v):
            return None
        ring = self.ring
        pivots = sorted(self.rows)
        if self._inverse is None:
            k = len(self.kept)
            square = [[u.get(p, ring.zero()) for u in self.kept] + row
                      for p, row in zip(pivots, identity_matrix(k, ring))]
            self._inverse = [row[k:] for row in rref(square, ring)[0]]
        at_pivots = [v.get(p, ring.zero()) for p in pivots]
        return [ring.normalize(sum(a * x for a, x in zip(row, at_pivots)))
                for row in self._inverse]


def rref(rows, ring: RingSpec):
    """Reduced row echelon form over a field; returns (rref_rows, pivot_cols).

    rref_rows has one row per input row: the nonzero reduced rows in pivot
    order, then zero rows."""
    R = len(rows)
    C = len(rows[0]) if R else 0
    basis = EchelonBasis(ring, sparse_rows(rows, ring)).rows
    pivots = sorted(basis)
    A = []
    for p in pivots:
        row = [ring.zero()] * C
        for j, x in basis[p].items():
            row[j] = x
        A.append(row)
    A.extend([ring.zero()] * C for _ in range(R - len(pivots)))
    return A, pivots


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernel_matrix(rows, ring: RingSpec):
    """Basis of ker(A) as a list of column vectors, canonicalized.

    Over a field: RREF null space.  Over Z: the Hermite normal form of the
    kernel lattice.  Over Z/m (m composite): the Howell form of the
    kernel, computed mod m; its rows are the rows of the Hermite basis of
    {u in Z^n : Au = 0 mod m} whose pivot is not m.  Both come from one
    loop, _howell_form.
    """
    R = len(rows)
    C = len(rows[0]) if R else 0
    if C == 0:
        return []
    if R == 0:
        return identity_matrix(C, ring)
    out = []
    for vec in sparse_kernel(sparse_rows(rows, ring), C, ring):
        v = [ring.zero()] * C
        for j, x in vec.items():
            v[j] = x
        out.append(v)
    return out


def sparse_kernel(rows, ncols: int, ring: RingSpec):
    """kernel_matrix for sparse rows (dicts column -> nonzero normalized
    entry) of a matrix with ncols columns.

    Returns the same canonical basis as kernel_matrix, each vector a dict
    column -> nonzero entry in increasing column order.  Zero and repeated
    rows leave the kernel, and so the result, unchanged.
    """
    if ring.is_field():
        basis = EchelonBasis(ring, rows).rows
        vecs = {fc: {fc: ring.one()} for fc in range(ncols)
                if fc not in basis}
        for pc in sorted(basis):
            for fc, x in basis[pc].items():
                if fc != pc:
                    vecs[fc][pc] = ring.neg(x)
        return [dict(sorted(v.items())) for _, v in sorted(vecs.items())]
    R = len(rows)
    return [{j - R: x for j, x in sorted(p.items())}
            for p in _howell_form(rows, ncols, ring)[1]]


def _howell_form(rows, ncols, ring: RingSpec):
    """An echelon form of the row span {(Au, u)} of [column j of A | e_j],
    one row per column j of the sparse rows A, over Z or over Z/m with m
    composite.

    Returns (image, kernel): the pivot rows leading in the A-part and
    those leading in the e-part, each in increasing pivot column and
    still indexed over [A | e].  Together they have the Howell property:
    each pivot d divides m, and the rows leading at column c or later
    span every vector of the span that is zero before c.  So the kernel
    rows span {(0, u) : Au = 0}, and with the entries above each of their
    pivots reduced into [0, d) they are its Howell form, the canonical
    echelon basis (Howell 1986); and reducing (b | 0) by the image rows
    clears the A-part exactly when b is in the image of A.  Over Z the
    loop runs with m = 0: pivots are positive, there is no saturation
    row, and the kernel rows are the Hermite normal form of the kernel
    lattice.

    Columns are processed left to right on a pool of rows keyed by
    leading column.  The rows leading at c are reduced to one: the row
    with the smallest |entry| at c reduces the others by floor division,
    until one row leads at c, and every row that no longer leads at c
    goes back to the pool.  The survivor is scaled by a unit so its pivot
    d is gcd(pivot, m), and over Z/m its multiple (m/d) * row, zero at c,
    goes back to the pool: that saturation row keeps the spanning
    property.  As each pivot of the e-part is fixed, the entries above it
    in the e-part rows are reduced into [0, d).
    """
    m = ring.modulus
    R = len(rows)
    stacked = [{R + j: 1} for j in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            stacked[j][i] = x
    pool = {}

    def push(v):
        if v:
            pool.setdefault(min(v), []).append(v)

    for v in stacked:
        push(v)
    image, kernel = [], []
    for c in range(R + ncols):
        leading = pool.pop(c, None)
        if leading is None:
            continue
        while len(leading) > 1:
            p = min(leading, key=lambda v: abs(v[c]))
            rest = []
            for r in leading:
                if r is not p:
                    add_scaled(r, -(r[c] // p[c]), p, ring)
                    if c in r:
                        rest.append(r)
                    else:
                        push(r)
            leading = rest + [p]
        p = leading[0]
        d, u = _unit_to_gcd(p[c], m)
        if u != 1:
            p = add_scaled({}, u, p, ring)
        if m:
            push(add_scaled({}, m // d, p, ring))
        if c < R:
            image.append(p)
            continue
        for q in kernel:
            f = q.get(c, 0) // d
            if f:
                add_scaled(q, -f, p, ring)
        kernel.append(p)
    return image, kernel


def _unit_to_gcd(a, m):
    """(d, u) with d = gcd(a, m) and u a unit mod m with u*a = d mod m,
    for 0 < a < m; over Z (m = 0), for a nonzero, (|a|, sign of a)."""
    if not m:
        return abs(a), 1 if a > 0 else -1
    d = math.gcd(a, m)
    n = m // d
    u = pow(a // d, -1, n)
    while math.gcd(u, m) != 1:
        u += n
    return d, u


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def solve_matrix(rows, b, ring: RingSpec):
    """One solution x of A x = b over the ring, or None if unsolvable.

    Over a field the free variables are set to zero.  Over Z and Z/m (m
    composite) b is reduced by the Hermite or Howell form of the stacked
    rows [column j of A | e_j]; the solution is the one that reduction
    reads off, not a canonical one.
    """
    R = len(rows)
    C = len(rows[0]) if R else 0
    if len(b) != R:
        raise ValueError("dimension mismatch in solve")
    if C == 0:
        return None if any(not ring.is_zero(x) for x in b) else []
    if ring.is_field():
        aug = [list(row) + [b[i]] for i, row in enumerate(rows)]
        A, pivots = rref(aug, ring)
        for row in A:
            if all(ring.is_zero(x) for x in row[:-1]) and not ring.is_zero(row[-1]):
                return None
        if C in pivots:
            return None
        x = [ring.zero()] * C
        for r_i, pc in enumerate(pivots):
            x[pc] = A[r_i][C]
        return x
    # Z or Z/m, m composite: each image row is (Ay | y) for some y, so
    # reducing (b | 0) by them leaves (b - Ay | -y) for the sum y taken;
    # the A-part clears exactly when b is in the image, and then x = y
    image, _ = _howell_form(sparse_rows(rows, ring), C, ring)
    v = {i: x for i, x in enumerate(map(ring.normalize, b)) if x}
    for p in image:
        c = min(p)
        q = v.get(c, 0) // p[c]
        if q:
            add_scaled(v, -q, p, ring)
    if any(c < R for c in v):
        return None
    return [ring.neg(v.get(R + j, 0)) for j in range(C)]


# ---------------------------------------------------------------------------
# quotients (homology backends)
# ---------------------------------------------------------------------------

def lattice_coordinates(basis, v):
    """The integer coordinates x with sum_j x[j] * basis[j] = v, or None
    when v is outside the lattice the basis spans.

    The vectors are sparse dicts index -> int.  basis must be in row
    echelon form, its vectors' leading indices strictly increasing, as a
    row-Hermite basis is; the coordinates are then unique and one
    back-substitution pass finds them."""
    v = dict(v)
    coords = []
    last = -1
    for b in basis:
        lead = min(b, default=-1)
        if lead <= last:
            raise ValueError("lattice basis is not in row echelon form")
        last = lead
        q, r = divmod(v.get(lead, 0), b[lead])
        if r:
            return None
        if q:
            add_scaled(v, -q, b, ZZ)
        coords.append(q)
    return None if v else coords


def integer_quotient(ker, im):
    """(U, diag): the quotient of the lattice ker spans by the lattice im
    spans, in Smith form.

    Vectors are sparse dicts index -> int; ker must be a row-Hermite
    basis (see lattice_coordinates) and im inside its span.  Each image
    vector is read in kernel coordinates, and the matrix X with those
    coordinates as columns is put in Smith form U X V = S.  U is k x k
    unimodular, and in y = U x coordinates the image is spanned by the
    diag[i] e_i: diag holds the k diagonal entries of S, d1 | d2 | ...,
    with 0 past the image's rank.  So the quotient is the sum of the
    Z/diag[i], Z where diag[i] is 0."""
    k = len(ker)
    coords = []
    for v in im:
        x = lattice_coordinates(ker, v)
        if x is None:
            raise ValueError("image is not contained in the kernel")
        coords.append(x)
    if not coords:
        return identity_matrix(k), [0] * k
    S, U, _ = smith_normal_form_matrix([list(r) for r in zip(*coords)])
    return U, [S[i][i] if i < len(coords) else 0 for i in range(k)]
