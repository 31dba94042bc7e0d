import contextlib
import itertools
import json
import random
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

import chainops.homology_classes
from chainops.cli import main
from chainops.complexes import ChainComplex, homology
from chainops.dold_kan import _face_rows, denormalize
from chainops.freemod import FreeModule, FreeModuleMap, add_scaled
from chainops.linalg import (
    EchelonBasis,
    integer_quotient,
    kernel_matrix,
    lattice_coordinates,
    rref,
    smith_normal_form_matrix,
    solve_matrix,
    sparse_kernel,
)
from chainops.operads import surjection_operad
from chainops.randomgen import random_chain_complex
from chainops.rings import QQ, ZZ, Zmod
from chainops.simplicial import chains, classifying_space


def mod(ring, basis):
    return FreeModule(ring, basis)


# -- independent oracle: gcd-based elementary reduction to diagonal ----------

def snf_diagonal_oracle(rows):
    """Diagonal invariant factors via repeated naive gcd row/col reduction.

    Independent of the production implementation: no transform tracking,
    pivot order irrelevant to the resulting multiset of invariant factors.
    """
    import math
    A = [list(map(int, r)) for r in rows]
    R = len(A)
    C = len(A[0]) if R else 0
    diag = []
    t = 0
    while t < min(R, C):
        if all(A[i][j] == 0 for i in range(t, R) for j in range(t, C)):
            break
        while True:
            i0, j0 = min(((i, j) for i in range(t, R) for j in range(t, C)
                          if A[i][j] != 0),
                         key=lambda ij: abs(A[ij[0]][ij[1]]))
            A[t], A[i0] = A[i0], A[t]
            for row in A:
                row[t], row[j0] = row[j0], row[t]
            stuck = True
            for i in range(t + 1, R):
                if A[i][t] % A[t][t]:
                    stuck = False
                q = A[i][t] // A[t][t]
                A[i] = [a - q * b for a, b in zip(A[i], A[t])]
            for j in range(t + 1, C):
                if A[t][j] % A[t][t]:
                    stuck = False
                q = A[t][j] // A[t][t]
                for row in A:
                    row[j] -= q * row[t]
            if all(A[i][t] == 0 for i in range(t + 1, R)) and \
               all(A[t][j] == 0 for j in range(t + 1, C)):
                if stuck:
                    break
        # fold in any entry not divisible by the pivot
        bad = [(i, j) for i in range(t + 1, R) for j in range(t + 1, C)
               if A[i][j] % A[t][t] != 0]
        if bad:
            i, j = bad[0]
            for col in range(C):
                A[t][col] += A[i][col]
            continue
        diag.append(abs(A[t][t]))
        t += 1
    return diag


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


class TestSmithNormalForm:
    def test_diag_2_3(self):
        # diag(2,3) -> diag(1,6), oracle-checked
        M = [[2, 0], [0, 3]]
        S, U, V = smith_normal_form_matrix(M)
        assert matmul(matmul(U, M), V) == S
        assert abs(det_unimodular(U)) == 1
        assert abs(det_unimodular(V)) == 1
        assert S == [[1, 0], [0, 6]]
        assert snf_diagonal_oracle(M) == [1, 6]

    def test_identity(self):
        M = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        S, U, V = smith_normal_form_matrix(M)
        assert S == M

    def test_zero(self):
        S, U, V = smith_normal_form_matrix([[0, 0]])
        assert S == [[0, 0]]
        assert matmul(matmul(U, [[0, 0]]), V) == S

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([None, 4, 6, 8, 9, 12]), st.data())
    def test_random_matrices(self, r, c, m, data):
        rows = [[data.draw(st.integers(-3, 3)) for _ in range(c)]
                for _ in range(r)]
        if m is not None:
            # [B | mI], the integer lift the Z/m kernel oracles read
            rows = [[x % m for x in row] + [m if j == i else 0
                                            for j in range(r)]
                    for i, row in enumerate(rows)]
            c += r
        S, U, V = smith_normal_form_matrix(rows)
        # exact factorization
        UM = [[sum(U[i][k] * rows[k][j] for k in range(r)) for j in range(c)]
              for i in range(r)]
        UMV = [[sum(UM[i][k] * V[k][j] for k in range(c)) for j in range(c)]
               for i in range(r)]
        assert UMV == S
        assert abs(det_unimodular(U)) == 1
        assert abs(det_unimodular(V)) == 1
        diag = [S[i][i] for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert S[i][j] == 0
        assert [d for d in diag if d != 0] == snf_diagonal_oracle(rows)

    def test_z4_lift_does_not_stall(self):
        # [A | 4I] grew its entries without bound under the earlier
        # elimination; the invariant factors agree with sympy's
        A = [[0, 0, 0, 0, 0, 3, 0, 2], [0, 3, 0, 2, 3, 3, 0, 0],
             [3, 1, 0, 3, 2, 1, 1, 1], [0, 0, 0, 3, 0, 3, 0, 0],
             [0, 3, 0, 3, 0, 3, 3, 0], [0, 3, 0, 3, 0, 3, 3, 0],
             [0, 0, 0, 0, 0, 0, 0, 0], [2, 0, 0, 2, 3, 0, 2, 3]]
        rows = [row + [4 if j == i else 0 for j in range(8)]
                for i, row in enumerate(A)]
        start = time.perf_counter()
        S, U, V = smith_normal_form_matrix(rows)
        assert time.perf_counter() - start < 1.0
        UM = [[sum(U[i][k] * rows[k][j] for k in range(8))
               for j in range(16)] for i in range(8)]
        assert [[sum(UM[i][k] * V[k][j] for k in range(16))
                 for j in range(16)] for i in range(8)] == S
        assert [S[i][i] for i in range(8)] == [1, 1, 1, 1, 1, 1, 4, 4]
        assert all(S[i][j] == 0 for i in range(8) for j in range(16)
                   if i != j)


class TestSolveLinear:
    def test_divisible(self):
        assert solve_matrix([[2]], [4], ZZ) == [2]

    def test_not_divisible(self):
        assert solve_matrix([[2]], [3], ZZ) is None

    def test_mod3_system(self):
        # [[1,1],[0,1]] x = (2,1) over Z/3 -> (1,1); brute-forced oracle
        ring = Zmod(3)
        sols = []
        for xa in range(3):
            for xb in range(3):
                if ((xa + xb) % 3, xb % 3) == (2, 1):
                    sols.append({"a": xa, "b": xb})
        assert sols == [{"a": 1, "b": 1}]
        assert solve_matrix([[1, 1], [0, 1]], [2, 1], ring) == [1, 1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_small_instance_none_is_real(self, r, c, data):
        # solve_matrix returning a vector means Mx = b exactly; None means
        # exhaustive search over a bounding box confirms no solution (Z/p)
        ring = Zmod(3)
        rows = [[data.draw(st.integers(-3, 3)) for _ in range(c)]
                for _ in range(r)]
        b = [data.draw(st.integers(-3, 3)) for _ in range(r)]
        x = solve_matrix(rows, b, ring)
        import itertools
        brute = None
        for cand in itertools.product(range(3), repeat=c):
            if all(sum(rows[i][j] * cand[j] for j in range(c)) % 3 == b[i] % 3
                   for i in range(r)):
                brute = cand
                break
        if x is None:
            assert brute is None
        else:
            assert all(
                sum(rows[i][j] * x[j] for j in range(c)) % 3 == b[i] % 3
                for i in range(r))

    def test_integer_exactness_random(self):
        rng = random.Random(7)
        for _ in range(40):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            xs = [rng.randint(-3, 3) for _ in range(c)]
            b = [sum(rows[i][j] * xs[j] for j in range(c)) for i in range(r)]
            x = solve_matrix(rows, b, ZZ)
            assert x is not None
            assert [sum(rows[i][j] * x[j] for j in range(c))
                    for i in range(r)] == b

    def test_prime_power_modulus(self):
        ring = Zmod(9)
        x = solve_matrix([[3]], [6], ring)
        assert x is not None and (3 * x[0]) % 9 == 6
        assert solve_matrix([[3]], [1], ring) is None

    @pytest.mark.parametrize("m", (4, 6, 9, 12))
    def test_composite_modulus_matches_brute_force(self, m):
        # None exactly when no x in (Z/m)^c solves Ax = b, found by trying
        # them all; otherwise the answer solves it.  Pivots that are not
        # units need the saturation rows, and b is drawn in the image half
        # of the time so that both outcomes are common
        ring = Zmod(m)
        rng = random.Random(m)
        solved = unsolvable = 0
        for _ in range(300):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[rng.randrange(m) for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.5:
                xs = [rng.randrange(m) for _ in range(c)]
                b = [sum(a * x for a, x in zip(row, xs)) % m
                     for row in rows]
            else:
                b = [rng.randrange(m) for _ in range(r)]
            exists = any(
                all(sum(a * x for a, x in zip(row, cand)) % m == bi
                    for row, bi in zip(rows, b))
                for cand in itertools.product(range(m), repeat=c))
            x = solve_matrix(rows, b, ring)
            assert (x is not None) == exists, (rows, b)
            if x is None:
                unsolvable += 1
                continue
            solved += 1
            assert [sum(a * v for a, v in zip(row, x)) % m
                    for row in rows] == b, (rows, b, x)
        assert solved > 100 and unsolvable > 50


def dense_map(source, target, rows):
    return FreeModuleMap(source, target,
                         {(t, s): rows[i][j]
                          for i, t in enumerate(target.basis)
                          for j, s in enumerate(source.basis)})


class TestCompose:
    @pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(5), QQ])
    def test_matches_dense_product(self, ring):
        # g o f against the product of the dense matrices, summed here;
        # small coefficients make some entries cancel to zero
        rng = random.Random(5)
        cancelled = 0
        for _ in range(40):
            a, b, c = (rng.randint(1, 4) for _ in range(3))
            A = mod(ring, [("a", j) for j in range(a)])
            B = mod(ring, [("b", k) for k in range(b)])
            C = mod(ring, [("c", i) for i in range(c)])
            F = [[ring.normalize(rng.randint(-2, 2)) for _ in range(a)]
                 for _ in range(b)]
            G = [[ring.normalize(rng.randint(-2, 2)) for _ in range(b)]
                 for _ in range(c)]
            want = [[ring.normalize(sum(G[i][k] * F[k][j]
                                        for k in range(b)))
                     for j in range(a)] for i in range(c)]
            got = dense_map(B, C, G).compose(dense_map(A, B, F))
            assert (got.source, got.target) == (A, C)
            assert got.to_matrix() == want
            cancelled += sum(
                1 for i in range(c) for j in range(a)
                if ring.is_zero(want[i][j])
                and any(not ring.is_zero(ring.mul(G[i][k], F[k][j]))
                        for k in range(b)))
        assert cancelled > 0

    def test_mismatched_modules_raise(self):
        f = FreeModuleMap.identity(mod(ZZ, ["a"]))
        with pytest.raises(ValueError):
            FreeModuleMap.identity(mod(ZZ, ["b"])).compose(f)
        with pytest.raises(ValueError):
            FreeModuleMap.identity(mod(Zmod(5), ["a"])).compose(f)


class TestKernelAndQuotient:
    def test_kernel_coordinate_subspace_is_canonical(self):
        # map killing exactly the first two basis vectors
        ring = ZZ
        src = mod(ring, ["a", "b", "c"])
        tgt = mod(ring, ["x"])
        M = FreeModuleMap(src, tgt, {("x", "c"): 1})
        assert kernel_matrix(M.to_matrix(), ring) == [[1, 0, 0], [0, 1, 0]]

    def test_kernel_field(self):
        ring = Zmod(5)
        cols = kernel_matrix([[1, 2, 3]], ring)
        for v in cols:
            assert (v[0] + 2 * v[1] + 3 * v[2]) % 5 == 0
        assert len(cols) == 2

    def test_lattice_coordinates_match_solve(self):
        # back-substitution against a row-Hermite basis gives the unique
        # coordinates solve_matrix finds, and None off the lattice
        rng = random.Random(11)
        members = outside = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            basis = hnf_rows([[rng.randint(-4, 4) for _ in range(n)]
                              for _ in range(rng.randint(1, n))])
            if not basis:
                continue
            K = [list(col) for col in zip(*basis)]
            if rng.random() < 0.5:
                coeffs = [rng.randint(-5, 5) for _ in basis]
                v = [sum(c * b[i] for c, b in zip(coeffs, basis))
                     for i in range(n)]
            else:
                v = [rng.randint(-6, 6) for _ in range(n)]
            want = solve_matrix(K, v, ZZ)
            got = lattice_coordinates([_sparse(b, ZZ) for b in basis],
                                      _sparse(v, ZZ))
            assert got == want
            if got is None:
                outside += 1
            else:
                members += 1
                assert [sum(c * b[i] for c, b in zip(got, basis))
                        for i in range(n)] == v
        assert members > 50 and outside > 50

    def test_lattice_coordinates_need_echelon_basis(self):
        with pytest.raises(ValueError):
            lattice_coordinates([{1: 1}, {0: 1}], {0: 1, 1: 1})
        with pytest.raises(ValueError):
            lattice_coordinates([{}], {})

    def test_integer_quotient_torsion(self):
        # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6 in invariant factors, and
        # in y = U x coordinates the image is spanned by 1 e_0 and 6 e_1
        U, diag = integer_quotient([{0: 1}, {1: 1}], [{0: 2}, {1: 3}])
        assert diag == [1, 6]
        assert abs(det_unimodular(U)) == 1
        # U carries the image (columns 2 e_0, 3 e_1) onto a lattice that
        # diag[i] e_i span: each row i of U X is divisible by diag[i]
        UX = [[2 * row[0], 3 * row[1]] for row in U]
        assert all(x % d == 0 for row, d in zip(UX, diag) for x in row)

    def test_coset_reducer(self):
        # reduction modulo the span of (1, 1, 0) over Z/5
        span = EchelonBasis(Zmod(5), [{0: 1, 1: 1}])
        assert span.reduce({0: 2, 1: 2}) == {}
        assert span.reduce({0: 1, 1: 2}) == {1: 1}


# -- the incremental echelon basis against references ------------------------

FIELDS = (Zmod(2), Zmod(3), Zmod(5), QQ)


def _random_entry(ring, rng):
    if ring is QQ:
        return QQ.normalize(rng.randint(-3, 3)) / rng.randint(1, 3)
    return ring.normalize(rng.randint(0, ring.modulus - 1))


def _random_rows(ring, rng):
    """Dense rows over the ring, some of them combinations of earlier
    ones, so that adding them does not always raise the rank."""
    ncols = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(0, 7)):
        if rows and rng.random() < 0.4:
            coeffs = [_random_entry(ring, rng) for _ in rows]
            rows.append([ring.normalize(sum(c * r[j]
                                            for c, r in zip(coeffs, rows)))
                         for j in range(ncols)])
        else:
            rows.append([_random_entry(ring, rng) if rng.random() < 0.6
                         else ring.zero() for _ in range(ncols)])
    return rows, ncols


def _sparse(v, ring):
    return {j: ring.normalize(x) for j, x in enumerate(v)
            if not ring.is_zero(x)}


def _textbook_coset_reduce(rows, ncols, v, ring):
    """Rank and canonical coset representative modulo the span of rows,
    the way the dense reducer did it: Gauss-Jordan to reduced row echelon
    form, then v minus each row times v's entry at the row's pivot."""
    A = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(A)) if not ring.is_zero(A[i][c])),
                 None)
        if i is None:
            continue
        A[r], A[i] = A[i], A[r]
        inv = ring.inv(A[r][c])
        A[r] = [ring.mul(inv, x) for x in A[r]]
        for k in range(len(A)):
            if k != r and not ring.is_zero(A[k][c]):
                f = A[k][c]
                A[k] = [ring.normalize(x - ring.mul(f, y))
                        for x, y in zip(A[k], A[r])]
        pivots.append(c)
    v = [ring.normalize(x) for x in v]
    for row, p in zip(A, pivots):
        c = v[p]
        if not ring.is_zero(c):
            v = [ring.normalize(x - ring.mul(c, y)) for x, y in zip(v, row)]
    return len(pivots), v


class TestEchelonBasis:
    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_add_raises_rank_as_rref_counts(self, ring):
        rng = random.Random(41)
        rises = stays = 0
        for _ in range(150):
            rows, ncols = _random_rows(ring, rng)
            basis = EchelonBasis(ring)
            for i, row in enumerate(rows):
                before = len(rref(rows[:i], ring)[1]) if i else 0
                after = len(rref(rows[:i + 1], ring)[1])
                assert basis.add(_sparse(row, ring)) == (after > before)
                if after > before:
                    rises += 1
                else:
                    stays += 1
            assert len(basis.kept) == \
                _textbook_coset_reduce(rows, ncols, [0] * ncols, ring)[0]
        assert rises > 100 and stays > 100

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_reduce_matches_dense_coset_reduction(self, ring):
        rng = random.Random(42)
        for _ in range(150):
            rows, ncols = _random_rows(ring, rng)
            basis = EchelonBasis(ring, [_sparse(r, ring) for r in rows])
            for _ in range(3):
                v = [_random_entry(ring, rng) for _ in range(ncols)]
                _, want = _textbook_coset_reduce(rows, ncols, v, ring)
                assert basis.reduce(_sparse(v, ring)) == _sparse(want, ring)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_coordinates_match_solve(self, ring):
        # asked after every add, so a stale inverse would show
        rng = random.Random(43)
        inside = outside = 0
        for _ in range(100):
            rows, ncols = _random_rows(ring, rng)
            basis = EchelonBasis(ring)
            for i, row in enumerate(rows):
                basis.add(_sparse(row, ring))
                K = [[k.get(j, ring.zero()) for k in basis.kept]
                     for j in range(ncols)]
                if rng.random() < 0.5:
                    coeffs = [_random_entry(ring, rng) for _ in rows[:i + 1]]
                    v = [ring.normalize(sum(c * r[j]
                                            for c, r in zip(coeffs, rows)))
                         for j in range(ncols)]
                else:
                    v = [_random_entry(ring, rng) for _ in range(ncols)]
                got = basis.coordinates(_sparse(v, ring))
                assert got == solve_matrix(K, v, ring)
                if got is None:
                    outside += 1
                else:
                    inside += 1
        assert inside > 100 and outside > 100


# -- Z and Z/m kernels against a Smith-form oracle ---------------------------

COMPOSITE = (4, 6, 8, 9, 12, 18, 30, 36)


def det_unimodular(rows):
    """Determinant of a small integer matrix by fraction-free expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    det = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        det += (-1) ** j * rows[0][j] * det_unimodular(minor)
    return det


def hnf_rows(rows):
    """Row-style Hermite normal form of an integer matrix (unique echelon
    with positive pivots and entries above pivots reduced), by dense gcd
    reduction under the same smallest-pivot rule as the package's
    integer eliminations."""
    A = [list(map(int, r)) for r in rows]
    R = len(A)
    C = len(A[0]) if R else 0
    r = 0
    for c in range(C):
        # gcd-reduce column c below row r
        while True:
            nz = [i for i in range(r, R) if A[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(A[i][c]), i))
            A[r], A[i0] = A[i0], A[r]
            done = True
            for i in range(r + 1, R):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    if A[i][c] != 0:
                        done = False
            if done:
                break
        if r < R and A[r][c] != 0:
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
            r += 1
            if r == R:
                break
    A = [row for row in A if any(row)]
    return A


def snf_kernel_oracle(rows, ncols):
    """A Z-basis of the kernel lattice of sparse integer rows, as dense
    rows: the last columns of V in the Smith form U A V = S, past the
    rank."""
    dense = []
    for row in rows:
        v = [0] * ncols
        for j, x in row.items():
            v[j] = int(x)
        dense.append(v)
    S, _, V = smith_normal_form_matrix(dense or [[0] * ncols])
    rank = sum(1 for i in range(min(len(S), ncols)) if S[i][i] != 0)
    return [[V[i][j] for i in range(ncols)] for j in range(rank, ncols)]


def hnf_kernel_oracle(rows, ncols):
    """The Hermite basis of the kernel lattice, as sparse dicts."""
    return [{j: x for j, x in enumerate(v) if x}
            for v in hnf_rows(snf_kernel_oracle(rows, ncols))]


def lift_kernel_oracle(rows, ncols, ring):
    """The kernel over Z/m of sparse rows, read off the integer kernel of
    [A | mI]: each vector projected to the A-part and reduced mod m, the
    nonzero ones deduplicated and ordered by leading column and value."""
    m = ring.modulus
    lifted = [dict(row) for row in rows]
    for i, row in enumerate(lifted):
        row[ncols + i] = m
    found = []
    for vec in hnf_kernel_oracle(lifted, ncols + len(rows)):
        v = [vec.get(j, 0) % m for j in range(ncols)]
        if any(v) and v not in found:
            found.append(v)
    found.sort(key=lambda v: (next(j for j, x in enumerate(v) if x), v))
    return [{j: x for j, x in enumerate(v) if x} for v in found]


def lift_lattice_oracle(d_out, m):
    """The Hermite basis of {u in Z^n : A u = 0 mod m}: the integer kernel
    of [A | mI] projected to the A-part, put in HNF."""
    n = len(d_out[0])
    aug = [{j: x for j, x in enumerate(row) if x} for row in d_out]
    for i, row in enumerate(aug):
        row[n + i] = m
    return hnf_rows([v[:n] for v in
                     snf_kernel_oracle(aug, n + len(d_out))])


def _random_integer_rows(rng):
    """Up to 6 sparse integer rows on up to 7 columns, with zero and
    repeated rows and integer combinations of earlier rows among them."""
    ncols = rng.randint(1, 7)
    rows = []
    for _ in range(rng.randint(0, 6)):
        draw = rng.random()
        if draw < 0.1:
            rows.append({})
        elif draw < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif draw < 0.4 and rows:
            acc = {}
            for row in rows:
                add_scaled(acc, rng.randint(-2, 2), row, ZZ)
            rows.append(acc)
        else:
            row = {j: rng.randint(-6, 6) for j in range(ncols)
                   if rng.random() < 0.5}
            rows.append({j: x for j, x in row.items() if x})
    return rows, ncols


class TestIntegerKernel:
    """The Z kernel, the Howell-form loop at m = 0, equals the Hermite
    form of the kernel lattice read off the Smith form."""

    def test_random_rows_match_the_smith_form(self):
        rng = random.Random(17)
        non_unit_pivots = negative = 0
        for _ in range(600):
            rows, ncols = _random_integer_rows(rng)
            got = sparse_kernel(rows, ncols, ZZ)
            assert got == hnf_kernel_oracle(rows, ncols), (rows, ncols)
            non_unit_pivots += sum(v[min(v)] != 1 for v in got)
            negative += sum(x < 0 for v in got for x in v.values())
        assert non_unit_pivots > 20 and negative > 100

    def test_dold_kan_face_rows_match_the_smith_form(self):
        rng = random.Random(3)
        compared = 0
        for _ in range(6):
            L = random_chain_complex(ZZ, 4, 3, rng)
            K = denormalize(L, max(L.modules, default=0) + 1)
            for n in sorted(K.modules):
                if n and K.module(n - 1).rank:
                    rows = _face_rows(K, n)
                    ncols = K.module(n).rank
                    assert sparse_kernel(rows, ncols, ZZ) == \
                        hnf_kernel_oracle(rows, ncols)
                    compared += 1
        assert compared > 10


@contextlib.contextmanager
def within(seconds):
    """Fail with TimeoutError once the block has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestIntegerKernelCoefficients:
    """Kernels over Z the size of the built-in spaces' and the surjection
    operad's differentials: merging the rows that lead in a column by
    extended-gcd multipliers made their integers grow without bound
    (over 100 s for the BZ/5 request below), while the smallest-entry
    pivot rule takes milliseconds."""

    SECONDS = 5

    @pytest.mark.parametrize("name", ("bz5-d3", "surjection-level3-d3"))
    def test_kernel_matches_the_smith_form(self, name):
        C = (chains(classifying_space(5, 3), ZZ) if name == "bz5-d3"
             else surjection_operad(3, ZZ, 3).level(3))
        A = C.differential(3).to_matrix()
        with within(self.SECONDS):
            got = kernel_matrix(A, ZZ)
        rows = [{j: x for j, x in enumerate(row) if x} for row in A]
        assert got == hnf_rows(snf_kernel_oracle(rows, len(A[0])))
        assert len(got) == {"bz5-d3": 52, "surjection-level3-d3": 61}[name]

    def test_bz5_homology_over_z(self, capsys):
        with within(self.SECONDS):
            code = main(["homology", "--space", "bz5", "--dim", "3",
                         "--ring", "Z"])
        assert code == 0
        groups = {r["degree"]: r["group"]
                  for r in json.loads(capsys.readouterr().out)["results"]}
        assert groups == {0: "Z", 1: "Z/5", 2: "0", 3: "Z^52"}


def _random_zmod_rows(m, rng):
    """Up to 6 sparse rows over Z/m on up to 6 columns, with zero and
    repeated rows among them."""
    ncols = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(0, 6)):
        draw = rng.random()
        if draw < 0.15:
            rows.append({})
        elif draw < 0.3 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            rows.append({j: rng.randrange(1, m) for j in range(ncols)
                         if rng.random() < 0.5})
    return rows, ncols


class TestCompositeKernel:
    """The Howell-form kernel over Z/m, m composite, equals the kernel
    read off the integer lift [A | mI] it replaced."""

    @pytest.mark.parametrize("m", COMPOSITE)
    def test_random_rows_match_the_lift(self, m):
        ring = Zmod(m)
        rng = random.Random(m)
        non_unit_pivots = 0
        for _ in range(250):
            rows, ncols = _random_zmod_rows(m, rng)
            got = sparse_kernel(rows, ncols, ring)
            assert got == lift_kernel_oracle(rows, ncols, ring), (rows, ncols)
            non_unit_pivots += sum(v[min(v)] != 1 for v in got)
        assert non_unit_pivots > 20

    @pytest.mark.parametrize("m", (4, 6))
    def test_dold_kan_face_rows_match_the_lift(self, m):
        ring = Zmod(m)
        rng = random.Random(m)
        compared = 0
        for _ in range(4):
            L = random_chain_complex(ring, 4, 3, rng)
            K = denormalize(L, max(L.modules, default=0) + 1)
            for n in sorted(K.modules):
                if n and K.module(n - 1).rank:
                    rows = _face_rows(K, n)
                    ncols = K.module(n).rank
                    assert sparse_kernel(rows, ncols, ring) == \
                        lift_kernel_oracle(rows, ncols, ring)
                    compared += 1
        assert compared > 10

    @pytest.mark.parametrize("m", (4, 6, 8, 9, 12, 18, 30))
    def test_homology_kernel_lattice_matches_the_lift(self, m, monkeypatch):
        # the kernel lattice HomologySpace hands to integer_quotient, as
        # dense rows
        ring = Zmod(m)
        rng = random.Random(100 + m)
        lattices = []
        real = chainops.homology_classes.integer_quotient
        monkeypatch.setattr(
            chainops.homology_classes, "integer_quotient",
            lambda ker, im: (lattices.append(
                [[v.get(j, 0) for j in range(len(ker))] for v in ker]),
                real(ker, im))[1])
        for _ in range(150):
            rows, ncols = _random_zmod_rows(m, rng)
            if not rows:
                continue
            d_out = [[row.get(j, 0) for j in range(ncols)] for row in rows]
            src = FreeModule(ring, [("u", j) for j in range(ncols)])
            tgt = FreeModule(ring, [("w", i) for i in range(len(rows))])
            d = FreeModuleMap(src, tgt, {(("w", i), ("u", j)): x
                                         for i, row in enumerate(rows)
                                         for j, x in row.items()})
            C = ChainComplex(ring, {1: src, 0: tgt}, {1: d})
            lattices.clear()
            H = homology(C, 1)
            want = (lift_lattice_oracle(d_out, m) if not d.is_zero()
                    else [[int(i == j) for j in range(ncols)]
                          for i in range(ncols)])
            assert lattices == [want], d_out
            _, diag = real([_sparse(v, ZZ) for v in want],
                           [{j: m} for j in range(ncols)])
            free, div = diag.count(0), [d for d in diag if d > 1]
            assert (H.free_rank, H.divisors) == (free, tuple(div))
