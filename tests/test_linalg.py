import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from chainops.freemod import FreeModule, FreeModuleMap, tensor_map
from chainops.linalg import (
    CosetReducer,
    det_unimodular,
    hnf_rows,
    integer_quotient,
    kernel,
    kernel_matrix,
    lattice_coordinates,
    smith_normal_form,
    smith_normal_form_matrix,
    solve_linear,
    solve_matrix,
)
from chainops.rings import QQ, ZZ, Zmod


def mod(ring, basis):
    return FreeModule(ring, basis)


def diag_map(ring, diag):
    n = len(diag)
    src = mod(ring, [("s", i) for i in range(n)])
    tgt = mod(ring, [("t", i) for i in range(n)])
    return FreeModuleMap(src, tgt, {(("t", i), ("s", i)): d
                                    for i, d in enumerate(diag)})


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


class TestSmithNormalForm:
    def test_diag_2_3(self):
        # diag(2,3) -> diag(1,6), oracle-checked
        M = diag_map(ZZ, [2, 3])
        S, U, V = smith_normal_form(M)
        assert U.compose(M).compose(V) == S
        rows = S.to_matrix()
        assert [rows[i][i] for i in range(2)] == [1, 6]
        assert snf_diagonal_oracle(M.to_matrix()) == [1, 6]

    def test_identity(self):
        M = diag_map(ZZ, [1, 1, 1])
        S, U, V = smith_normal_form(M)
        assert S.to_matrix() == M.to_matrix()

    def test_zero(self):
        src = mod(ZZ, ["a", "b"])
        tgt = mod(ZZ, ["x"])
        M = FreeModuleMap.zero(src, tgt)
        S, U, V = smith_normal_form(M)
        assert S.is_zero()

    def test_rejects_non_integer_ring(self):
        M = diag_map(QQ, [1])
        with pytest.raises(ValueError):
            smith_normal_form(M)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([None, 4, 6, 8, 9, 12]), st.data())
    def test_random_matrices(self, r, c, m, data):
        rows = [[data.draw(st.integers(-3, 3)) for _ in range(c)]
                for _ in range(r)]
        if m is not None:
            # [B | mI], the matrix a Z/m kernel is lifted to
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
        M = diag_map(ZZ, [2])
        x = solve_linear(M, {("t", 0): 4})
        assert x == {("s", 0): 2}

    def test_not_divisible(self):
        M = diag_map(ZZ, [2])
        assert solve_linear(M, {("t", 0): 3}) is None

    def test_mod3_system(self):
        # [[1,1],[0,1]] x = (2,1) over Z/3 -> (1,1); brute-forced oracle
        ring = Zmod(3)
        src = mod(ring, ["a", "b"])
        tgt = mod(ring, ["x", "y"])
        M = FreeModuleMap(src, tgt, {("x", "a"): 1, ("x", "b"): 1,
                                     ("y", "b"): 1})
        sols = []
        for xa in range(3):
            for xb in range(3):
                if ((xa + xb) % 3, xb % 3) == (2, 1):
                    sols.append({"a": xa, "b": xb})
        assert sols == [{"a": 1, "b": 1}]
        assert solve_linear(M, {"x": 2, "y": 1}) == {"a": 1, "b": 1}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_small_instance_none_is_real(self, r, c, data):
        # solve_linear returning a vector means Mx = b exactly; None means
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


class TestTensorMap:
    def test_identities(self):
        id2 = FreeModuleMap.identity(mod(ZZ, ["a", "b"]))
        id3 = FreeModuleMap.identity(mod(ZZ, ["x", "y", "z"]))
        t = tensor_map(id2, id3)
        assert t == FreeModuleMap.identity(id2.source.tensor(id3.source))

    def test_zero(self):
        z = FreeModuleMap.zero(mod(ZZ, ["a"]), mod(ZZ, ["b"]))
        g = diag_map(ZZ, [5])
        assert tensor_map(z, g).is_zero()

    def test_diag_2_3(self):
        f = diag_map(ZZ, [2])
        g = diag_map(ZZ, [3])
        t = tensor_map(f, g)
        # expanded by hand: single pair basis element scaled by 6
        assert t.entries == {((("t", 0), ("t", 0)), (("s", 0), ("s", 0))): 6}

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_functorial(self, data):
        def rand_map(src, tgt):
            return FreeModuleMap(src, tgt,
                                 {(t, s): data.draw(st.integers(-2, 2))
                                  for t in tgt.basis for s in src.basis})
        a = mod(ZZ, ["a0", "a1"])
        b = mod(ZZ, ["b0", "b1"])
        c = mod(ZZ, ["c0"])
        f, fp = rand_map(b, c), rand_map(a, b)
        g, gp = rand_map(b, a), rand_map(c, b)
        lhs = tensor_map(f.compose(fp), g.compose(gp))
        rhs = tensor_map(f, g).compose(tensor_map(fp, gp))
        assert lhs == rhs


class TestKernelAndQuotient:
    def test_kernel_coordinate_subspace_is_canonical(self):
        # map killing exactly the first two basis vectors
        ring = ZZ
        src = mod(ring, ["a", "b", "c"])
        tgt = mod(ring, ["x"])
        M = FreeModuleMap(src, tgt, {("x", "c"): 1})
        K = kernel(M)
        assert K.to_matrix() == [[1, 0], [0, 1], [0, 0]]

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
            got = lattice_coordinates(basis, v)
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
            lattice_coordinates([[0, 1], [1, 0]], [1, 1])
        with pytest.raises(ValueError):
            lattice_coordinates([[0, 0]], [0, 0])

    def test_integer_quotient_torsion(self):
        # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6 in invariant factors
        free, div = integer_quotient([[1, 0], [0, 1]], [[2, 0], [0, 3]])
        assert free == 0 and div == [6]

    def test_coset_reducer(self):
        ring = Zmod(5)
        red = CosetReducer(ring, [[1, 1, 0]], 3)
        a = red.reduce([2, 2, 0])
        assert a == [0, 0, 0]
        assert red.reduce([1, 2, 0]) != [0, 0, 0]
