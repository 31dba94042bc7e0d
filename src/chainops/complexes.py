"""Bounded chain/cochain complexes, tensor products, total complexes, homology.

Complexes are stored degree-sparsely: degrees absent from the module table
are zero.  The internal canonical direction is homological (differential of
degree -1); cohomological complexes carry an orientation flag and `reindex`
is the single conversion point between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freemod import FreeModule, FreeModuleMap, tensor_map
from .linalg import (hnf_rows, identity_matrix, integer_quotient,
                     kernel_matrix, rref)
from .rings import RingSpec, ZZ

HOMOLOGICAL = "homological"
COHOMOLOGICAL = "cohomological"


class ChainComplex:
    """Graded family of free modules with a degree -1 (or +1) differential.

    `modules` maps degree -> FreeModule; `differentials` maps degree n to
    the map out of degree n (towards n-1 when homological, n+1 when
    cohomological).  Finite support is enforced by construction.
    """

    def __init__(self, ring: RingSpec, modules, differentials=None,
                 direction=HOMOLOGICAL):
        if direction not in (HOMOLOGICAL, COHOMOLOGICAL):
            raise ValueError(f"bad direction {direction!r}")
        self.ring = ring
        self.direction = direction
        self.modules = {n: m for n, m in modules.items() if m.rank > 0}
        for m in self.modules.values():
            if m.ring != ring:
                raise ValueError("module ring mismatch")
        self.differentials = {}
        step = -1 if direction == HOMOLOGICAL else 1
        for n, d in (differentials or {}).items():
            if d.is_zero():
                continue
            if d.source != self.module(n) or d.target != self.module(n + step):
                raise ValueError(f"differential at degree {n} does not match modules")
            self.differentials[n] = d

    @property
    def step(self):
        return -1 if self.direction == HOMOLOGICAL else 1

    def module(self, n) -> FreeModule:
        return self.modules.get(n, FreeModule(self.ring, []))

    def differential(self, n) -> FreeModuleMap:
        d = self.differentials.get(n)
        if d is None:
            return FreeModuleMap.zero(self.module(n), self.module(n + self.step))
        return d

    def support(self):
        return sorted(set(self.modules) | set(self.differentials))

    def degrees(self):
        if not self.modules:
            return range(0)
        lo = min(self.modules)
        hi = max(self.modules)
        return range(lo, hi + 1)

    def __eq__(self, other):
        return (isinstance(other, ChainComplex)
                and self.ring == other.ring
                and self.direction == other.direction
                and self.modules == other.modules
                and self.differentials == other.differentials)

    def __repr__(self):
        ranks = {n: self.modules[n].rank for n in sorted(self.modules)}
        return f"ChainComplex({self.ring}, {self.direction}, ranks {ranks})"


def unit_complex(ring: RingSpec, direction=HOMOLOGICAL) -> ChainComplex:
    """The monoidal unit: the ring in degree 0."""
    return ChainComplex(ring, {0: FreeModule(ring, [("unit",)])},
                        direction=direction)


def verify_differential(C: ChainComplex):
    """Degrees where d o d != 0 (empty list = valid complex)."""
    bad = []
    for n in sorted(set(C.modules) | set(C.differentials)):
        second = C.differential(n + C.step)
        if not second.compose(C.differential(n)).is_zero():
            bad.append(n)
    return bad


@dataclass(frozen=True)
class HomologyGroup:
    ring: RingSpec
    free_rank: int
    divisors: tuple

    def is_zero(self):
        return self.free_rank == 0 and not self.divisors

    def __str__(self):
        if self.ring.is_field():
            return f"{self.ring}^{self.free_rank}"
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.divisors)
        return " + ".join(parts) if parts else "0"


def homology(C: ChainComplex, n: int) -> HomologyGroup:
    """H_n (or H^n) = ker(d out of degree n) / im(d into degree n)."""
    ring = C.ring
    into = n - C.step
    d_out = C.differential(n).to_matrix()
    d_in = C.differential(into)
    dim_n = C.module(n).rank
    if dim_n == 0:
        return HomologyGroup(ring, 0, ())
    im_cols = []
    mat_in = d_in.to_matrix()
    for j in range(d_in.source.rank):
        col = [mat_in[i][j] for i in range(dim_n)]
        if any(not ring.is_zero(x) for x in col):
            im_cols.append(col)
    zero_out = not d_out or C.differential(n).is_zero()
    if ring.is_field():
        ker_dim = dim_n if zero_out else len(kernel_matrix(d_out, ring))
        rank_im = len(rref([list(c) for c in zip(*im_cols)], ring)[1]) if im_cols else 0
        return HomologyGroup(ring, ker_dim - rank_im, ())
    if ring.kind == "Z":
        ker_cols = (identity_matrix(dim_n) if zero_out
                    else kernel_matrix(d_out, ring))
        free, div = integer_quotient(ker_cols, im_cols)
        return HomologyGroup(ring, free, tuple(div))
    # Z/m with m composite: work with integer lattices containing m Z^dim
    m = ring.modulus
    lifted_out = [[int(x) for x in row] for row in d_out]
    R = len(lifted_out)
    aug = [row + [m if j == i else 0 for j in range(R)]
           for i, row in enumerate(lifted_out)]
    if R and not zero_out:
        ker_cols = hnf_rows([v[:dim_n] for v in kernel_matrix(aug, ZZ)])
    else:
        ker_cols = identity_matrix(dim_n)
    im_lifted = [[int(x) for x in col] for col in im_cols]
    im_lifted += [[m * x for x in e] for e in identity_matrix(dim_n)]
    free, div = integer_quotient(ker_cols, im_lifted)
    return HomologyGroup(ring, free, tuple(div))


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------

class ChainMap:
    """Degree-preserving map of complexes, one FreeModuleMap per degree."""

    def __init__(self, source: ChainComplex, target: ChainComplex, components):
        if source.ring != target.ring or source.direction != target.direction:
            raise ValueError("chain map needs matching ring and direction")
        self.source = source
        self.target = target
        self.components = {n: f for n, f in components.items() if not f.is_zero()}
        for n, f in self.components.items():
            if f.source != source.module(n) or f.target != target.module(n):
                raise ValueError(f"component at degree {n} does not match modules")

    def component(self, n) -> FreeModuleMap:
        f = self.components.get(n)
        if f is None:
            return FreeModuleMap.zero(self.source.module(n), self.target.module(n))
        return f

    def commutes_with_differential(self):
        degs = set(self.source.modules) | set(self.target.modules)
        step = self.source.step
        for n in sorted(degs):
            lhs = self.target.differential(n).compose(self.component(n))
            rhs = self.component(n + step).compose(self.source.differential(n))
            if lhs != rhs:
                return False
        return True

    def compose(self, first: "ChainMap") -> "ChainMap":
        degs = set(self.components) | set(first.components)
        return ChainMap(first.source, self.target,
                        {n: self.component(n).compose(first.component(n))
                         for n in degs})

    def __eq__(self, other):
        return (isinstance(other, ChainMap)
                and self.source == other.source and self.target == other.target
                and self.components == other.components)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def tensor_complexes(C: ChainComplex, D: ChainComplex) -> ChainComplex:
    """Tensor product with the Koszul rule d(a@b) = da@b + (-1)^|a| a@db."""
    if C.ring != D.ring:
        raise ValueError("ring mismatch")
    if C.direction != D.direction:
        raise ValueError("direction mismatch")
    ring = C.ring
    step = C.step
    pieces = {}   # n -> list of (i, j)
    for i in C.modules:
        for j in D.modules:
            pieces.setdefault(i + j, []).append((i, j))
    modules = {}
    for n, ps in pieces.items():
        basis = []
        for (i, j) in sorted(ps):
            basis.extend((a, b) for a in C.module(i).basis
                         for b in D.module(j).basis)
        modules[n] = FreeModule(ring, basis)
    diffs = {}
    for n, ps in pieces.items():
        src = modules[n]
        tgt_n = n + step
        tgt = modules.get(tgt_n)
        if tgt is None:
            continue
        entries = {}
        for (i, j) in sorted(ps):
            dC = C.differential(i)
            dD = D.differential(j)
            sign = ring.normalize(-1) if i % 2 else ring.one()
            for a in C.module(i).basis:
                for b in D.module(j).basis:
                    for (t, s), c in dC.entries.items():
                        if s == a:
                            entries[((t, b), (a, b))] = ring.add(
                                entries.get(((t, b), (a, b)), ring.zero()), c)
                    for (t, s), c in dD.entries.items():
                        if s == b:
                            key = ((a, t), (a, b))
                            entries[key] = ring.add(
                                entries.get(key, ring.zero()), ring.mul(sign, c))
        diffs[n] = FreeModuleMap(src, tgt, entries)
    return ChainComplex(ring, modules, diffs, C.direction)


def koszul_swap(C: ChainComplex, D: ChainComplex) -> ChainMap:
    """The signed symmetry C@D -> D@C, a@b -> (-1)^{|a||b|} b@a."""
    CD = tensor_complexes(C, D)
    DC = tensor_complexes(D, C)
    ring = C.ring
    comps = {}
    for n in CD.modules:
        entries = {}
        for i in C.modules:
            j = n - i
            if j not in D.modules:
                continue
            sign = ring.normalize((-1) ** (i * j))
            for a in C.module(i).basis:
                for b in D.module(j).basis:
                    entries[((b, a), (a, b))] = sign
        comps[n] = FreeModuleMap(CD.module(n), DC.module(n), entries)
    return ChainMap(CD, DC, comps)


class Multicomplex:
    """k-fold graded family with k commuting differentials of degree -1."""

    def __init__(self, ring: RingSpec, arity: int, modules, differentials):
        self.ring = ring
        self.arity = arity
        self.modules = {idx: m for idx, m in modules.items() if m.rank > 0}
        for idx in self.modules:
            if len(idx) != arity or any(i < 0 for i in idx):
                raise ValueError(f"bad multidegree {idx}")
        # differentials[i] maps multidegree -> map lowering index i by one
        self.differentials = [dict(d) for d in differentials]
        if len(self.differentials) != arity:
            raise ValueError("need one differential family per axis")

    def module(self, idx) -> FreeModule:
        return self.modules.get(idx, FreeModule(self.ring, []))

    def differential(self, axis, idx) -> FreeModuleMap:
        d = self.differentials[axis].get(idx)
        if d is None:
            lower = tuple(v - 1 if a == axis else v for a, v in enumerate(idx))
            return FreeModuleMap.zero(self.module(idx), self.module(lower))
        return d

    def verify(self):
        """Check d_i d_i = 0 and d_i d_j = d_j d_i; returns mismatch list."""
        bad = []
        for idx in sorted(self.modules):
            for i in range(self.arity):
                low_i = tuple(v - 1 if a == i else v for a, v in enumerate(idx))
                if not self.differential(i, low_i).compose(
                        self.differential(i, idx)).is_zero():
                    bad.append(("square", i, idx))
                for j in range(i + 1, self.arity):
                    low_j = tuple(v - 1 if a == j else v for a, v in enumerate(idx))
                    ij = self.differential(i, low_j).compose(self.differential(j, idx))
                    ji = self.differential(j, low_i).compose(self.differential(i, idx))
                    if ij != ji:
                        bad.append(("commute", (i, j), idx))
        return bad


def tot(M: Multicomplex) -> ChainComplex:
    """Total complex with the sign rule
    d = d_1 + (-1)^{n_1+n_2} d_2 + ... + (-1)^{n_1+...+n_k} d_k."""
    bad = M.verify()
    if bad:
        raise ValueError(f"invalid multicomplex: {bad[:3]}")
    ring = M.ring
    layers = {}
    for idx in M.modules:
        layers.setdefault(sum(idx), []).append(idx)
    modules = {}
    for n, idxs in layers.items():
        basis = []
        for idx in sorted(idxs):
            basis.extend((idx, b) for b in M.module(idx).basis)
        modules[n] = FreeModule(ring, basis)
    diffs = {}
    for n, idxs in layers.items():
        if (n - 1) not in modules:
            continue
        entries = {}
        for idx in sorted(idxs):
            for axis in range(M.arity):
                if axis == 0:
                    sign = ring.one()
                else:
                    sign = ring.normalize((-1) ** sum(idx[:axis + 1]))
                d = M.differential(axis, idx)
                low = tuple(v - 1 if a == axis else v for a, v in enumerate(idx))
                for (t, s), c in d.entries.items():
                    key = ((low, t), (idx, s))
                    entries[key] = ring.add(entries.get(key, ring.zero()),
                                            ring.mul(sign, c))
        diffs[n] = FreeModuleMap(modules[n], modules[n - 1], entries)
    return ChainComplex(ring, modules, diffs, HOMOLOGICAL)


def tensor_as_multicomplex(C: ChainComplex, D: ChainComplex) -> Multicomplex:
    """The arity-2 multicomplex {C_i @ D_j} with unsigned axis differentials."""
    ring = C.ring
    modules = {}
    d1 = {}
    d2 = {}
    for i in C.modules:
        for j in D.modules:
            modules[(i, j)] = C.module(i).tensor(D.module(j))
    for (i, j) in modules:
        if (i - 1, j) in modules or not C.differential(i).is_zero():
            d = tensor_map(C.differential(i), FreeModuleMap.identity(D.module(j)))
            if not d.is_zero():
                d1[(i, j)] = d
        if (i, j - 1) in modules or not D.differential(j).is_zero():
            d = tensor_map(FreeModuleMap.identity(C.module(i)), D.differential(j))
            if not d.is_zero():
                d2[(i, j)] = d
    return Multicomplex(ring, 2, modules, [d1, d2])


def reindex(C: ChainComplex) -> ChainComplex:
    """Flip direction via C^n = C_{-n}; an involution."""
    new_dir = COHOMOLOGICAL if C.direction == HOMOLOGICAL else HOMOLOGICAL
    modules = {-n: m for n, m in C.modules.items()}
    diffs = {-n: d for n, d in C.differentials.items()}
    return ChainComplex(C.ring, modules, diffs, new_dir)


def shift(C: ChainComplex, k: int) -> ChainComplex:
    """C[k]_n = C_{n+k}, differential scaled by (-1)^k."""
    ring = C.ring
    sign = ring.normalize((-1) ** k)
    modules = {n - k: m for n, m in C.modules.items()}
    diffs = {n - k: d.scale(sign) for n, d in C.differentials.items()}
    return ChainComplex(ring, modules, diffs, C.direction)
