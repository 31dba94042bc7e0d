"""Simplicial modules and the normalization / denormalization equivalence.

normalize takes the intersection of the kernels of the faces d_i, i >= 1,
with the differential induced by d_0; denormalize rebuilds a simplicial
module from a complex by placing one copy of L_r for every monotone
surjection [n] ->> [r], with operators acting through the epi-mono
factorization of the composed surjection.  The two are exact mutual
inverses on the nose (N o DN = id), which the tests exercise heavily.
A simplicial module builds each face and degeneracy on first read, so
the roundtrip builds faces only.
"""

from __future__ import annotations

import itertools

from .complexes import ChainComplex, HOMOLOGICAL, OperatorModule
from .freemod import FreeModule, FreeModuleMap
from .linalg import solve_matrix, sparse_kernel


class SimplicialModule(OperatorModule):
    """Graded free modules with faces d_0..d_n and degeneracies s_0..s_n,
    keyed ("d", n, i) and ("s", n, i)."""

    def face(self, n, i) -> FreeModuleMap:
        return self.structure_map(("d", n, i))

    def degeneracy(self, n, i) -> FreeModuleMap:
        return self.structure_map(("s", n, i))

# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize(K: SimplicialModule) -> ChainComplex:
    """Kernel-intersection normalization with differential induced by d_0.

    Kernel columns that are unit vectors keep the underlying basis label, so
    the roundtrip normalize(denormalize(L)) reproduces L literally.
    """
    ring = K.ring
    modules = {}
    inclusions = {}
    for n in sorted(K.modules):
        Kn = K.modules[n]
        if n and K.module(n - 1).rank:
            cols = sparse_kernel(_face_rows(K, n), Kn.rank, ring)
        else:
            cols = [{j: ring.one()} for j in range(Kn.rank)]
        if not cols:
            continue
        labels = []
        for idx, col in enumerate(cols):
            if len(col) == 1 and next(iter(col.values())) == ring.one():
                labels.append(Kn.basis[next(iter(col))])
            else:
                labels.append(("N", n, idx))
        Nn = FreeModule(ring, labels)
        modules[n] = Nn
        inclusions[n] = FreeModuleMap.from_columns(
            Nn, Kn,
            {lab: {Kn.basis[j]: v for j, v in col.items()}
             for lab, col in zip(labels, cols)})
    diffs = {}
    for n in sorted(modules):
        if n == 0 or (n - 1) not in modules:
            continue
        prev = inclusions[n - 1].to_matrix()
        Kprev = K.modules[n - 1]
        entries = {}
        for lab in modules[n].basis:
            image = K.face(n, 0).apply(inclusions[n].column(lab))
            b = [image.get(t, ring.zero()) for t in Kprev.basis]
            x = solve_matrix(prev, b, ring)
            if x is None:
                raise ValueError("d_0 does not preserve the normalized part")
            for j, v in enumerate(x):
                v = ring.normalize(v)
                if not ring.is_zero(v):
                    entries[(modules[n - 1].basis[j], lab)] = v
        diffs[n] = FreeModuleMap(modules[n], modules[n - 1], entries)
    return ChainComplex(ring, modules, diffs, HOMOLOGICAL)


def _face_rows(K: SimplicialModule, n):
    """The distinct nonzero rows of the stacked faces d_1..d_n out of
    degree n, as sparse dicts over the degree-n basis positions.

    Zero and repeated rows are dropped: they leave the row space, and so
    the common kernel, unchanged."""
    index = K.module(n).index
    rows = []
    seen = set()
    for i in range(1, n + 1):
        by_target = {}
        for (t, s), c in K.face(n, i).entries.items():
            by_target.setdefault(t, {})[index[s]] = c
        for row in by_target.values():
            key = tuple(sorted(row.items()))
            if key not in seen:
                seen.add(key)
                rows.append(dict(key))
    return rows


# ---------------------------------------------------------------------------
# denormalization
# ---------------------------------------------------------------------------

def surjections(n, r):
    """Monotone surjections [n] ->> [r] as value tuples."""
    out = []
    for S in itertools.combinations(range(n), n - r):
        collapsed = set(S)
        eta = []
        drops = 0
        for t in range(n + 1):
            eta.append(t - drops)
            if t in collapsed:
                drops += 1
        out.append(tuple(eta))
    return out


def _summand_label(eta, r, n, x):
    return x if r == n else ("s", eta, x)


def denormalize(L: ChainComplex, nmax: int) -> SimplicialModule:
    """Inverse of normalize: one copy of L_r per surjection [n] ->> [r].

    Each face and degeneracy is built by _operator_map on first read."""
    if L.direction != HOMOLOGICAL:
        raise ValueError("homological input required")
    if any(n < 0 for n in L.modules):
        raise ValueError("negative-degree content")
    ring = L.ring
    summands = {}   # n -> list of (eta, r)
    modules = {}
    for n in range(nmax + 1):
        pieces = []
        if n in L.modules:
            pieces.append((tuple(range(n + 1)), n))
        for r in sorted(L.modules, reverse=True):
            if r >= n:
                continue
            pieces.extend((eta, r) for eta in surjections(n, r))
        basis = []
        for eta, r in pieces:
            basis.extend(_summand_label(eta, r, n, x)
                         for x in L.module(r).basis)
        summands[n] = pieces
        if basis:
            modules[n] = FreeModule(ring, basis)

    def rule(key, src, tgt):
        kind, n, i = key
        if kind == "d":
            m, phi = n - 1, tuple(t if t < i else t + 1 for t in range(n))
        else:
            m, phi = n + 1, tuple(t if t <= i else t - 1
                                  for t in range(n + 2))
        return _operator_map(L, summands[n], src, tgt, n, m, phi)

    return SimplicialModule(ring, modules, rule)


def _operator_map(L, pieces, src, tgt, n, m, phi):
    """Action of a monotone phi: [m] -> [n] on the surjection-indexed sum.

    eta o phi factors as delta o eta'; the identity injection acts as the
    identity, the injection missing 0 acts through the differential, every
    other injection acts as zero.
    """
    ring = L.ring
    entries = {}
    for eta, r in pieces:
        psi = tuple(eta[phi[t]] for t in range(m + 1))
        vals = set(psi)
        if vals == set(range(r + 1)):
            for x in L.module(r).basis:
                entries[(_summand_label(psi, r, m, x),
                         _summand_label(eta, r, n, x))] = ring.one()
        elif vals == set(range(1, r + 1)):
            eta2 = tuple(v - 1 for v in psi)
            d = L.differential(r)
            for (t, s), c in d.entries.items():
                key = (_summand_label(eta2, r - 1, m, t),
                       _summand_label(eta, r, n, s))
                entries[key] = ring.add(entries.get(key, ring.zero()), c)
    return FreeModuleMap(src, tgt, entries)
