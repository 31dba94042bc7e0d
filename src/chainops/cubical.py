"""Cubical modules and their chain-complex normalization.

nc collapses a cubical module to a complex with differential
sum_i (-1)^i (d_i^0 - d_i^1); dnc rebuilds a cubical module from a complex
by adjoining one formal degenerate copy of L_r for every subset of dropped
coordinates, with face actions derived by rewriting faces past degeneracies
through the cube-category relations.  A cubical module builds each face and
degeneracy on first read, so nc builds faces only.
"""

from __future__ import annotations

import itertools

from .complexes import ChainComplex, ChainMap, HOMOLOGICAL, OperatorModule
from .freemod import FreeModule, FreeModuleMap, add_scaled


class CubicalModule(OperatorModule):
    """Graded free modules with faces d_i^c (1 <= i <= n, c in {0,1}) and
    degeneracies s_i (1 <= i <= n+1), keyed ("d", n, i, c) and ("s", n, i)."""

    def face(self, n, i, c) -> FreeModuleMap:
        return self.structure_map(("d", n, i, c))

    def degeneracy(self, n, i) -> FreeModuleMap:
        return self.structure_map(("s", n, i))

# ---------------------------------------------------------------------------
# nc / dnc
# ---------------------------------------------------------------------------

def nc(K: CubicalModule) -> ChainComplex:
    """Complex on the cubical modules with d = sum_i (-1)^i (d_i^0 - d_i^1)."""
    ring = K.ring
    diffs = {}
    for n in sorted(K.modules):
        if n == 0:
            continue
        entries = {}
        for i in range(1, n + 1):
            sign = ring.normalize((-1) ** i)
            for eps, c in ((0, sign), (1, ring.neg(sign))):
                add_scaled(entries, c, K.face(n, i, eps).entries, ring)
        diffs[n] = FreeModuleMap(K.module(n), K.module(n - 1), entries)
    return ChainComplex(ring, dict(K.modules), diffs, HOMOLOGICAL)


def _dnc_label(D, x):
    return x if not D else ("s", D, x)


def dnc(L: ChainComplex, nmax: int) -> CubicalModule:
    """Cubical module with one copy of L_{n-|D|} per dropped-coordinate set D.

    The only nonzero face on a copy of L_r is d_r^0 acting as (-1)^r times
    the differential (the sign makes nc(dnc(L)) restrict to L on the nose on
    the canonical inclusion); faces at dropped coordinates cancel the
    matching degeneracy.  Each face and degeneracy is built by `rule` on
    first read.
    """
    if L.direction != HOMOLOGICAL:
        raise ValueError("homological input required")
    if any(n < 0 for n in L.modules):
        raise ValueError("negative-degree content")
    ring = L.ring
    summands = {}   # n -> list of D (sorted tuples)
    modules = {}
    for n in range(nmax + 1):
        Ds = []
        for k in range(n + 1):
            r = n - k
            if r not in L.modules:
                continue
            Ds.extend(itertools.combinations(range(1, n + 1), k))
        Ds.sort(key=len)
        basis = []
        for D in Ds:
            basis.extend(_dnc_label(D, x) for x in L.module(n - len(D)).basis)
        summands[n] = Ds
        if basis:
            modules[n] = FreeModule(ring, basis)

    def rule(key, src, tgt):
        n, i = key[1], key[2]
        entries = {}
        for D in summands[n]:
            r = n - len(D)
            if key[0] == "s":
                D2 = tuple(sorted((i,) + tuple(j if j < i else j + 1
                                               for j in D)))
            elif i in D:
                D2 = tuple(j if j < i else j - 1 for j in D if j != i)
            else:
                pos = i - sum(1 for j in D if j < i)
                if pos == r and key[3] == 0:
                    D2 = tuple(j if j < i else j - 1 for j in D)
                    sign = ring.normalize((-1) ** r)
                    for (t, s), v in L.differential(r).entries.items():
                        k = (_dnc_label(D2, t), _dnc_label(D, s))
                        entries[k] = ring.add(entries.get(k, ring.zero()),
                                              ring.mul(sign, v))
                continue
            for x in L.module(r).basis:
                entries[(_dnc_label(D2, x), _dnc_label(D, x))] = ring.one()
        return FreeModuleMap(src, tgt, entries)

    return CubicalModule(ring, modules, rule)


def _truncate(L: ChainComplex, nmax: int) -> ChainComplex:
    return ChainComplex(L.ring,
                        {n: m for n, m in L.modules.items() if n <= nmax},
                        {n: d for n, d in L.differentials.items()
                         if n <= nmax},
                        HOMOLOGICAL)


def dnc_inclusion(L: ChainComplex, N: ChainComplex) -> ChainMap:
    """The canonical chain map L -> N = nc(dnc(L)) onto the undegenerate
    copies.

    Together with dnc_projection it splits L off nc(dnc(L)) as a direct
    summand subcomplex: the degenerate copies form the complement (their
    two face flavours cancel in the alternating sum, so they never map
    back into the undegenerate part).
    """
    top = max(N.modules, default=-1)
    comps = {}
    for n in L.modules:
        if n > top:
            continue
        entries = {x: {x: L.ring.one()} for x in L.module(n).basis}
        comps[n] = FreeModuleMap.from_columns(L.module(n), N.module(n),
                                              entries)
    return ChainMap(_truncate(L, top), N, comps)


def dnc_projection(L: ChainComplex, N: ChainComplex) -> ChainMap:
    """N = nc(dnc(L)) -> L, collapsing all degenerate copies; a chain map
    with dnc_projection o dnc_inclusion = id."""
    top = max(N.modules, default=-1)
    comps = {}
    for n in L.modules:
        if n > top:
            continue
        entries = {(x, x): L.ring.one() for x in L.module(n).basis}
        comps[n] = FreeModuleMap(N.module(n), L.module(n), entries)
    return ChainMap(N, _truncate(L, top), comps)
