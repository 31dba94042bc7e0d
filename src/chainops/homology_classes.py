"""Homology groups and explicit homology classes: the group's divisors,
cycle generators, canonical class coordinates and equality of classes,
over Q, Z/p, Z and Z/m with m composite.

HomologySpace is the one quotient routine: complexes.homology reads its
group off the divisors.  The kernel is read from the rows of the
differential out of degree n and the image from the columns of the
differential into it, both straight from the maps' sparse entries.  A
group needs no generators, so they are built on first use.

Over a field the rank is dim ker - rank im, the kernel coming from
linalg.sparse_kernel and the image from an incremental echelon basis
(linalg.EchelonBasis).  A second echelon basis is fed each kernel vector
reduced modulo the image, so a vector becomes a generator exactly when
it raises the rank of the reductions kept so far; a class's coordinates
are those of its reduction in the kept reductions.

Over Z, and over Z/m with m composite, the quotient is one of integer
lattices.  The kernel lattice's Hermite basis is the integral kernel;
over Z/m it is {u in Z^n : A u = 0 mod m}, whose Hermite basis is the
Howell form of the kernel mod m with m e_c at each column c where it has
no pivot, and m Z^n joins the image.  linalg.integer_quotient puts the
image lattice in Smith form inside kernel coordinates, and class
coordinates are canonicalized by division with remainder (so torsion
classes come out reduced mod their divisors).
"""

from __future__ import annotations

import functools
import itertools

from .freemod import add_scaled
from .linalg import (EchelonBasis, identity_matrix, integer_quotient,
                     lattice_coordinates, rref, sparse_kernel)
from .rings import QQ


class HomologySpace:
    """H_n of a complex, its divisors and, on first use, chosen cycle
    generators.

    divisors: one entry per class coordinate, 0 for a coordinate in the
    ring itself (every coordinate over a field, a Z over Z) and d > 1 for
    a Z/d.  Over Z the d > 1 come first, each dividing the next.
    generators: one cycle per class coordinate, each a sparse dict
    basis index -> coefficient over the degree-n basis.
    class_vector(v) maps a cycle to canonical coordinates over the
    generators; two cycles are homologous iff their coordinates agree.
    """

    def __init__(self, C, n: int):
        ring = C.ring
        self.complex = C
        self.degree = n
        self.ring = ring
        module = C.module(n)
        self.basis = module.basis
        self._index = index = module.index
        rows = {}
        for (t, s), x in C.differential(n).entries.items():
            rows.setdefault(t, {})[index[s]] = x
        d_in = C.differential(n - C.step)
        cols = {}
        for (t, s), x in d_in.entries.items():
            cols.setdefault(s, {})[index[t]] = x
        ker = sparse_kernel(list(rows.values()), module.rank, ring)
        im = [cols[s] for s in d_in.source.basis if s in cols]
        if ring.is_field():
            self._ker = ker
            self._image = EchelonBasis(ring, im)
            self.divisors = (0,) * (len(ker) - len(self._image.rows))
            return
        # in y = U x coordinates the image lattice is spanned by d_i e_i,
        # so the quotient splits as a direct sum of Z/d_i and Z factors
        m = ring.modulus
        if m:
            lead = {min(v): v for v in ker}
            ker = [lead.get(c, {c: m}) for c in range(module.rank)]
            im += [{c: m} for c in range(module.rank)]
        self._ker = ker
        self._U, diag = integer_quotient(ker, im)
        self._coord_idx = [i for i, d in enumerate(diag) if d != 1]
        self.divisors = tuple(diag[i] for i in self._coord_idx)

    @property
    def rank(self):
        return len(self.divisors)

    @functools.cached_property
    def _classes(self):
        # over a field: the echelon basis of the kept reductions, and the
        # kernel vectors whose reductions raised its rank
        classes = EchelonBasis(self.ring)
        return classes, [v for v in self._ker
                         if classes.add(self._image.reduce(v))]

    @functools.cached_property
    def generators(self):
        if self.ring.is_field():
            return self._classes[1]
        # generator i is ker . (U^{-1} e_i); U is unimodular, so its
        # inverse over Q is integral
        k = len(self._ker)
        inv = [[int(x) for x in row[k:]] for row in
               rref([u + e for u, e in zip(self._U, identity_matrix(k))],
                    QQ)[0]]
        gens = []
        for i in self._coord_idx:
            acc = {}
            for row, v in zip(inv, self._ker):
                if row[i]:
                    add_scaled(acc, row[i], v, self.ring)
            gens.append(dict(sorted(acc.items())))
        return gens

    def is_cycle(self, vector):
        d = self.complex.differential(self.degree)
        return all(self.ring.is_zero(c) for c in d.apply(vector).values())

    def class_vector(self, vector):
        """Canonical coordinates of the class of a cycle, or None if the
        input is not a cycle.  vector: dict basis label -> coefficient."""
        if not self.is_cycle(vector):
            return None
        ring = self.ring
        v = {}
        for b, x in vector.items():
            x = ring.normalize(x)
            if b in self._index and not ring.is_zero(x):
                v[self._index[b]] = x
        if ring.is_field():
            x = self._classes[0].coordinates(self._image.reduce(v))
            if x is None:
                raise ValueError("cycle outside the computed kernel")
            return tuple(x)
        x = lattice_coordinates(self._ker, v)
        if x is None:
            raise ValueError("cycle outside the computed kernel")
        out = []
        for i, d in zip(self._coord_idx, self.divisors):
            y = sum(u * c for u, c in zip(self._U[i], x))
            out.append(y % d if d else y)
        return tuple(out)

    def representative(self, coords):
        """A cycle (dict) whose class has the given generator coordinates."""
        out = {}
        for c, gen in zip(coords, self.generators):
            add_scaled(out, c, {self.basis[i]: x for i, x in gen.items()},
                       self.ring)
        return out

    def all_classes(self):
        """Iterate (coords, representative) over every class; finite
        coefficients only."""
        if not self.ring.is_field() or self.ring.kind != "Zmod":
            raise ValueError("finite field coefficients required")
        p = self.ring.modulus
        for coords in itertools.product(range(p), repeat=self.rank):
            yield coords, self.representative(coords)
