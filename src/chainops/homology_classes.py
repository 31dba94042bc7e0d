"""Explicit homology classes: representatives, canonical coordinates
and equality of classes.

Over a field the quotient ker/im is read from two incremental echelon
bases (linalg.EchelonBasis): one spans the image, and the other is fed
each kernel column reduced modulo the image, so a column becomes a
generator exactly when it raises the rank of the reductions kept so far.
A class's coordinates are those of its reduction in the kept
reductions.  Over Z the image lattice is put in Smith form inside
kernel coordinates (linalg.image_in_kernel), and class coordinates are
canonicalized by division with remainder (so torsion classes come out
reduced mod their divisors).
"""

from __future__ import annotations

import itertools

from .complexes import ChainComplex
from .freemod import add_scaled
from .linalg import (EchelonBasis, identity_matrix, image_in_kernel,
                     kernel_matrix, lattice_coordinates, rref, sparse_rows)
from .rings import QQ


class HomologySpace:
    """H_n of a complex with chosen cycle generators.

    generators: one cycle per class coordinate, each a list of
    coefficients over the degree-n basis (not a dict keyed by label).
    class_vector(v) maps a cycle to canonical coordinates over the
    generators; two cycles are homologous iff their coordinates agree.
    """

    def __init__(self, C: ChainComplex, n: int):
        ring = C.ring
        if not (ring.is_field() or ring.kind == "Z"):
            raise ValueError("field or Z coefficients required")
        self.complex = C
        self.degree = n
        self.ring = ring
        self.basis = C.module(n).basis
        dim = C.module(n).rank
        d_out = C.differential(n)
        d_in = C.differential(n - C.step)
        if dim == 0:
            self._ker = []
        elif d_out.is_zero():
            self._ker = identity_matrix(dim)
        else:
            self._ker = kernel_matrix(d_out.to_matrix(), ring)
        mat_in = d_in.to_matrix()
        self._im = [[mat_in[i][j] for i in range(dim)]
                    for j in range(d_in.source.rank)
                    if any(not ring.is_zero(mat_in[i][j])
                           for i in range(dim))]
        if ring.is_field():
            self._init_field()
        else:
            self._init_integral()

    # -- field backend ------------------------------------------------

    def _init_field(self):
        # a kernel column is a new generator exactly when its reduction
        # modulo the image raises the rank of the reductions kept so far
        ring = self.ring
        self._image = EchelonBasis(ring, sparse_rows(self._im, ring))
        self._classes = EchelonBasis(ring)
        self.generators = [
            col for col, v in zip(self._ker, sparse_rows(self._ker, ring))
            if self._classes.add(self._image.reduce(v))]
        self.divisors = (0,) * len(self.generators)

    # -- integral backend ----------------------------------------------

    def _init_integral(self):
        # in y = U x coordinates the image lattice is spanned by d_i e_i,
        # so the quotient splits as a direct sum of Z/d_i and Z factors
        k = len(self._ker)
        U, diag = image_in_kernel(self._ker, self._im)
        self._U = U
        self._diag = diag
        self._coord_idx = [i for i, d in enumerate(diag) if d != 1]
        # generator for y-coordinate i is K . (U^{-1} e_i); U is
        # unimodular, so its inverse over Q is integral
        inv = []
        if self._coord_idx:
            inv = [[int(x) for x in row[k:]] for row in
                   rref([u + e for u, e in zip(U, identity_matrix(k))], QQ)[0]]
        self.generators = [
            [sum(inv[j][i] * self._ker[j][r] for j in range(k))
             for r in range(len(self.basis))]
            for i in self._coord_idx]
        self.divisors = tuple(diag[i] for i in self._coord_idx)

    # -- shared API -----------------------------------------------------

    @property
    def rank(self):
        return len(self.generators)

    def is_cycle(self, vector):
        d = self.complex.differential(self.degree)
        return all(self.ring.is_zero(c) for c in d.apply(vector).values())

    def class_vector(self, vector):
        """Canonical coordinates of the class of a cycle, or None if the
        input is not a cycle.  vector: dict basis label -> coefficient."""
        if not self.is_cycle(vector):
            return None
        col = [vector.get(b, self.ring.zero()) for b in self.basis]
        if self.ring.is_field():
            x = self._classes.coordinates(
                self._image.reduce(sparse_rows([col], self.ring)[0]))
            if x is None:
                raise ValueError("cycle outside the computed kernel")
            return tuple(x)
        x = lattice_coordinates(self._ker, col)
        if x is None:
            raise ValueError("cycle outside the computed kernel")
        y = [sum(u * c for u, c in zip(row, x)) for row in self._U]
        out = []
        for i in self._coord_idx:
            d = self._diag[i]
            out.append(y[i] % d if d else y[i])
        return tuple(out)

    def representative(self, coords):
        """A cycle (dict) whose class has the given generator coordinates."""
        out = {}
        for c, gen in zip(coords, self.generators):
            add_scaled(out, c, dict(zip(self.basis, gen)), self.ring)
        return out

    def all_classes(self):
        """Iterate (coords, representative) over every class; finite
        coefficients only."""
        if not self.ring.is_field() or self.ring.kind != "Zmod":
            raise ValueError("finite field coefficients required")
        p = self.ring.modulus
        for coords in itertools.product(range(p), repeat=self.rank):
            yield coords, self.representative(coords)
