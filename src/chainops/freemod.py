"""Labeled free modules and sparse exact maps between them.

FreeModuleMap is the universal carrier for every differential and structure
map in the engine.  Entries are stored sparsely as (target label, source
label) -> nonzero ring element; maps compare by structural equality.
All values are immutable after construction.  A map's columns, read by
source label, come from an index built on the first column read.
"""

from __future__ import annotations

import functools

from .rings import RingSpec


def add_scaled(acc, c, vec, ring: RingSpec):
    """acc += c * vec on sparse vectors (dicts label -> coefficient), in
    place, dropping the entries that become zero; returns acc.

    c and the entries of vec are ints (Z, Z/m) or ints and Fractions
    (Q); the sums are reduced mod m over Z/m."""
    if ring.kind == "Zmod":
        m = ring.modulus
        for k, x in vec.items():
            t = (acc.get(k, 0) + c * x) % m
            if t:
                acc[k] = t
            else:
                acc.pop(k, None)
    else:
        zero = ring.zero()
        for k, x in vec.items():
            t = acc.get(k, zero) + c * x
            if t:
                acc[k] = t
            else:
                acc.pop(k, None)
    return acc


class FreeModule:
    """Free module over a RingSpec with an ordered basis of opaque labels."""

    __slots__ = ("ring", "basis", "index")

    def __init__(self, ring: RingSpec, basis):
        basis = tuple(basis)
        if len(set(basis)) != len(basis):
            raise ValueError("basis labels must be pairwise distinct")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "index", {b: i for i, b in enumerate(basis)})

    def __setattr__(self, *a):
        raise AttributeError("FreeModule is immutable")

    @property
    def rank(self):
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, FreeModule)
                and self.ring == other.ring and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ring, self.basis))

    def __repr__(self):
        return f"FreeModule({self.ring}, rank {self.rank})"


@functools.cache
def zero_module(ring: RingSpec) -> FreeModule:
    """The rank-zero module over ring, built once per ring and shared (a
    FreeModule is immutable)."""
    return FreeModule(ring, ())


class FreeModuleMap:
    """Sparse linear map, entries indexed (target label, source label).

    column(s) and compose read the entries grouped by source label; the
    grouping is built once, on the first such read, and never handed
    out, so the map stays immutable."""

    __slots__ = ("source", "target", "entries", "_columns")

    def __init__(self, source: FreeModule, target: FreeModule, entries):
        if source.ring != target.ring:
            raise ValueError("source and target must share a ring")
        ring = source.ring
        clean = {}
        for (t, s), c in entries.items():
            if t not in target.index:
                raise KeyError(f"unknown target label {t!r}")
            if s not in source.index:
                raise KeyError(f"unknown source label {s!r}")
            c = ring.normalize(c)
            if c:       # a normalised zero is 0 or Fraction(0)
                clean[(t, s)] = c
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, *a):
        raise AttributeError("FreeModuleMap is immutable")

    @property
    def ring(self):
        return self.source.ring

    def __eq__(self, other):
        return (isinstance(other, FreeModuleMap)
                and self.source == other.source
                and self.target == other.target
                and self.entries == other.entries)

    def __repr__(self):
        return (f"FreeModuleMap({self.source.rank}->{self.target.rank}, "
                f"{len(self.entries)} entries)")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(source, target):
        return FreeModuleMap(source, target, {})

    @staticmethod
    def identity(module):
        one = module.ring.one()
        return FreeModuleMap(module, module,
                             {(b, b): one for b in module.basis})

    @staticmethod
    def from_columns(source, target, columns):
        """columns: source label -> vector (dict target label -> coeff)."""
        entries = {}
        for s, col in columns.items():
            for t, c in col.items():
                entries[(t, s)] = c
        return FreeModuleMap(source, target, entries)

    # -- linear algebra as label algebra ------------------------------------

    def apply(self, vector):
        """Apply to a sparse source-indexed vector; returns target-indexed."""
        ring = self.ring
        out = {}
        for (t, s), c in self.entries.items():
            a = vector.get(s)
            if a is None:
                continue
            val = ring.add(out.get(t, ring.zero()), ring.mul(c, a))
            if ring.is_zero(val):
                out.pop(t, None)
            else:
                out[t] = val
        return out

    def _column_index(self):
        """source label -> {target label: coefficient}, built on first use."""
        try:
            return self._columns
        except AttributeError:
            columns = {}
            for (t, s), c in self.entries.items():
                columns.setdefault(s, {})[t] = c
            object.__setattr__(self, "_columns", columns)
            return columns

    def column(self, src_label):
        """The image of one source basis label, as a new dict."""
        return dict(self._column_index().get(src_label, ()))

    def compose(self, first: "FreeModuleMap") -> "FreeModuleMap":
        """self o first."""
        if first.target != self.source:
            raise ValueError("composition mismatch")
        columns = self._column_index()
        entries = {}
        for (mid, s), c in first.entries.items():
            add_scaled(entries, c, {(t, s): c2 for t, c2
                                    in columns.get(mid, {}).items()},
                       self.ring)
        return FreeModuleMap(first.source, self.target, entries)

    def is_zero(self):
        return not self.entries

    def to_matrix(self):
        """Dense row-major matrix (target rows, source columns)."""
        rows = [[self.ring.zero()] * self.source.rank
                for _ in range(self.target.rank)]
        for (t, s), c in self.entries.items():
            rows[self.target.index[t]][self.source.index[s]] = c
        return rows
