"""Bounded chain/cochain complexes, chain maps and homology, and the
graded modules whose structure maps are built on first read (the base of
the simplicial and cubical modules).

Complexes are stored degree-sparsely: degrees absent from the module table
are zero.  Each complex carries its direction: homological complexes have
a differential of degree -1, cohomological ones a differential of degree
+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freemod import FreeModule, FreeModuleMap, zero_module
from .homology_classes import HomologySpace
from .rings import RingSpec

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
        return self.modules.get(n) or zero_module(self.ring)

    def differential(self, n) -> FreeModuleMap:
        d = self.differentials.get(n)
        if d is None:
            return FreeModuleMap.zero(self.module(n), self.module(n + self.step))
        return d

    def __eq__(self, other):
        return (isinstance(other, ChainComplex)
                and self.ring == other.ring
                and self.direction == other.direction
                and self.modules == other.modules
                and self.differentials == other.differentials)

    def __repr__(self):
        ranks = {n: self.modules[n].rank for n in sorted(self.modules)}
        return f"ChainComplex({self.ring}, {self.direction}, ranks {ranks})"


class OperatorModule:
    """Graded free modules with structure maps built on first read.

    A key ("d", n, ...) names a map M_n -> M_{n-1}, a key ("s", n, ...) a
    map M_n -> M_{n+1}.  rule(key, source, target) builds the map a key
    names; a map whose source or target module is zero is the zero map
    and never reaches the rule.  `maps` memoises every map read.
    """

    def __init__(self, ring: RingSpec, modules, rule):
        self.ring = ring
        self.modules = {n: m for n, m in modules.items() if m.rank > 0}
        self.maps = {}
        self._rule = rule

    def module(self, n) -> FreeModule:
        return self.modules.get(n) or zero_module(self.ring)

    def structure_map(self, key) -> FreeModuleMap:
        f = self.maps.get(key)
        if f is None:
            n = key[1]
            src = self.module(n)
            tgt = self.module(n - 1 if key[0] == "d" else n + 1)
            f = (self._rule(key, src, tgt) if src.rank and tgt.rank
                 else FreeModuleMap.zero(src, tgt))
            self.maps[key] = f
        return f


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
    """H_n (or H^n) = ker(d out of degree n) / im(d into degree n), read
    off the divisors of HomologySpace(C, n): a 0 for each free (over a
    field, each) coordinate, d > 1 for each Z/d."""
    divisors = HomologySpace(C, n).divisors
    return HomologyGroup(C.ring, divisors.count(0),
                         tuple(d for d in divisors if d))


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

    def compose(self, first: "ChainMap") -> "ChainMap":
        degs = set(self.components) | set(first.components)
        return ChainMap(first.source, self.target,
                        {n: self.component(n).compose(first.component(n))
                         for n in degs})

    def __eq__(self, other):
        return (isinstance(other, ChainMap)
                and self.source == other.source and self.target == other.target
                and self.components == other.components)
