"""Seeded random complexes for property sweeps and round-trip checks.

Differentials are built degree by degree inside the kernel of the previous
one, so d o d = 0 holds by construction and every generated complex is a
genuine bounded chain complex.
"""

from __future__ import annotations

import random

from .complexes import ChainComplex, HOMOLOGICAL
from .freemod import FreeModule, FreeModuleMap, add_scaled
from .linalg import sparse_kernel
from .rings import RingSpec


def random_chain_complex(ring: RingSpec, length: int, max_rank: int,
                         rng: random.Random, coeff_bound: int = 3) -> ChainComplex:
    """Random homological complex supported in degrees [0, length]."""
    ranks = [rng.randint(0, max_rank) for _ in range(length + 1)]
    modules = {n: FreeModule(ring, [("x", n, i) for i in range(r)])
               for n, r in enumerate(ranks) if r}
    diffs = {}
    prev_kernel = None   # basis of ker(d_{n-1}), vectors over C_{n-1}
    for n in range(1, length + 1):
        src = modules.get(n)
        tgt = modules.get(n - 1)
        if src is None or tgt is None:
            prev_kernel = None
            continue
        if prev_kernel is None:
            # unconstrained random map
            entries = {}
            for t in tgt.basis:
                for s in src.basis:
                    entries[(t, s)] = rng.randint(-coeff_bound, coeff_bound)
            d = FreeModuleMap(src, tgt, entries)
        else:
            # random combination of kernel generators per source basis vector
            cols = {}
            for s in src.basis:
                col = {}
                for vec in prev_kernel:
                    c = rng.randint(-coeff_bound, coeff_bound)
                    if c:
                        add_scaled(col, ring.normalize(c), vec, ring)
                cols[s] = col
            d = FreeModuleMap.from_columns(src, tgt, cols)
        if not d.is_zero():
            diffs[n] = d
        # the kernel's rows are d's rows, grouped by target label
        rows = {}
        for (t, s), x in d.entries.items():
            rows.setdefault(t, {})[src.index[s]] = x
        prev_kernel = [{src.basis[j]: x for j, x in vec.items()}
                       for vec in sparse_kernel(list(rows.values()),
                                                src.rank, ring)]
    return ChainComplex(ring, modules, diffs, HOMOLOGICAL)
