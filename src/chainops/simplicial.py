"""Finite simplicial sets with symbolic degenerate simplices.

A (possibly degenerate) simplex is a pair (word, base): a canonical word of
degeneracy indices applied to a nondegenerate base simplex.  Words are kept
strictly decreasing via s_i s_j = s_{j+1} s_i (i <= j), so simplex equality
is structural.  Face maps rewrite through the word with the simplicial
identities and bottom out in the space's face table; a product space
has none, and takes its faces in the two factors.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .complexes import ChainComplex, COHOMOLOGICAL, HOMOLOGICAL
from .freemod import FreeModule, FreeModuleMap
from .rings import RingSpec, SizeBoundError, _is_prime


class Simplex(NamedTuple):
    word: tuple          # degeneracy indices, strictly decreasing
    base: object         # nondegenerate simplex id
    base_dim: int

    @property
    def dim(self):
        return self.base_dim + len(self.word)

    @property
    def is_degenerate(self):
        return bool(self.word)


def push_degeneracy(word: tuple, i: int) -> tuple:
    """Canonical word for s_i applied on top of a canonical word."""
    out = []
    for a in word:
        if i <= a:
            out.append(a + 1)
        else:
            break
    rest = word[len(out):]
    return tuple(out) + (i,) + rest


def word_for_positions(positions) -> tuple:
    """Canonical word whose collapse set is the given position set."""
    word = ()
    for i in sorted(positions):
        word = push_degeneracy(word, i)
    return word


class FiniteSimplicialSet:
    """Nondegenerate simplices per dimension plus a face incidence table.

    A space memoises the faces it computes, those of degenerate simplices
    and the vertex faces keyed by (simplex, tuple of vertices): the cross
    product and the face maps ask for the same ones many times.  For the
    interval cuts it keeps two more memos, both read by index: the
    position of each n-cell in simplices(n) (cell_index), and per
    (n, faces) a row for each n-cell of the positions of its faces on
    those vertex tuples (face_rows).  The memos live on the space, so no
    two spaces share one."""

    def __init__(self, name, simplices, faces):
        """simplices: dim -> list of ids; faces: (dim, id, i) -> Simplex."""
        self.name = name
        self._simplices = {n: list(ids) for n, ids in simplices.items() if ids}
        self._dims = {}
        for n, ids in self._simplices.items():
            for s in ids:
                self._dims[s] = n
        self._faces = dict(faces)
        self._degenerate_faces = {}     # (simplex, i) -> face, memoized
        self._vertex_faces = {}         # (simplex, vertices) -> face
        self._cell_index = {}           # n -> {n-cell: its position}
        self._face_rows = {}            # (n, faces) -> {n-cell: row}

    def dims(self):
        return sorted(self._simplices)

    def simplices(self, n):
        return self._simplices.get(n, [])

    def nondegenerate(self, base) -> Simplex:
        return Simplex((), base, self._dims[base])

    def face(self, sx: Simplex, i: int) -> Simplex:
        """d_i of a possibly degenerate simplex, canonical output."""
        if not sx.word:
            return self._faces[(sx.dim, sx.base, i)]
        key = (sx, i)
        out = self._degenerate_faces.get(key)
        if out is None:
            out = self._degenerate_faces[key] = self._face_of_degenerate(
                sx, i)
        return out

    def _face_of_degenerate(self, sx: Simplex, i: int) -> Simplex:
        j = sx.word[0]
        inner = Simplex(sx.word[1:], sx.base, sx.base_dim)
        if i < j:
            res = self.face(inner, i)
            return Simplex(push_degeneracy(res.word, j - 1), res.base,
                           res.base_dim)
        if i in (j, j + 1):
            return inner
        res = self.face(inner, i - 1)
        return Simplex(push_degeneracy(res.word, j), res.base, res.base_dim)

    def degeneracy(self, sx: Simplex, i: int) -> Simplex:
        return Simplex(push_degeneracy(sx.word, i), sx.base, sx.base_dim)

    def vertex_face(self, sx: Simplex, vertices) -> Simplex:
        """Restrict an n-simplex to a sorted subset of its vertices 0..n,
        through the space's memo (a subclass computes in _vertex_face)."""
        key = (sx, tuple(vertices))
        out = self._vertex_faces.get(key)
        if out is None:
            out = self._vertex_faces[key] = self._vertex_face(sx, key[1])
        return out

    def cell_index(self, n):
        """The position of each n-cell in simplices(n), built on first
        use."""
        if n not in self._cell_index:
            self._cell_index[n] = {s: i for i, s in
                                   enumerate(self.simplices(n))}
        return self._cell_index[n]

    def face_rows(self, n, faces):
        """n-cell -> row for the vertex tuples faces, each of q + 1
        vertices: row[j] is face_index(cell, faces[j]), or None until the
        row's reader fills it.  The rows depend only on the space, so
        every cochain and every chain with these faces shares them."""
        return self._face_rows.setdefault((n, faces), {})

    def face_index(self, cell, vertices):
        """The position in cell_index(q) of the face of the nondegenerate
        cell on q + 1 of its vertices, or -1 when that face is
        degenerate.  It is not memoised: face_rows keeps it."""
        face = self._vertex_face(self.nondegenerate(cell), vertices)
        return -1 if face.word else self.cell_index(face.base_dim)[face.base]

    def _vertex_face(self, sx: Simplex, vertices) -> Simplex:
        keep = set(vertices)
        out = sx
        for v in range(sx.dim, -1, -1):
            if v not in keep:
                out = self.face(out, v)
        return out

    def check_simplicial_identities(self):
        """Exhaustive d_i d_j = d_{j-1} d_i (i < j) on nondegenerate simplices."""
        bad = []
        for n in self.dims():
            if n < 2:
                continue
            for base in self.simplices(n):
                sx = self.nondegenerate(base)
                for j in range(1, n + 1):
                    for i in range(j):
                        lhs = self.face(self.face(sx, j), i)
                        rhs = self.face(self.face(sx, i), j - 1)
                        if lhs != rhs:
                            bad.append((base, i, j))
        return bad


# ---------------------------------------------------------------------------
# chains and cochains
# ---------------------------------------------------------------------------

def chains(X: FiniteSimplicialSet, ring: RingSpec) -> ChainComplex:
    """Normalized chains: free on nondegenerate simplices, d = sum (-1)^i d_i."""
    modules = {n: FreeModule(ring, list(X.simplices(n))) for n in X.dims()}
    diffs = {}
    for n in X.dims():
        if n == 0 or (n - 1) not in modules:
            continue
        entries = {}
        for base in X.simplices(n):
            for i in range(n + 1):
                f = X.face(X.nondegenerate(base), i)
                if f.is_degenerate:
                    continue
                key = (f.base, base)
                entries[key] = ring.add(entries.get(key, ring.zero()),
                                        ring.normalize((-1) ** i))
        diffs[n] = FreeModuleMap(modules[n], modules[n - 1], entries)
    return ChainComplex(ring, modules, diffs, HOMOLOGICAL)


def cochains(X: FiniteSimplicialSet, ring: RingSpec) -> ChainComplex:
    """Normalized cochains, the linear dual of `chains`, degree +1 differential."""
    C = chains(X, ring)
    modules = dict(C.modules)
    diffs = {}
    for n in sorted(modules):
        d = C.differentials.get(n + 1)
        if d is None:
            continue
        dual_entries = {(s, t): c for (t, s), c in d.entries.items()}
        diffs[n] = FreeModuleMap(modules[n], modules[n + 1], dual_entries)
    return ChainComplex(ring, modules, diffs, COHOMOLOGICAL)


# ---------------------------------------------------------------------------
# built-in spaces
# ---------------------------------------------------------------------------

def circle_space() -> FiniteSimplicialSet:
    """Triangulated circle: 3 vertices, 3 oriented edges."""
    simplices = {0: ["v0", "v1", "v2"], 1: ["e01", "e12", "e20"]}
    faces = {}
    for (e, tail, head) in (("e01", "v0", "v1"), ("e12", "v1", "v2"),
                            ("e20", "v2", "v0")):
        faces[(1, e, 0)] = Simplex((), head, 0)
        faces[(1, e, 1)] = Simplex((), tail, 0)
    return FiniteSimplicialSet("circle", simplices, faces)


def sphere_space(n: int) -> FiniteSimplicialSet:
    """Minimal simplicial n-sphere: a point and a single n-cell."""
    if n == 0:
        return FiniteSimplicialSet("sphere0", {0: ["n", "s"]}, {})
    simplices = {0: ["*"], n: ["cell"]}
    basept = Simplex(word_for_positions(range(n - 1)), "*", 0)
    faces = {(n, "cell", i): basept for i in range(n + 1)}
    return FiniteSimplicialSet(f"sphere{n}", simplices, faces)


def classifying_space(p: int, nmax: int) -> FiniteSimplicialSet:
    """nmax-skeleton of the bar-construction classifying space of Z/p.

    Nondegenerate n-simplices are n-tuples of nonzero residues mod p; the
    inner faces add adjacent entries mod p (a zero sum makes the face
    degenerate), the outer faces drop the first or last entry.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if nmax > 10:
        raise SizeBoundError("dimension cap exceeded (nmax <= 10)")
    simplices = {0: [()]}
    faces = {}
    for n in range(1, nmax + 1):
        cells = [tuple(t) for t in itertools.product(range(1, p), repeat=n)]
        simplices[n] = cells
        for g in cells:
            for i in range(n + 1):
                if i == 0:
                    f = g[1:]
                elif i == n:
                    f = g[:-1]
                else:
                    f = g[:i - 1] + ((g[i - 1] + g[i]) % p,) + g[i + 1:]
                faces[(n, g, i)] = _bar_simplex(f)
    return FiniteSimplicialSet(f"bz{p}", simplices, faces)


def _bar_simplex(tup) -> Simplex:
    """Canonical simplex for a bar tuple that may contain zero entries.

    A zero at position j means the simplex lies in the image of s_j; the
    nondegenerate core is the tuple with the zeros removed.
    """
    zeros = [pos for pos, g in enumerate(tup) if g == 0]
    core = tuple(g for g in tup if g != 0)
    return Simplex(word_for_positions(zeros), core, len(core))


def product_space(X: FiniteSimplicialSet, Y: FiniteSimplicialSet,
                  name=None) -> ProductSpace:
    """The product simplicial set X x Y."""
    return ProductSpace(X, Y, name or f"{X.name}x{Y.name}")


class ProductSpace(FiniteSimplicialSet):
    """X x Y, with no face table: each degree's cells are listed on first
    read, and faces are taken in the factors.

    Nondegenerate n-simplices are pairs (s_I x, s_J y) with x, y
    nondegenerate and disjoint degeneracy position sets I, J; they run
    up to dimension dim X + dim Y.  A simplex (word, (a, b)) stands for
    the pair (s_word a, s_word b); a face operator acts on both
    components, and pair_simplex brings the result back to canonical
    form.
    """

    def __init__(self, X, Y, name):
        self.name = name
        self.X = X
        self.Y = Y
        self._degrees = sorted({n for px in X.dims() for py in Y.dims()
                                for n in range(max(px, py), px + py + 1)})
        self._simplices = {}
        self._vertex_faces = {}     # the base class's memos
        self._cell_index = {}
        self._face_rows = {}

    def dims(self):
        return list(self._degrees)

    def simplices(self, n):
        cells = self._simplices.get(n)
        if cells is None:
            cells = self._simplices[n] = self._cells(n)
        return cells

    def _cells(self, n):
        X, Y = self.X, self.Y
        cells = []
        for px in X.dims():
            for py in Y.dims():
                if px > n or py > n or (n - px) + (n - py) > n:
                    continue
                for a_id in X.simplices(px):
                    for b_id in Y.simplices(py):
                        for I in itertools.combinations(range(n), n - px):
                            rest = [t for t in range(n) if t not in I]
                            for J in itertools.combinations(rest, n - py):
                                cells.append((
                                    Simplex(word_for_positions(I), a_id, px),
                                    Simplex(word_for_positions(J), b_id, py)))
        return sorted(cells)

    def nondegenerate(self, base) -> Simplex:
        return Simplex((), base, base[0].dim)

    def face(self, sx: Simplex, i: int) -> Simplex:
        return self.vertex_face(sx, [v for v in range(sx.dim + 1) if v != i])

    def _vertex_face(self, sx: Simplex, vertices) -> Simplex:
        a, b = sx.base
        for t in reversed(sx.word):
            a, b = self.X.degeneracy(a, t), self.Y.degeneracy(b, t)
        return pair_simplex(self.X.vertex_face(a, vertices),
                            self.Y.vertex_face(b, vertices))


def pair_simplex(a: Simplex, b: Simplex) -> Simplex:
    """Canonical (word, (a', b')) form of a pair of component simplices.

    A canonical word lists its collapse positions in decreasing order, so
    the positions shared by both components are the common letters of
    the two words.  Stripping them with d_i (d_i s_i = id) deletes those
    letters and shifts the later positions down; the shared positions
    themselves make up the degeneracy word of the pair.
    """
    shared = set(a.word).intersection(b.word)
    if not shared:
        return Simplex((), (a, b), a.dim)
    return Simplex(tuple(sorted(shared, reverse=True)),
                   (_strip_positions(a, shared),
                    _strip_positions(b, shared)),
                   a.dim - len(shared))


def _strip_positions(sx: Simplex, shared) -> Simplex:
    word = tuple(t - sum(1 for u in shared if u < t)
                 for t in sx.word if t not in shared)
    return Simplex(word, sx.base, sx.base_dim)


def torus_space() -> FiniteSimplicialSet:
    return product_space(circle_space(), circle_space(), name="torus")
