import random

from chainops.dold_kan import denormalize, normalize
from chainops.freemod import FreeModuleMap
from chainops.operads import surjection_operad
from chainops.randomgen import random_chain_complex
from chainops.rings import ZZ, Zmod


def scanned_column(f, label):
    """The column of a source label read by scanning every entry."""
    return {t: c for (t, s), c in f.entries.items() if s == label}


def assert_columns_match_the_scan(f):
    for s in f.source.basis:
        assert f.column(s) == scanned_column(f, s), s


class TestColumnIndex:
    """FreeModuleMap.column reads an index built on first use; it must
    answer as the scan of every entry does, and hand out copies."""

    def test_surjection_differentials(self):
        O = surjection_operad(3, Zmod(3), 2)
        maps = [d for k in O.arities()
                for d in O.level(k).differentials.values()]
        assert len(maps) == 6
        for d in maps:
            assert_columns_match_the_scan(d)

    def test_dold_kan_inclusions(self, monkeypatch):
        # normalize reads the columns of its inclusions of the normalized
        # part, the common kernel of the faces d_1..d_n
        read = {}
        original = FreeModuleMap.column

        def recording(f, label):
            read[id(f)] = f
            return original(f, label)

        monkeypatch.setattr(FreeModuleMap, "column", recording)
        rng = random.Random(1)
        for ring in (ZZ, Zmod(4)):
            for _ in range(3):
                L = random_chain_complex(ring, 4, 3, rng)
                normalize(denormalize(L, max(L.modules, default=0) + 1))
        monkeypatch.undo()
        assert read
        for f in read.values():
            assert_columns_match_the_scan(f)

    def test_returned_column_does_not_change_the_map(self):
        d = surjection_operad(3, ZZ, 2).level(3).differential(2)
        entries = dict(d.entries)
        u = next(s for s in d.source.basis if len(d.column(s)) > 1)
        column = d.column(u)
        column.clear()
        column[d.target.basis[0]] = 5
        assert d.column(u) == scanned_column(d, u) != column
        assert d.entries == entries
