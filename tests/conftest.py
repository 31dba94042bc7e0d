"""Shared fixtures."""
import contextlib

import pytest

import chainops.operads as operads_module


def clear_operad_caches():
    """Empty every process-wide cache of chainops.operads: the memoised
    functions (words, letters, boundaries, block signs, chain tables) and
    the composition memo."""
    for value in vars(operads_module).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    operads_module._COMPOSITIONS.clear()


@contextlib.contextmanager
def cleared_operad_caches():
    """Run the body against empty operad caches and leave them empty, so
    that nothing the body computed (under a patched sign rule, say) is
    read after it."""
    clear_operad_caches()
    try:
        yield
    finally:
        clear_operad_caches()


@pytest.fixture
def fresh_operad_caches():
    """For a test that patches koszul_sign, orientation or
    surjection_composition.  The operad's boundaries, compositions and
    block signs are cached per process: results cached before the patch
    would hide it, and results cached under it would reach later tests."""
    with cleared_operad_caches():
        yield
