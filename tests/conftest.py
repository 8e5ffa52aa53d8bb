"""Shared fixtures."""

import sys

import pytest


def _clear_ycalc_memos() -> None:
    """cache_clear() on every memo (every lru_cache) of the ycalc modules."""
    for name, module in list(sys.modules.items()):
        if name == "ycalc" or name.startswith("ycalc."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def fresh_memos():
    """Empty memos on entry and on exit: entries from earlier tests cannot
    hide a fault the test patches in, and entries computed under the patch
    cannot leak into later tests."""
    _clear_ycalc_memos()
    yield
    _clear_ycalc_memos()
