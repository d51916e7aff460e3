"""Shared fixtures for the casimir1d tests."""

import pytest

from casimir1d import forces


@pytest.fixture(autouse=True)
def cold_vacuum_cache():
    """Start every test with empty per-process memos (Z, R, the state
    excess, the bath kernel's weight-free parts and the band scans' kinds),
    so a timing gate or a cache assertion never profits from an earlier
    test."""
    for memo in (forces._vacuum_bath, forces._rotated_vacuum,
                 forces._cavity_excess, forces._bath_factors, forces._kinds):
        memo.cache_clear()
