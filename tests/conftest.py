"""Shared fixtures for the casimir1d tests."""

import pytest

from casimir1d import forces


@pytest.fixture(autouse=True)
def cold_vacuum_cache():
    """Start every test with an empty zero-temperature bath memo, so a
    timing gate or a cache assertion never profits from an earlier test."""
    forces._vacuum_bath.cache_clear()
