"""Environment configuration knobs (``REPRO_*``) and their validation.

The contract: unset/empty means "library default", a valid value is
honoured everywhere the knob feeds, and a nonsense value raises
:class:`ConfigError` naming the variable — never a silent fallback.
"""

import pytest

from repro.config import (
    KINETIC_CACHE_SIZE_VAR,
    PARALLEL_START_METHOD_VAR,
    env_int,
    kinetic_cache_entries,
    parallel_start_method,
)
from repro.core import MostDatabase
from repro.errors import ConfigError, QueryError
from repro.parallel import resolve_workers


def test_unset_and_empty_mean_default(monkeypatch):
    for var in (KINETIC_CACHE_SIZE_VAR, PARALLEL_START_METHOD_VAR):
        monkeypatch.delenv(var, raising=False)
    assert kinetic_cache_entries() is None
    assert parallel_start_method() is None
    monkeypatch.setenv(KINETIC_CACHE_SIZE_VAR, "  ")
    assert kinetic_cache_entries() is None


@pytest.mark.parametrize("raw", ["zero", "1.5", "0x10", ""])
def test_env_int_rejects_non_integers(monkeypatch, raw):
    monkeypatch.setenv(KINETIC_CACHE_SIZE_VAR, raw)
    if raw.strip() == "":
        assert kinetic_cache_entries() is None
    else:
        with pytest.raises(ConfigError, match=KINETIC_CACHE_SIZE_VAR):
            kinetic_cache_entries()


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_positive_knobs_reject_non_positive(monkeypatch, raw):
    monkeypatch.setenv(KINETIC_CACHE_SIZE_VAR, raw)
    with pytest.raises(ConfigError, match=">= 1"):
        kinetic_cache_entries()


def test_env_int_bounds(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", "7")
    assert env_int("REPRO_TEST_KNOB", minimum=1) == 7
    with pytest.raises(ConfigError, match="<= 4"):
        env_int("REPRO_TEST_KNOB", minimum=1, maximum=4)


def test_kinetic_cache_size_env_feeds_database(monkeypatch):
    monkeypatch.setenv(KINETIC_CACHE_SIZE_VAR, "17")
    db = MostDatabase()
    assert db.kinetic_cache.max_entries == 17


def test_constructor_overrides_env(monkeypatch):
    monkeypatch.setenv(KINETIC_CACHE_SIZE_VAR, "17")
    db = MostDatabase(kinetic_cache_size=5)
    assert db.kinetic_cache.max_entries == 5


def test_parallel_workers_env_feeds_auto(monkeypatch):
    """Sharding is explicit-only: no ``"auto"`` value and no environment
    variable sizes a pool."""
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
    with pytest.raises(QueryError, match="non-negative integer, None or False"):
        resolve_workers("auto")
    assert resolve_workers(None) == 1
    assert resolve_workers(2) == 2


def test_start_method_validation(monkeypatch):
    monkeypatch.setenv(PARALLEL_START_METHOD_VAR, "fork")
    assert parallel_start_method() == "fork"
    monkeypatch.setenv(PARALLEL_START_METHOD_VAR, "spawn")
    assert parallel_start_method() == "spawn"
    monkeypatch.setenv(PARALLEL_START_METHOD_VAR, "threads")
    with pytest.raises(ConfigError, match=PARALLEL_START_METHOD_VAR):
        parallel_start_method()
