"""Environment configuration knobs (``REPRO_*``) and their validation.

The contract: unset/empty means "library default", a valid value is
honoured everywhere the knob feeds, and a nonsense value raises
:class:`ConfigError` naming the variable — never a silent fallback.
"""

import pytest

from repro.config import (
    PARALLEL_START_METHOD_VAR,
    env_int,
    parallel_start_method,
)
from repro.core import MostDatabase
from repro.errors import ConfigError, QueryError
from repro.parallel import resolve_workers

#: A variable no knob reads: the generic ``env_int`` contract.
KNOB = "REPRO_TEST_KNOB"


def test_unset_and_empty_mean_default(monkeypatch):
    for var in (KNOB, PARALLEL_START_METHOD_VAR):
        monkeypatch.delenv(var, raising=False)
    assert env_int(KNOB, minimum=1) is None
    assert parallel_start_method() is None
    monkeypatch.setenv(KNOB, "  ")
    assert env_int(KNOB, minimum=1) is None
    monkeypatch.setenv(PARALLEL_START_METHOD_VAR, "  ")
    assert parallel_start_method() is None


@pytest.mark.parametrize("raw", ["zero", "1.5", "0x10", ""])
def test_env_int_rejects_non_integers(monkeypatch, raw):
    monkeypatch.setenv(KNOB, raw)
    if raw.strip() == "":
        assert env_int(KNOB, minimum=1) is None
    else:
        with pytest.raises(ConfigError, match=KNOB):
            env_int(KNOB, minimum=1)


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_positive_knobs_reject_non_positive(monkeypatch, raw):
    monkeypatch.setenv(KNOB, raw)
    with pytest.raises(ConfigError, match=">= 1"):
        env_int(KNOB, minimum=1)


def test_env_int_bounds(monkeypatch):
    monkeypatch.setenv(KNOB, "7")
    assert env_int(KNOB, minimum=1) == 7
    with pytest.raises(ConfigError, match="<= 4"):
        env_int(KNOB, minimum=1, maximum=4)


def test_kinetic_cache_size_env_feeds_database(monkeypatch):
    """The database has no solve-table bound any more: the variable that
    set it feeds nothing, and a database builds without reading it."""
    monkeypatch.setenv("REPRO_KINETIC_CACHE_SIZE", "zero")
    db = MostDatabase()
    assert not hasattr(db, "kinetic_cache")
    monkeypatch.setenv(PARALLEL_START_METHOD_VAR, "threads")
    with pytest.raises(ConfigError, match=PARALLEL_START_METHOD_VAR):
        parallel_start_method()


def test_constructor_overrides_env(monkeypatch):
    """A valid start method in the environment is what the pool reads;
    the database constructor takes no solve-table bound."""
    monkeypatch.setenv(PARALLEL_START_METHOD_VAR, " forkserver ")
    assert parallel_start_method() == "forkserver"
    with pytest.raises(TypeError):
        MostDatabase(kinetic_cache_size=1)


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
