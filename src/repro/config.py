"""Environment-driven configuration knobs.

Deployment-facing settings that must be tunable without code changes are
read from ``REPRO_*`` environment variables:

* ``REPRO_KINETIC_CACHE_SIZE`` — FIFO bound of the database's table of
  stamped kinetic solves (:class:`~repro.ftl.atoms.KineticSolveCache`,
  read only by continuous-query refreshes under validity stamps) when the
  ``MostDatabase(kinetic_cache_size=...)`` constructor argument is left at
  its default.  A positive integer.
* ``REPRO_PARALLEL_START_METHOD`` — multiprocessing start method for the
  shard worker pool: ``fork``, ``spawn`` or ``forkserver``.  Defaults to
  the platform default (``fork`` on Linux).

Every variable is validated on read: nonsense values raise
:class:`~repro.errors.ConfigError` naming the variable and the offending
value rather than silently falling back, so a typo in a deployment
manifest fails loudly.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError

__all__ = [
    "env_int",
    "kinetic_cache_entries",
    "parallel_start_method",
]

KINETIC_CACHE_SIZE_VAR = "REPRO_KINETIC_CACHE_SIZE"
PARALLEL_START_METHOD_VAR = "REPRO_PARALLEL_START_METHOD"

_START_METHODS = ("fork", "spawn", "forkserver")


def env_int(
    name: str, *, minimum: int = 0, maximum: int | None = None
) -> int | None:
    """An integer environment variable, validated.

    Returns ``None`` when the variable is unset or empty.  Raises
    :class:`ConfigError` when the value is not an integer or falls outside
    ``[minimum, maximum]``.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be <= {maximum}, got {value}")
    return value


def kinetic_cache_entries() -> int | None:
    """The ``REPRO_KINETIC_CACHE_SIZE`` override, or ``None`` when unset."""
    return env_int(KINETIC_CACHE_SIZE_VAR, minimum=1)


def parallel_start_method() -> str | None:
    """The ``REPRO_PARALLEL_START_METHOD`` override, or ``None`` when unset."""
    raw = os.environ.get(PARALLEL_START_METHOD_VAR)
    if raw is None or raw.strip() == "":
        return None
    method = raw.strip()
    if method not in _START_METHODS:
        raise ConfigError(
            f"{PARALLEL_START_METHOD_VAR} must be one of "
            f"{', '.join(_START_METHODS)}; got {raw!r}"
        )
    return method
