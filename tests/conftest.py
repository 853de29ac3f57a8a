"""Suite-wide test configuration.

Tier-1 has to be green *and deterministic*: every hypothesis test runs
derandomised (the examples are a function of the test, not of the run)
and without a per-example deadline (the builder host shares its CPUs, so
a wall-clock deadline is a flake, not a finding).
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")
