"""Synthetic workloads: fleets, update processes, and named scenarios.

The paper's evaluation substrate is real vehicles and aircraft with GPS
feeds; the generators here are the synthetic equivalent (seeded and fully
deterministic), exercising the identical code paths: objects enter the
database as (position, motion-vector, update-time) triples and change
their vectors over time.
"""

from repro.workloads.generators import (
    motion_update_process,
    random_attributes,
    random_fleet,
    random_movers,
)
from repro.workloads.scenarios import (
    air_traffic_scenario,
    convoy_scenario,
    motel_scenario,
)

__all__ = [
    "random_fleet",
    "random_movers",
    "random_attributes",
    "motion_update_process",
    "motel_scenario",
    "air_traffic_scenario",
    "convoy_scenario",
]
