"""The configuration surface of the engine and the router.

A new field of ``SimConfig`` or ``RoutingPolicy`` needs two callers that
want different values for it (ROADMAP aim 2: one source of truth per
setting, no dead options) and a ``CHANGES.md`` line that names them.  A
setting no caller varies is a named constant of its module instead.  Adding
a field therefore means changing the sets below in the same change.
"""

from dataclasses import fields

from slingsim.engine import SimConfig
from slingsim.routing import RoutingPolicy


def field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def test_sim_config_fields():
    assert field_names(SimConfig) == {
        "seed", "duration_s", "chunk_quantum_bytes", "cc_enabled",
        "sweep_interval_s"}


def test_routing_policy_fields():
    assert field_names(RoutingPolicy) == {
        "mode", "nonminimal_bias", "intermediate_samples"}
