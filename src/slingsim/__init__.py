"""slingsim: chunk-level discrete-event dragonfly fabric simulator and validation harness."""

from slingsim.topology import (
    FabricAddress,
    LinkState,
    StateOverlay,
    Topology,
    TopologyError,
    TopologyMetrics,
    TopologySpec,
    aurora_spec,
    build_topology,
    endpoint_address,
    endpoint_at_address,
    topology_metrics,
)

__version__ = "0.1.0"
