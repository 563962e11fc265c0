"""Public-API surface snapshots.

``repro.__all__`` and ``repro.api.__all__`` are the library's contract
with its users: anything added here is a deliberate, reviewed decision
(update the expected lists in the same PR), and anything that vanishes
is an immediate CI failure instead of a silent break.  Every listed
name must also actually resolve.
"""

from __future__ import annotations

import repro
import repro.api
import repro.errors
import repro.service
import repro.workload

EXPECTED_API_ALL = [
    "ALGORITHM_CHOICES",
    "DEFAULT_FLUSH_THRESHOLD",
    "DEFAULT_SHARD_BLOCK",
    "SHARD_EXECUTOR_CHOICES",
    "ConfigError",
    "Engine",
    "EngineConfig",
    "EngineStats",
    "FragmentCacheStats",
    "IngestSession",
    "InvalidQueryError",
    "QueryOutcome",
    "ReproError",
    "ShardTimeoutError",
    "ShardedEngine",
    "ShardedStats",
    "Snapshot",
    "UnknownPointError",
    "UnsupportedOperationError",
    "open",
]

EXPECTED_REPRO_ALL = [
    "CGroupByResult",
    "ClusterEvent",
    "ClusterTracker",
    "Clustering",
    "ConfigError",
    "Engine",
    "EngineConfig",
    "EngineStats",
    "FullyDynamicClusterer",
    "Grid",
    "IncDBSCAN",
    "IngestSession",
    "InvalidQueryError",
    "QueryOutcome",
    "RecomputeClusterer",
    "ReproError",
    "RunResult",
    "SemiDynamicClusterer",
    "ShardTimeoutError",
    "ShardedEngine",
    "ShardedStats",
    "Snapshot",
    "StaticClustering",
    "UnknownPointError",
    "UnsupportedOperationError",
    "Workload",
    "check_legality",
    "cluster_stats",
    "check_sandwich",
    "dbscan_brute",
    "dbscan_grid",
    "double_approx",
    "full_exact_2d",
    "generate_workload",
    "rho_dbscan_static",
    "run_workload",
    "seed_spreader",
    "semi_approx",
    "semi_exact_2d",
]

EXPECTED_ERRORS_ALL = [
    "ReproError",
    "ConfigError",
    "UnknownPointError",
    "InvalidQueryError",
    "UnsupportedOperationError",
    "ShardTimeoutError",
    "StaleOwnershipError",
]

EXPECTED_SERVICE_ALL = [
    "ClusterService",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceLimits",
    "ServiceStats",
]


def test_api_surface_snapshot():
    assert repro.api.__all__ == EXPECTED_API_ALL


def test_repro_surface_snapshot():
    assert repro.__all__ == EXPECTED_REPRO_ALL


def test_errors_surface_snapshot():
    assert repro.errors.__all__ == EXPECTED_ERRORS_ALL


def test_service_surface_snapshot():
    assert repro.service.__all__ == EXPECTED_SERVICE_ALL


def test_workload_scenario_names_exported():
    """The streaming-scenario additions ride the workload package."""
    for name in (
        "SlidingWindowScenario",
        "sliding_window_scenario",
        "run_sliding_window",
        "burst_arrival_stream",
        "evolving_density_stream",
        "TrafficMixSampler",
        "TrafficOp",
        "default_service_mix",
    ):
        assert name in repro.workload.__all__, name


def test_every_exported_name_resolves():
    for module in (repro, repro.api, repro.errors, repro.service,
                   repro.workload):
        for name in module.__all__:
            assert getattr(module, name, None) is not None, (
                f"{module.__name__}.{name} is exported but does not resolve"
            )


def test_legacy_entry_points_still_exported():
    """The documented shims must stay importable until a major bump."""
    for name in ("semi_approx", "semi_exact_2d", "double_approx",
                 "full_exact_2d", "SemiDynamicClusterer",
                 "FullyDynamicClusterer"):
        assert name in repro.__all__
