"""Shared fixtures for the test suite."""

import sys
from pathlib import Path

import pytest

from repro.benchmark import BenchmarkConfig
from repro.malt import MaltApplication, MaltTopologyConfig
from repro.traffic import CommunicationGraphConfig, TrafficAnalysisApplication

# the CI gate scripts under benchmarks/ are importable as top-level modules
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))


SMALL_MALT_CONFIG = MaltTopologyConfig(
    datacenters=1, pods_per_datacenter=2, racks_per_pod=2, chassis_per_rack=2,
    switches_per_chassis=4, ports_per_switch=3, control_points=4, port_links=6,
    seed=11)


@pytest.fixture(scope="session")
def traffic_app() -> TrafficAnalysisApplication:
    """A 40-node / 40-edge traffic-analysis application (the benchmark default)."""
    return TrafficAnalysisApplication(config=CommunicationGraphConfig(
        node_count=40, edge_count=40, seed=7))


@pytest.fixture(scope="session")
def malt_app() -> MaltApplication:
    """A small MALT application (hundreds of nodes) for fast tests."""
    return MaltApplication(config=SMALL_MALT_CONFIG)


@pytest.fixture(scope="session")
def small_benchmark_config() -> BenchmarkConfig:
    """Benchmark configuration that uses the small MALT topology."""
    return BenchmarkConfig(malt_config=SMALL_MALT_CONFIG)
