"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.simkernel.env import Environment


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def fm1_cluster() -> Cluster:
    """A two-node FM 1.x cluster on the Sparc testbed config."""
    return Cluster(2, machine=SPARC_FM1, fm_version=1)


@pytest.fixture
def fm2_cluster() -> Cluster:
    """A two-node FM 2.x cluster on the PPro testbed config."""
    return Cluster(2, machine=PPRO_FM2, fm_version=2)

