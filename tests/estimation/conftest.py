"""Shared fixtures for the estimation suite.

One messy-but-small random digraph (dangling nodes included — the
classic PageRank trap) and one subgraph, plus a package-scoped
preprocessor so every request in the suite reuses the same
extended-graph cache the serving tier would.
"""

import numpy as np
import pytest

from repro.core.precompute import ApproxRankPreprocessor
from repro.pagerank.solver import PowerIterationSettings

from tests.conftest import random_digraph

#: Tight enough that the exact solve is "truth" for every certificate
#: issued at test scale.
SETTINGS = PowerIterationSettings(tolerance=1e-12)


@pytest.fixture(scope="package")
def graph():
    return random_digraph(400, mean_degree=5.0, seed=42)


@pytest.fixture(scope="package")
def local_nodes():
    return np.arange(20, 80, dtype=np.int64)


@pytest.fixture(scope="package")
def prep(graph):
    return ApproxRankPreprocessor(graph)
