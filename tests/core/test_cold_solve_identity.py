"""Byte-identity pins for the cold solves behind approxrank and idealrank.

Every solve starts from the personalisation vector.  The digests below
cover the local ids, the scores, Λ's score and the iteration count of
each configuration, and were recorded before the solver lost its
warm-start path; a refactor of the solver, the extended graph or the
result assembly must reproduce them bit for bit.  The process default
is pinned to float64 so ``REPRO_DTYPE`` cannot change what is hashed.
"""

import hashlib

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.core.idealrank import idealrank
from repro.core.precompute import ApproxRankPreprocessor
from repro.pagerank.backends import set_default_backend
from repro.pagerank.globalrank import global_pagerank
from repro.pagerank.solver import PowerIterationSettings
from tests.conftest import random_digraph

PAPER = PowerIterationSettings()
TIGHT = PowerIterationSettings(tolerance=1e-12, max_iterations=20_000)
LOCAL = list(range(60, 160)) + [7, 399]

DIGESTS = {
    "approxrank-paper": "549139419608f4663dcf8bbf1908a3fe5d11c429b802f8234117efdac11dfcf2",
    "approxrank-tight": "e53fbadd7114c05a3d72d4a9ef4c8aa9deae4b3b077329cf0dc7d3ddbd06858a",
    "approxrank-float32": "b23a4b8c70cba1c918efe576c7d8f53b65e6b7d3020e01ba510a86b41aea013e",
    "idealrank-paper": "ad0a3dbbb2d3cbbab64f64cf113f13929026169cac3173f22a9258dddfffca02",
    "idealrank-tight": "705955e6cb460597ec9ef1b8910f19d6c909a774ad13216154a7a9d76f08091f",
    "idealrank-float32": "f7644129b10a403552c3c4a1d9b7c7dc94416dd3259da1ccab08e6b8cc7972fe",
}


@pytest.fixture(autouse=True)
def float64_default():
    set_default_backend("float64")
    yield
    set_default_backend(None)


@pytest.fixture(scope="module")
def graph():
    return random_digraph(400, dangling_fraction=0.2, seed=11)


def digest(result) -> str:
    h = hashlib.sha256()
    h.update(result.local_nodes.tobytes())
    h.update(result.scores.tobytes())
    h.update(np.float64(result.extras["lambda_score"]).tobytes())
    h.update(np.int64(result.iterations).tobytes())
    return h.hexdigest()


def run(name: str, graph):
    method, variant = name.split("-")
    settings = TIGHT if variant == "tight" else PAPER
    backend = "float32" if variant == "float32" else "float64"
    if method == "approxrank":
        if variant == "float32":
            return ApproxRankPreprocessor(graph).rank(
                LOCAL, settings, backend=backend
            )
        return approxrank(graph, LOCAL, settings)
    truth = global_pagerank(graph, TIGHT).scores
    return idealrank(graph, LOCAL, truth, settings, backend=backend)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_scores_match_recorded_digest(name, graph):
    assert digest(run(name, graph)) == DIGESTS[name]
