"""Sublinear rank estimation: residual push beside the exact solver.

A second algorithm family beside the exact power-iteration solver.
Both implementations satisfy the :class:`~repro.estimation.base.\
RankEstimator` protocol — ``SubgraphScores`` out, with a certified L1
``error_bound`` and honest ``edges_touched`` accounting in ``extras``
— and are addressable by spec string (``"push:r_max=1e-3"``) through
:func:`~repro.estimation.base.resolve_estimator`.

>>> from repro.estimation import resolve_estimator
>>> est = resolve_estimator("push:r_max=1e-3")
>>> scores = est.estimate(graph, domain_pages)
>>> scores.extras["error_bound"]          # certified, not guessed
"""

from repro.estimation.base import (
    ERROR_BOUND_BUCKETS,
    RankEstimator,
    record_estimate_metrics,
    resolve_estimator,
)
from repro.estimation.exact import ExactEstimator
from repro.estimation.push import DEFAULT_R_MAX, PushEstimator

__all__ = [
    "RankEstimator",
    "resolve_estimator",
    "record_estimate_metrics",
    "ERROR_BOUND_BUCKETS",
    "ExactEstimator",
    "PushEstimator",
    "DEFAULT_R_MAX",
]
