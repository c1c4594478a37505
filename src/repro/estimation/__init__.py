"""Accuracy requests: ``estimator=push:r_max=x`` answered exactly.

One engine ranks every subgraph — the exact ApproxRank solve.  A spec
string (``"push:r_max=1e-3"``) parsed by :func:`resolve_estimator`
asks for that answer certified within an L1 bound; see
:mod:`repro.estimation.push`.

>>> from repro.estimation import resolve_estimator
>>> request = resolve_estimator("push:r_max=1e-3")
>>> scores = request.estimate(graph, domain_pages)
>>> scores.extras["error_bound"]          # certified, not guessed
"""

from repro.estimation.push import (
    DEFAULT_R_MAX,
    PushEstimator,
    resolve_estimator,
)

__all__ = [
    "resolve_estimator",
    "PushEstimator",
    "DEFAULT_R_MAX",
]
