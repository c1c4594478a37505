"""The ``RankEstimator`` protocol and estimator spec strings.

This package is the second algorithm family beside the exact
power-iteration path: residual push, a sublinear *estimator* that
trades a certified error for touching only a fraction of the extended
graph.  Every implementation satisfies one contract:

* ``estimate(graph, local_nodes, settings=None, preprocessor=None)``
  returns a :class:`~repro.pagerank.result.SubgraphScores` whose
  ``extras`` carry at least

  ``"estimator"``
      The engine name that produced the scores.
  ``"error_bound"``
      A *certified* upper bound on the L1 error of the returned
      scores over the n+1 extended vector (local pages plus Λ)
      against the exact ApproxRank fixed point.  It holds with
      probability 1: push reports its residual mass, an exact
      identity; the exact wrapper reports ``0.0``.
  ``"edges_touched"``
      Honest work accounting: CSR entries actually read.  The
      sublinearity gate in ``BENCH_estimate.json`` compares this
      against the *global* edge count.

* the estimator is deterministic: the same configuration gives
  bit-identical scores on every run.

Estimators are obtained by name through :func:`resolve_estimator`,
which accepts ``"exact"``, ``"push"`` or a parameterised spec string
like ``"push:r_max=1e-3"`` — the grammar the CLI ``--estimator`` flag
and the serve path's ``/rank?estimator=`` query parameter both speak.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.exceptions import EstimationError
from repro.graph.digraph import CSRGraph
from repro.obs.metrics import REGISTRY, SECONDS_BUCKETS, MetricsRegistry
from repro.pagerank.result import SubgraphScores
from repro.pagerank.solver import PowerIterationSettings

__all__ = [
    "RankEstimator",
    "resolve_estimator",
    "record_estimate_metrics",
    "ERROR_BOUND_BUCKETS",
]


@runtime_checkable
class RankEstimator(Protocol):
    """Anything that estimates ApproxRank scores for a subgraph."""

    #: Spec-string name; also recorded as ``extras["estimator"]``.
    name: str

    def estimate(
        self,
        graph: CSRGraph,
        local_nodes: Iterable[int],
        settings: PowerIterationSettings | None = None,
        preprocessor=None,
    ) -> SubgraphScores:
        """Estimate scores; see the module docstring for the contract."""
        ...


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

def _engines() -> dict[str, Callable[..., RankEstimator]]:
    """The engines a spec string can name (imported lazily: both
    engine modules import this one for :func:`record_estimate_metrics`)."""
    from repro.estimation.exact import ExactEstimator
    from repro.estimation.push import PushEstimator

    return {"exact": ExactEstimator, "push": PushEstimator}


def resolve_estimator(spec) -> RankEstimator:
    """Turn a spec into a ready estimator.

    Accepts an estimator instance (returned unchanged), ``None`` (the
    exact solver), or a spec string ``name[:key=value[,key=value...]]``
    whose values are numbers:

    >>> resolve_estimator("exact")
    >>> resolve_estimator("push:r_max=1e-3")

    Anything else — an unknown name, a malformed or repeated key, a
    value that is not a number — raises :class:`EstimationError`.
    """
    if spec is None:
        spec = "exact"
    if isinstance(spec, RankEstimator) and not isinstance(spec, str):
        return spec
    if not isinstance(spec, str):
        raise EstimationError(
            f"estimator spec must be a string or RankEstimator, "
            f"got {type(spec).__name__}"
        )
    name, _, params = spec.partition(":")
    name = name.strip()
    engines = _engines()
    factory = engines.get(name)
    if factory is None:
        known = ", ".join(engines)
        raise EstimationError(
            f"unknown estimator {name!r}; known estimators: {known}"
        )
    kwargs: dict[str, float] = {}
    if params.strip():
        for item in params.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise EstimationError(
                    f"malformed estimator parameter {item!r} in {spec!r} "
                    "(expected key=value)"
                )
            if key in kwargs:
                raise EstimationError(
                    f"duplicate estimator parameter {key!r} in {spec!r}"
                )
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise EstimationError(
                    f"estimator parameter {item.strip()!r} in {spec!r} "
                    "is not a number"
                ) from None
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise EstimationError(
            f"invalid parameters for estimator {name!r}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: Buckets for certified error bounds (they span ~1e-6 .. 2).
ERROR_BOUND_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1.0, 2.0,
)


def record_estimate_metrics(
    scores: SubgraphScores,
    registry: MetricsRegistry | None = None,
) -> None:
    """Publish one estimate's accounting to the metrics registry.

    Families (all labelled by ``estimator``):

    * ``repro_estimate_requests_total`` — estimates served;
    * ``repro_estimate_edges_touched_total`` — CSR entries read;
    * ``repro_estimate_pushes_total`` — residual pushes applied;
    * ``repro_estimate_error_bound`` — certified-bound distribution;
    * ``repro_estimate_seconds`` — end-to-end estimate latency.
    """
    reg = REGISTRY if registry is None else registry
    extras = scores.extras
    estimator = str(extras.get("estimator", scores.method))
    reg.counter(
        "repro_estimate_requests_total",
        "Rank estimates produced, by estimator.",
        estimator=estimator,
    ).inc()
    edges = extras.get("edges_touched")
    if edges is not None:
        reg.counter(
            "repro_estimate_edges_touched_total",
            "CSR entries read while estimating, by estimator.",
            estimator=estimator,
        ).inc(float(edges))
    pushes = extras.get("pushes")
    if pushes is not None:
        reg.counter(
            "repro_estimate_pushes_total",
            "Residual pushes applied by the local-push engine.",
            estimator=estimator,
        ).inc(float(pushes))
    bound = extras.get("error_bound")
    if bound is not None:
        reg.histogram(
            "repro_estimate_error_bound",
            "Certified error bound of returned estimates.",
            buckets=ERROR_BOUND_BUCKETS,
            estimator=estimator,
        ).observe(float(bound))
    reg.histogram(
        "repro_estimate_seconds",
        "End-to-end estimate latency in seconds.",
        buckets=SECONDS_BUCKETS,
        estimator=estimator,
    ).observe(float(scores.runtime_seconds))
