"""The accuracy request behind ``estimator=push:r_max=x``.

A spec ``push:r_max=x`` asks for scores within ``x`` in L1 of the
ApproxRank fixed point over the n+1 extended vector (local pages plus
Λ).  The exact solve answers it: ApproxRank's preprocessor already
makes that solve local — O(n + boundary) per subgraph — and on every
subgraph measured, its own certificate was at or below every r_max a
residual-push engine was run at, in less wall time.  So there is one
engine, and the spec only changes what the answer is *certified*
against.

The certificate is :func:`~repro.updates.rerank.staleness_charge_bound`
with no external drift: the truncation term ``residual/(1−ε)`` (the
damped update contracts in L1), plus the documented
:func:`~repro.pagerank.backends.float32_l1_bound` clamp when float32
is the active precision, plus any staleness charge the scores already
carry.  A request whose r_max sits below that bound is refused with
:class:`~repro.exceptions.EstimationError` — a 400 on the serve path.

:func:`resolve_estimator` parses the spec grammar shared by the CLI
``--estimator`` flag and the ``?estimator=`` query parameter.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

import numpy as np

from repro.core.precompute import ApproxRankPreprocessor
from repro.exceptions import EstimationError
from repro.graph.digraph import CSRGraph
from repro.pagerank.backends import default_backend, float32_l1_bound
from repro.pagerank.result import SubgraphScores
from repro.pagerank.solver import PowerIterationSettings
from repro.updates.rerank import staleness_charge_bound

__all__ = ["PushEstimator", "DEFAULT_R_MAX", "resolve_estimator"]

#: Default accuracy target ``‖p̂ − p‖₁ ≤ r_max``.
DEFAULT_R_MAX = 1e-3

#: Names a spec string may carry.
_KNOWN = ("exact", "push")


class PushEstimator:
    """An accuracy request: exact scores certified within ``r_max``.

    The class keeps the name of the residual-push engine it replaced
    so the ``push:r_max=x`` wire grammar, the offline
    ``SemanticPipeline.run(estimator=...)`` call and every caller
    wrapping :meth:`estimate` by its dotted path keep working.

    Parameters
    ----------
    r_max:
        Largest certified L1 error over the n+1 extended vector the
        caller accepts.
    """

    name = "push"

    def __init__(self, r_max: float = DEFAULT_R_MAX):
        if not 0.0 < r_max < 2.0:
            raise EstimationError(
                f"r_max must be in (0, 2), got {r_max}"
            )
        self.r_max = float(r_max)

    @staticmethod
    def error_bound(
        scores: SubgraphScores,
        settings: PowerIterationSettings,
        staleness: float = 0.0,
    ) -> float:
        """Certified L1 bound of ``scores`` over the n+1 vector.

        ``staleness`` is the charge a stale store entry carries on top
        of its own truncation (0.0 for a fresh solve).
        """
        clamp = 0.0
        if default_backend().dtype == np.float32:
            clamp = float32_l1_bound(
                int(scores.local_nodes.size) + 1,
                settings.tolerance,
                settings.damping,
            )
        return staleness_charge_bound(
            0.0,
            settings.damping,
            residual=scores.residual,
            float32_clamp=clamp,
        ) + float(staleness)

    def certify(
        self,
        scores: SubgraphScores,
        settings: PowerIterationSettings,
        staleness: float = 0.0,
    ) -> float:
        """:meth:`error_bound`, refused when it exceeds ``r_max``."""
        bound = self.error_bound(scores, settings, staleness)
        if bound > self.r_max:
            raise EstimationError(
                f"r_max={self.r_max:.3g} is below the certified L1 "
                f"bound {bound:.3g} of the exact solve; request "
                f"r_max >= {bound:.3g}"
            )
        return bound

    def estimate(
        self,
        graph: CSRGraph,
        local_nodes: Iterable[int],
        settings: PowerIterationSettings | None = None,
        preprocessor: ApproxRankPreprocessor | None = None,
    ) -> SubgraphScores:
        """The exact solve, its ``extras`` carrying the certificate.

        The scores are bit-identical to
        :func:`~repro.core.approxrank.approxrank`; ``extras`` adds
        ``estimator``, ``error_bound`` and ``r_max``.
        """
        settings = settings if settings is not None else (
            PowerIterationSettings()
        )
        prep = preprocessor or ApproxRankPreprocessor(graph)
        scores = prep.rank(local_nodes, settings)
        bound = self.certify(scores, settings)
        return replace(
            scores,
            extras={
                **scores.extras,
                "estimator": self.name,
                "error_bound": bound,
                "r_max": self.r_max,
            },
        )


def resolve_estimator(spec) -> PushEstimator | None:
    """Parse an estimator spec; ``None`` means the plain exact path.

    Accepts ``None`` or ``"exact"`` (returns ``None``), a
    :class:`PushEstimator` (returned unchanged), or a spec string
    ``push[:r_max=<float>]``:

    >>> resolve_estimator("push:r_max=1e-3").r_max
    0.001

    Anything else — an unknown name, a malformed or repeated key, a
    value that is not a number, a parameter on ``exact`` — raises
    :class:`EstimationError`.
    """
    if spec is None or isinstance(spec, PushEstimator):
        return spec
    if not isinstance(spec, str):
        raise EstimationError(
            f"estimator spec must be a string or PushEstimator, "
            f"got {type(spec).__name__}"
        )
    name, _, params = spec.partition(":")
    name = name.strip()
    if name not in _KNOWN:
        raise EstimationError(
            f"unknown estimator {name!r}; known estimators: "
            + ", ".join(_KNOWN)
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
    if name == "exact":
        if kwargs:
            raise EstimationError(
                f"estimator 'exact' takes no parameters, got {spec!r}"
            )
        return None
    try:
        return PushEstimator(**kwargs)
    except TypeError as exc:
        raise EstimationError(
            f"invalid parameters for estimator {name!r}: {exc}"
        ) from exc
