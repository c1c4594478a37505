"""Kendall-tau distance between rankings (supplementary metric).

The paper's headline order metric is the footrule; Kendall tau is the
other standard rank-correlation and the two are within a factor of two
of each other (Diaconis–Graham), so we expose it for cross-checking.
We report a *distance* in ``[0, 1]``: ``(1 − τ_b) / 2`` where ``τ_b``
is Kendall's tau-b (the tie-corrected variant), so 0 means identical
order and 1 means exactly reversed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MetricError


def kendall_distance(
    reference: np.ndarray, estimate: np.ndarray
) -> float:
    """Tie-corrected Kendall distance between two score vectors.

    Parameters
    ----------
    reference, estimate:
        Aligned score vectors; higher score = better rank.

    Returns
    -------
    float in ``[0, 1]``.  When either vector is constant (all one
    bucket) tau-b is undefined; we return 0.5 — order information is
    absent, so the estimate is indistinguishable from a coin flip.
    """
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape or reference.ndim != 1:
        raise MetricError(
            "score vectors must be 1-D and aligned, got shapes "
            f"{reference.shape} and {estimate.shape}"
        )
    if reference.size == 0:
        raise MetricError("score vectors must not be empty")
    if reference.size == 1:
        return 0.0
    if np.all(reference == reference[0]) or np.all(estimate == estimate[0]):
        return 0.5
    # Imported here: scipy.stats costs every importer of repro ~1 s and
    # ~40 MiB (a serving process never computes a Kendall distance).
    from scipy import stats

    tau = stats.kendalltau(reference, estimate).statistic
    if np.isnan(tau):
        return 0.5
    return float((1.0 - tau) / 2.0)
