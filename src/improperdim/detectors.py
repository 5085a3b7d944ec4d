"""Estimators of the number of improper components.

Two families, each in a full-sample and a reduced-rank variant:

* an MDL information criterion minimized over the candidate order, and
* a sequence of likelihood-ratio tests stopped at the first accepted order.

The reduced-rank variants scan PCA ranks r = 1..r_max, take each rank's
decision, and keep the maximum: the per-rank step does not overfit, while
too-small ranks can miss weak components, so the outer maximum recovers
them and the rank attaining it is the selected rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .numerics import _chi2_inverse
from .stats import CircularitySpectrum

__all__ = [
    "DF_RULES",
    "DetectionResult",
    "GlrtDiagnostics",
    "ItcDiagnostics",
    "box_statistic",
    "glrt_full",
    "glrt_reduced",
    "itc_fit_term",
    "itc_penalty",
    "mdl_itc_full",
    "mdl_itc_reduced",
    "wilks_statistic",
]

# floor for 1 - k^2 before taking logs; coefficients exactly 1 (forced in
# rank-deficient regimes) then give huge-but-finite scores
LOG_FLOOR = 1e-300

DF_RULES = ("derived", "printed")


@dataclass(frozen=True)
class DetectionResult:
    """Estimate of a full-sample detector plus its diagnostic table.

    ``scores`` holds the criterion values over d (MDL variant);
    ``statistics``/``thresholds`` hold the test sequence (GLRT variant).
    """

    estimate: int
    selected_rank: int | None = None
    scores: np.ndarray | None = None
    statistics: np.ndarray | None = None
    thresholds: np.ndarray | None = None


@dataclass(frozen=True)
class ItcDiagnostics:
    """Reduced-rank MDL table.

    ``scores[r-1, d]`` is the rank-r criterion at order d for d < r (NaN
    elsewhere); ``per_rank_argmin[r-1]`` is that row's smallest minimizer.
    ``estimate`` is the maximum over rows and ``selected_rank`` the
    smallest rank attaining it.
    """

    scores: np.ndarray
    per_rank_argmin: np.ndarray
    selected_rank: int
    estimate: int


@dataclass(frozen=True)
class GlrtDiagnostics:
    """Reduced-rank test tables.

    ``statistics[r-1, s]`` and ``thresholds[r-1, s]`` cover s < r (NaN
    elsewhere); ``per_rank_stop[r-1]`` is the smallest accepted order at
    rank r, or r when every order is rejected.
    """

    statistics: np.ndarray
    thresholds: np.ndarray
    p_fa: float
    per_rank_stop: np.ndarray
    selected_rank: int
    estimate: int


def _log_residuals(coefficients: np.ndarray) -> np.ndarray:
    k = np.asarray(coefficients, dtype=float)
    return np.log(np.maximum((1.0 - k) * (1.0 + k), LOG_FLOOR))


def itc_fit_term(spectrum: CircularitySpectrum, d: int) -> float:
    """Model-fit part of the criterion at order d:
    (M/2) * sum of ln(1 - k_i^2) over the d largest coefficients."""
    if not 0 <= d <= spectrum.rank_context:
        raise ValueError("order d out of range")
    if d == 0:
        return 0.0
    return 0.5 * spectrum.sample_count * float(np.sum(_log_residuals(spectrum.coefficients[:d])))


def itc_penalty(d: int, dim: int, sample_count: int) -> float:
    """Complexity penalty (ln M / 2) * (2*dim*d - d^2 + d).

    The second factor counts the free parameters of a rank-d complex
    symmetric dim x dim matrix via its symmetric SVD: 2*dim*d + d raw
    parameters minus d normalization and d(d-1) orthogonality constraints.
    """
    if not 0 <= d <= dim:
        raise ValueError("order d out of range")
    return 0.5 * math.log(sample_count) * float(2 * dim * d - d * d + d)


def _score_row(spectrum: CircularitySpectrum, dim: int, sample_count: int) -> np.ndarray:
    # criterion over d = 0..dim-1; cumulative sums give all fit terms at once
    logs = _log_residuals(spectrum.coefficients)
    fit = 0.5 * sample_count * np.concatenate(([0.0], np.cumsum(logs)))[:dim]
    orders = np.arange(dim, dtype=float)
    penalty = 0.5 * math.log(sample_count) * (2.0 * dim * orders - orders * orders + orders)
    return fit + penalty


def mdl_itc_full(spectrum: CircularitySpectrum) -> DetectionResult:
    """Smallest minimizer of the criterion over d = 0..m-1 on a full-space
    spectrum.

    Meaningful when the snapshot count is well above twice the channel
    count; below that, rank deficiency inflates the sample coefficients
    and the reduced-rank variant should be used instead.
    """
    size = spectrum.rank_context
    scores = _score_row(spectrum, size, spectrum.sample_count)
    return DetectionResult(estimate=int(np.argmin(scores)), scores=scores)


def mdl_itc_reduced(
    profile: Sequence[CircularitySpectrum], r_max: int, sample_count: int
) -> ItcDiagnostics:
    """Joint rank selection and order estimation from a circularity profile.

    For each rank r = 1..r_max the criterion is minimized over d = 0..r-1
    (ties toward smaller d); the estimate is the maximum over ranks and
    the selected rank the smallest one attaining it.
    """
    if not 1 <= r_max <= len(profile):
        raise ValueError("r_max must lie in 1..len(profile)")
    scores = np.full((r_max, r_max), np.nan)
    winners = np.zeros(r_max, dtype=int)
    for rank in range(1, r_max + 1):
        row = _score_row(profile[rank - 1], rank, sample_count)
        scores[rank - 1, :rank] = row
        winners[rank - 1] = int(np.argmin(row))
    estimate = int(winners.max())
    selected_rank = int(np.argmax(winners == estimate)) + 1
    return ItcDiagnostics(scores, winners, selected_rank, estimate)


def wilks_statistic(spectrum: CircularitySpectrum, s: int) -> tuple[float, int]:
    """Likelihood-ratio statistic for "exactly s improper components".

    Returns (-M * sum of ln(1 - k_i^2) over the tail i > s, df) with
    df = (m - s)(m - s + 1); asymptotically chi-squared under the null.
    """
    size = spectrum.rank_context
    if not 0 <= s < size:
        raise ValueError("tested order s out of range")
    statistic = -float(spectrum.sample_count) * float(
        np.sum(_log_residuals(spectrum.coefficients[s:]))
    )
    return statistic, _box_df(size, s, "derived")


def _box_df(rank: int, s: int, df_rule: str) -> int:
    if df_rule == "derived":
        return (rank - s) * (rank - s + 1)
    if df_rule == "printed":
        return (rank - 1) * (rank - s + 1)
    raise ValueError(f"unknown df_rule {df_rule!r}; expected one of {DF_RULES}")


def box_statistic(
    spectrum: CircularitySpectrum, s: int, df_rule: str = "derived"
) -> tuple[float, int]:
    """Small-sample corrected statistic on a rank-r spectrum.

    The multiplier is (M - r) instead of M, which keeps the chi-squared
    approximation usable at much smaller sample counts. ``df_rule``
    selects the degree-of-freedom count: "derived" gives (r-s)(r-s+1)
    (consistent with the full-sample d.f. at r = m), "printed" gives
    (r-1)(r-s+1) for comparison.
    """
    rank = spectrum.rank_context
    count = spectrum.sample_count
    if not 0 <= s < rank:
        raise ValueError("tested order s out of range")
    if rank >= count:
        raise ValueError("rank must be smaller than the sample count")
    statistic = -float(count - rank) * float(np.sum(_log_residuals(spectrum.coefficients[s:])))
    return statistic, _box_df(rank, s, df_rule)


@lru_cache(maxsize=None)
def _threshold(df: int, p_fa: float) -> float:
    # the "printed" rule yields df = 0 at rank 1; a zero-d.f. chi-squared is
    # a point mass at 0, so any sub-1 quantile is 0 (the test then always
    # rejects there, since the statistic is nonnegative)
    if df == 0:
        return 0.0
    return _chi2_inverse(df, p_fa, upper=True)


def _glrt_row(
    spectrum: CircularitySpectrum, multiplier: float, df_rule: str, p_fa: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Statistics -multiplier * sum_{i>s} ln(1 - k_i^2) of a rank-r spectrum,
    their thresholds at 1 - p_fa for s = 0..r-1, and the first accepted
    order (r when every order is rejected)."""
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie strictly between 0 and 1")
    rank = spectrum.rank_context
    logs = _log_residuals(spectrum.coefficients)
    statistics = -float(multiplier) * np.cumsum(logs[::-1])[::-1]
    thresholds = np.array([_threshold(_box_df(rank, s, df_rule), p_fa) for s in range(rank)])
    accepted = statistics < thresholds
    return statistics, thresholds, int(np.argmax(accepted)) if accepted.any() else rank


def glrt_full(spectrum: CircularitySpectrum, p_fa: float) -> DetectionResult:
    """Sequential tests on a full-space spectrum.

    Starting at order 0, accept the first s whose statistic falls below
    the chi-squared quantile at 1 - p_fa; if every s up to m - 1 is
    rejected the estimate saturates at m. This is the reduced-rank test's
    row at r = m, with multiplier M and the "derived" d.f. (m-s)(m-s+1).
    """
    statistics, thresholds, estimate = _glrt_row(spectrum, spectrum.sample_count, "derived", p_fa)
    return DetectionResult(estimate=estimate, statistics=statistics, thresholds=thresholds)


def glrt_reduced(
    profile: Sequence[CircularitySpectrum],
    r_max: int,
    p_fa: float,
    df_rule: str = "derived",
) -> GlrtDiagnostics:
    """Per-rank sequential tests with the small-sample statistic.

    Each rank stops at its smallest accepted order (or saturates at r);
    the estimate is the maximum stop over ranks 1..r_max and the selected
    rank the smallest one attaining it.
    """
    if not 1 <= r_max <= len(profile):
        raise ValueError("r_max must lie in 1..len(profile)")
    if r_max >= profile[0].sample_count:
        raise ValueError("r_max must be smaller than the sample count")
    statistics = np.full((r_max, r_max), np.nan)
    thresholds = np.full((r_max, r_max), np.nan)
    stops = np.zeros(r_max, dtype=int)
    for rank in range(1, r_max + 1):
        spectrum = profile[rank - 1]
        statistics[rank - 1, :rank], thresholds[rank - 1, :rank], stops[rank - 1] = _glrt_row(
            spectrum, spectrum.sample_count - rank, df_rule, p_fa
        )
    estimate = int(stops.max())
    selected_rank = int(np.argmax(stops == estimate)) + 1
    return GlrtDiagnostics(statistics, thresholds, float(p_fa), stops, selected_rank, estimate)
