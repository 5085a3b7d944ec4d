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


# Running sums of ln(1 - k^2) along the last axis, shared by the tables and the
# per-order functions: head sums run from the largest coefficient (entry d-1
# covers the d largest), tail sums from the smallest (entry s covers the rest)
def _head_sums(logs: np.ndarray) -> np.ndarray:
    return np.cumsum(logs, axis=-1)


def _tail_sums(logs: np.ndarray) -> np.ndarray:
    return np.cumsum(logs[..., ::-1], axis=-1)[..., ::-1]


def itc_fit_term(spectrum: CircularitySpectrum, d: int) -> float:
    """Model-fit part of the criterion at order d: (M/2) * sum of
    ln(1 - k_i^2) over the d largest coefficients; plus ``itc_penalty`` it
    is bit for bit the MDL detectors' score at order d."""
    if not 0 <= d <= spectrum.rank_context:
        raise ValueError("order d out of range")
    if d == 0:
        return 0.0
    heads = _head_sums(_log_residuals(spectrum.coefficients))
    return 0.5 * spectrum.sample_count * float(heads[d - 1])


def itc_penalty(d: int, dim: int, sample_count: int) -> float:
    """Complexity penalty (ln M / 2) * (2*dim*d - d^2 + d).

    The second factor counts the free parameters of a rank-d complex
    symmetric dim x dim matrix via its symmetric SVD: 2*dim*d + d raw
    parameters minus d normalization and d(d-1) orthogonality constraints.
    """
    if not 0 <= d <= dim:
        raise ValueError("order d out of range")
    return 0.5 * math.log(sample_count) * float(2 * dim * d - d * d + d)


def _padded_logs(spectra, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ln(1 - k^2) of each rank-r spectrum's r coefficients, one row per
    # spectrum, zero-padded to the widest r (ln 1 = 0 exactly, so cumulative
    # sums along a row equal the unpadded ones), and the mask of the cells
    # at orders below r
    valid = np.arange(ranks.max()) < ranks[:, None]
    logs = np.zeros(valid.shape)
    logs[valid] = _log_residuals(np.concatenate([spectrum.coefficients for spectrum in spectra]))
    return logs, valid


def _mdl_table(spectra, ranks: np.ndarray, sample_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Criterion at orders d < r of each (spectrum, r) row, NaN at d >= r,
    and each row's smallest minimizer: the one kernel of both MDL detectors."""
    logs, valid = _padded_logs(spectra, ranks)
    orders = np.arange(logs.shape[1], dtype=float)
    scores = (2.0 * ranks)[:, None] * orders - orders * orders + orders
    scores *= 0.5 * math.log(sample_count)
    scores[:, 1:] += 0.5 * sample_count * _head_sums(logs[:, :-1])
    invalid = ~valid
    scores[invalid] = np.inf
    winners = scores.argmin(axis=1)
    scores[invalid] = np.nan
    return scores, winners


def mdl_itc_full(spectrum: CircularitySpectrum) -> DetectionResult:
    """Smallest minimizer of the criterion over d = 0..m-1 on a full-space
    spectrum.

    Meaningful when the snapshot count is well above twice the channel
    count; below that, rank deficiency inflates the sample coefficients
    and the reduced-rank variant should be used instead.
    """
    ranks = np.array([spectrum.rank_context])
    scores, winners = _mdl_table([spectrum], ranks, spectrum.sample_count)
    return DetectionResult(estimate=int(winners[0]), scores=scores[0])


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
    scores, winners = _mdl_table(profile[:r_max], np.arange(1, r_max + 1), sample_count)
    estimate = int(winners.max())
    selected_rank = int(np.argmax(winners == estimate)) + 1
    return ItcDiagnostics(scores, winners, selected_rank, estimate)


def wilks_statistic(spectrum: CircularitySpectrum, s: int) -> tuple[float, int]:
    """Likelihood-ratio statistic for "exactly s improper components".

    Returns (-M * sum of ln(1 - k_i^2) over the tail i > s, df) with
    df = (m - s)(m - s + 1); asymptotically chi-squared under the null.
    The statistic is bit for bit ``glrt_full``'s at order s.
    """
    return _tail_statistic(spectrum, s, spectrum.sample_count, "derived")


def _tail_statistic(spectrum, s: int, multiplier: int, df_rule: str) -> tuple[float, int]:
    rank = spectrum.rank_context
    if not 0 <= s < rank:
        raise ValueError("tested order s out of range")
    tails = _tail_sums(_log_residuals(spectrum.coefficients))
    return -float(multiplier) * float(tails[s]), _box_df(rank, s, df_rule)


def _check_df_rule(df_rule: str) -> None:
    if df_rule not in DF_RULES:
        raise ValueError(f"unknown df_rule {df_rule!r}; expected one of {DF_RULES}")


def _box_df(rank: int, s: int, df_rule: str) -> int:
    _check_df_rule(df_rule)
    return (rank - s if df_rule == "derived" else rank - 1) * (rank - s + 1)


def box_statistic(
    spectrum: CircularitySpectrum, s: int, df_rule: str = "derived"
) -> tuple[float, int]:
    """Small-sample corrected statistic on a rank-r spectrum.

    The multiplier is (M - r) instead of M, which keeps the chi-squared
    approximation usable at much smaller sample counts. ``df_rule``
    selects the degree-of-freedom count: "derived" gives (r-s)(r-s+1)
    (consistent with the full-sample d.f. at r = m), "printed" gives
    (r-1)(r-s+1) for comparison. The printed rule gives 0 d.f. at r = 1,
    where the threshold is 0 and the test always rejects. The statistic
    is bit for bit ``glrt_reduced``'s at rank r and order s.
    """
    if spectrum.rank_context >= spectrum.sample_count:
        raise ValueError("rank must be smaller than the sample count")
    return _tail_statistic(spectrum, s, spectrum.sample_count - spectrum.rank_context, df_rule)


@lru_cache(maxsize=32)
def _threshold_table(width: int, df_rule: str, p_fa: float) -> np.ndarray:
    # read-only: row r-1 holds rank r's thresholds at orders s < r, NaN after;
    # each distinct d.f. is inverted once. The "printed" rule yields df = 0 at
    # rank 1; a zero-d.f. chi-squared is a point mass at 0, so any sub-1
    # quantile is 0 (the test then always rejects there, since the statistic
    # is nonnegative)
    ranks = np.arange(1, width + 1)[:, None]
    valid = np.arange(width) < ranks
    dfs, cells = np.unique(_box_df(ranks, np.arange(width), df_rule)[valid], return_inverse=True)
    table = np.full((width, width), np.nan)
    quantiles = [_chi2_inverse(int(df), p_fa, upper=True) if df else 0.0 for df in dfs]
    table[valid] = np.array(quantiles)[cells]
    table.flags.writeable = False
    return table


def _test_table(
    spectra, ranks: np.ndarray, multipliers: np.ndarray, df_rule: str, p_fa: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Statistics -multiplier * sum_{i>s} ln(1 - k_i^2) at orders s < r of
    each (spectrum, r) row, their thresholds at 1 - p_fa (both NaN at
    s >= r), and each row's first accepted order (r when every order is
    rejected): the one kernel of both tests."""
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie strictly between 0 and 1")
    logs, valid = _padded_logs(spectra, ranks)
    # fancy indexing copies, so a caller's writes never reach the cache
    thresholds = _threshold_table(logs.shape[1], df_rule, p_fa)[ranks - 1]
    # the padded zeros are summed first, so every tail sum is exact
    statistics = np.where(valid, -multipliers[:, None] * _tail_sums(logs), np.nan)
    accepted = statistics < thresholds
    return statistics, thresholds, np.where(accepted.any(axis=1), accepted.argmax(axis=1), ranks)


def glrt_full(spectrum: CircularitySpectrum, p_fa: float) -> DetectionResult:
    """Sequential tests on a full-space spectrum.

    Starting at order 0, accept the first s whose statistic falls below
    the chi-squared quantile at 1 - p_fa; if every s up to m - 1 is
    rejected the estimate saturates at m. This is the reduced-rank test's
    row at r = m, with multiplier M and the "derived" d.f. (m-s)(m-s+1).
    """
    ranks = np.array([spectrum.rank_context])
    multipliers = np.array([spectrum.sample_count], dtype=float)
    statistics, thresholds, stops = _test_table([spectrum], ranks, multipliers, "derived", p_fa)
    return DetectionResult(int(stops[0]), statistics=statistics[0], thresholds=thresholds[0])


def glrt_reduced(
    profile: Sequence[CircularitySpectrum],
    r_max: int,
    p_fa: float,
    df_rule: str = "derived",
) -> GlrtDiagnostics:
    """Per-rank sequential tests with the small-sample statistic.

    Each rank stops at its smallest accepted order (or saturates at r);
    the estimate is the maximum stop over ranks 1..r_max and the selected
    rank the smallest one attaining it. Under ``df_rule="printed"`` rank 1
    has 0 d.f. and threshold 0, so it always rejects, stops at 1, and the
    estimate is never 0.
    """
    if not 1 <= r_max <= len(profile):
        raise ValueError("r_max must lie in 1..len(profile)")
    if r_max >= profile[0].sample_count:
        raise ValueError("r_max must be smaller than the sample count")
    ranks = np.arange(1, r_max + 1)
    multipliers = np.array([spectrum.sample_count for spectrum in profile[:r_max]], float) - ranks
    statistics, thresholds, stops = _test_table(profile[:r_max], ranks, multipliers, df_rule, p_fa)
    estimate = int(stops.max())
    selected_rank = int(np.argmax(stops == estimate)) + 1
    return GlrtDiagnostics(statistics, thresholds, float(p_fa), stops, selected_rank, estimate)
