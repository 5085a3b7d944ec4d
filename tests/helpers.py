"""Shared scenario factories and one-rank-at-a-time reference
implementations for the test suite."""

import math

import numpy as np

from improperdim import (
    DEFAULT_RCOND,
    CircularitySpectrum,
    DetectionResult,
    GlrtDiagnostics,
    ItcDiagnostics,
    NoiseSpec,
    ScenarioConfig,
    SourceSpec,
)
from improperdim.detectors import _box_df, _log_residuals, _threshold

AR_COEFFICIENTS = (0.5, math.sqrt(7.0) / 4.0, 0.5, 0.25)


def array_scenario(noise_kind="white", snapshot_count=1000, seed=0):
    """Reference benchmark: 60-sensor ULA, four improper sources of variance 5
    with circularity coefficients 1/0.9/0.8/0.6 at 10/15/20/25 degrees, and
    unit-variance white noise or AR(4)-colored noise with innovation
    variance 1/4."""
    if noise_kind == "white":
        noise = NoiseSpec("white", 1.0)
    else:
        noise = NoiseSpec("spatial_ar", 0.25, AR_COEFFICIENTS)
    return ScenarioConfig(
        sensor_count=60,
        angles_deg=(10.0, 15.0, 20.0, 25.0),
        sources=tuple(SourceSpec(5.0, k) for k in (1.0, 0.9, 0.8, 0.6)),
        noise=noise,
        snapshot_count=snapshot_count,
        seed=seed,
    )


def small_scenario(
    sensor_count=8,
    circularities=(0.9, 0.7),
    variances=None,
    angles=(40.0, 70.0),
    snapshot_count=2000,
    seed=0,
    noise_variance=1.0,
):
    """Small improper scenario for fast tests."""
    if variances is None:
        variances = tuple(5.0 for _ in circularities)
    return ScenarioConfig(
        sensor_count=sensor_count,
        angles_deg=tuple(angles),
        sources=tuple(SourceSpec(v, k) for v, k in zip(variances, circularities)),
        noise=NoiseSpec("white", noise_variance),
        snapshot_count=snapshot_count,
        seed=seed,
    )


def proper_scenario(sensor_count=6, snapshot_count=1000, seed=0, noise_variance=1.0):
    """Noise-only scenario (no improper components)."""
    return ScenarioConfig(
        sensor_count=sensor_count,
        angles_deg=(),
        sources=(),
        noise=NoiseSpec("white", noise_variance),
        snapshot_count=snapshot_count,
        seed=seed,
    )


def reference_spectra(pair, ranks):
    """Rank-r coefficients built one rank at a time: each rank whitens and
    symmetrises its own leading block of the rotated complementary
    covariance."""
    cov = pair.covariance
    values, vectors = np.linalg.eigh(0.5 * (cov + cov.conj().T))
    values, vectors = values[::-1], vectors[:, ::-1]
    rotated = vectors.conj().T @ pair.complementary @ vectors.conj()
    rotated = 0.5 * (rotated + rotated.T)
    spectra = []
    for rank in ranks:
        leading = values[:rank]
        keep = leading > DEFAULT_RCOND * values[0]
        inv_roots = np.where(keep, 1.0 / np.sqrt(np.where(keep, leading, 1.0)), 0.0)
        coherence = (inv_roots[:, None] * rotated[:rank, :rank]) * inv_roots[None, :]
        coeffs = np.linalg.svd(0.5 * (coherence + coherence.T), compute_uv=False)
        spectra.append(CircularitySpectrum(np.clip(coeffs, 0.0, 1.0), rank, pair.sample_count))
    return spectra


def score_row(spectrum, dim, sample_count):
    """The MDL criterion over d = 0..dim-1 of one spectrum."""
    logs = _log_residuals(spectrum.coefficients)
    fit = 0.5 * sample_count * np.concatenate(([0.0], np.cumsum(logs)))[:dim]
    orders = np.arange(dim, dtype=float)
    penalty = 0.5 * math.log(sample_count) * (2.0 * dim * orders - orders * orders + orders)
    return fit + penalty


def glrt_row(spectrum, multiplier, df_rule, p_fa):
    """Statistics, thresholds and first accepted order (r when every order
    is rejected) of one rank-r spectrum."""
    rank = spectrum.rank_context
    logs = _log_residuals(spectrum.coefficients)
    statistics = -float(multiplier) * np.cumsum(logs[::-1])[::-1]
    thresholds = np.array([_threshold(_box_df(rank, s, df_rule), p_fa) for s in range(rank)])
    accepted = statistics < thresholds
    return statistics, thresholds, int(np.argmax(accepted)) if accepted.any() else rank


def reference_mdl_itc_full(spectrum):
    scores = score_row(spectrum, spectrum.rank_context, spectrum.sample_count)
    return DetectionResult(estimate=int(np.argmin(scores)), scores=scores)


def reference_mdl_itc_reduced(profile, r_max, sample_count):
    scores = np.full((r_max, r_max), np.nan)
    winners = np.zeros(r_max, dtype=int)
    for rank in range(1, r_max + 1):
        row = score_row(profile[rank - 1], rank, sample_count)
        scores[rank - 1, :rank] = row
        winners[rank - 1] = int(np.argmin(row))
    estimate = int(winners.max())
    return ItcDiagnostics(scores, winners, int(np.argmax(winners == estimate)) + 1, estimate)


def reference_glrt_full(spectrum, p_fa):
    statistics, thresholds, estimate = glrt_row(spectrum, spectrum.sample_count, "derived", p_fa)
    return DetectionResult(estimate=estimate, statistics=statistics, thresholds=thresholds)


def reference_glrt_reduced(profile, r_max, p_fa, df_rule):
    statistics = np.full((r_max, r_max), np.nan)
    thresholds = np.full((r_max, r_max), np.nan)
    stops = np.zeros(r_max, dtype=int)
    for rank in range(1, r_max + 1):
        spectrum = profile[rank - 1]
        statistics[rank - 1, :rank], thresholds[rank - 1, :rank], stops[rank - 1] = glrt_row(
            spectrum, spectrum.sample_count - rank, df_rule, p_fa
        )
    estimate = int(stops.max())
    selected_rank = int(np.argmax(stops == estimate)) + 1
    return GlrtDiagnostics(statistics, thresholds, float(p_fa), stops, selected_rank, estimate)


def result_bytes(result):
    """Every field of a detector result, arrays as (dtype, shape, bytes)."""
    return {
        name: (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.ndarray)
        else value
        for name, value in vars(result).items()
    }
