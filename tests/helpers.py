"""Shared scenario factories, random-data strategies and
one-rank-at-a-time reference implementations for the test suite."""

import math

import numpy as np
from hypothesis import strategies as st

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
from improperdim.detectors import _box_df, _log_residuals
from improperdim.numerics import _chi2_inverse

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


@st.composite
def improper_data(draw, counts):
    """Random improper m x M data, m from 1 to 12 and M drawn from
    ``counts(m)``: m sources of random circularity, randomly mixed."""
    size = draw(st.integers(1, 12))
    count = draw(counts(size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circularities = rng.uniform(0.0, 1.0, size)[:, None]
    sources = rng.standard_normal((size, count)) + 1j * circularities * rng.standard_normal(
        (size, count)
    )
    mixing = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return mixing @ sources


@st.composite
def detector_inputs(draw):
    """Random improper m x M data, from M below 2m (forced unit
    coefficients) to 30m, with r_max from 1 to min(m, M - 1)."""
    data = draw(improper_data(lambda size: st.integers(2, 30 * size)))
    size, count = data.shape
    return data, draw(st.integers(1, min(size, count - 1)))


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
    dfs = [_box_df(rank, s, df_rule) for s in range(rank)]
    thresholds = np.array([_chi2_inverse(df, p_fa, upper=True) if df else 0.0 for df in dfs])
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


def reference_detection_report(result, detector, channels, count, p_fa=None):
    """The detection report built by four branches on the result type: the
    layout ``format_detection_report`` must keep byte for byte."""
    head = f"detector: {detector}"
    if p_fa is not None and detector.startswith("glrt"):
        head += f" (p_fa={p_fa!r})"
    lines = [head, f"dataset: m={channels}, M={count}"]
    if detector in ("itc_full", "glrt_full") and count < 2 * channels:
        lines.append(
            "note: M < 2m snapshots; full-sample estimates are unreliable in this "
            "regime (rank deficiency forces sample circularity coefficients to 1), "
            "consider itc_rr or glrt_rr"
        )
    lines.append(f"estimated improper dimension: {result.estimate}")
    if getattr(result, "selected_rank", None) is not None:
        lines.append(f"selected PCA rank: {result.selected_rank}")
    if isinstance(result, ItcDiagnostics):
        lines.append("rank  d_hat     score")
        for rank in range(1, result.per_rank_argmin.size + 1):
            order = int(result.per_rank_argmin[rank - 1])
            lines.append(f"{rank:4d}  {order:5d}  {result.scores[rank - 1, order]: .6g}")
    elif isinstance(result, GlrtDiagnostics):
        lines.append("rank  d_hat  statistic  threshold")
        for rank in range(1, result.per_rank_stop.size + 1):
            stop = int(result.per_rank_stop[rank - 1])
            probe = min(stop, rank - 1)
            note = "" if stop < rank else "  (no order accepted)"
            lines.append(
                f"{rank:4d}  {stop:5d}  {result.statistics[rank - 1, probe]: .6g}"
                f"  {result.thresholds[rank - 1, probe]: .6g}{note}"
            )
    elif result.scores is not None:
        lines.append("order     score")
        for order, score in enumerate(result.scores):
            marker = "  *" if order == result.estimate else ""
            lines.append(f"{order:5d}  {score: .6g}{marker}")
    else:
        lines.append("order  statistic  threshold  verdict")
        for order, (statistic, threshold) in enumerate(zip(result.statistics, result.thresholds)):
            verdict = "accept" if statistic < threshold else "reject"
            lines.append(f"{order:5d}  {statistic: .6g}  {threshold: .6g}  {verdict}")
        if result.estimate == result.statistics.size:
            lines.append("(every order rejected; estimate saturates at m)")
    return "\n".join(lines)


def result_bytes(result):
    """Every field of a detector result, arrays as (dtype, shape, bytes)."""
    return {
        name: (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.ndarray)
        else value
        for name, value in vars(result).items()
    }
