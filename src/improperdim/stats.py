"""Second-order statistics of complex multichannel data.

Sample covariance and complementary covariance, augmented covariance
assembly, circularity coefficients (canonical correlations between the
data and its conjugate) and rank-r profiles from one principal-basis
engine, and PCA rank reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CircularitySpectrum",
    "CovariancePair",
    "DEFAULT_RCOND",
    "as_data_matrix",
    "augmented_covariance",
    "circularity_coefficients",
    "circularity_profile",
    "pca_reduce",
    "sample_covariances",
]

DEFAULT_RCOND = 1e-12


@dataclass(frozen=True)
class CovariancePair:
    """Sample covariance (Hermitian) and complementary covariance
    (complex symmetric) of one data matrix, with the snapshot count they
    were estimated from."""

    covariance: np.ndarray
    complementary: np.ndarray
    sample_count: int


@dataclass(frozen=True)
class CircularitySpectrum:
    """Descending circularity coefficients in [0, 1].

    ``rank_context`` is the dimension of the space the coefficients were
    computed in: the channel count for full-space estimates, or r after
    reduction to PCA rank r.
    """

    coefficients: np.ndarray
    rank_context: int
    sample_count: int


def as_data_matrix(samples) -> np.ndarray:
    """Validate and return a complex channels-by-snapshots matrix."""
    data = np.asarray(samples, dtype=np.complex128)
    if data.ndim != 2:
        raise ValueError("data matrix must be 2-D (channels x snapshots)")
    if data.shape[0] < 1 or data.shape[1] < 1:
        raise ValueError("data matrix needs at least one channel and one snapshot")
    if not np.all(np.isfinite(data.real)) or not np.all(np.isfinite(data.imag)):
        raise ValueError("data matrix contains non-finite entries")
    return data


def _unit_scaled(data: np.ndarray) -> np.ndarray:
    """``data`` times the power of two that puts its largest real or
    imaginary part in [0.5, 1): exact, and the coefficients are scale
    invariant, so covariances stay clear of overflow and underflow."""
    parts = np.ascontiguousarray(data).view(np.float64)
    return np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(np.complex128)


def sample_covariances(samples) -> CovariancePair:
    """Sample covariance and complementary covariance with 1/M scaling.

    Zero-mean convention: no sample mean is subtracted. The covariance is
    re-Hermitized and the complementary re-symmetrized so the pair
    satisfies its structure exactly, not just to rounding.
    """
    data = as_data_matrix(samples)
    count = data.shape[1]
    covariance = data @ data.conj().T / count
    complementary = data @ data.T / count
    return CovariancePair(
        covariance=0.5 * (covariance + covariance.conj().T),
        complementary=0.5 * (complementary + complementary.T),
        sample_count=count,
    )


def augmented_covariance(pair: CovariancePair) -> np.ndarray:
    """Covariance of the stacked vector [x; conj(x)], assembled on demand."""
    cov, comp = pair.covariance, pair.complementary
    return np.block([[cov, comp], [comp.conj(), cov.conj()]])


def _principal_spectra(pair: CovariancePair, ranks) -> list[CircularitySpectrum]:
    """Coefficients of the rank-r PCA description for each r in ``ranks``
    (None: r = m only). In the covariance's eigenbasis the rank-r
    covariance is diagonal, so the rank-r coherence matrix is the leading
    r x r block of one whitened, symmetrised m x m coherence matrix, and
    each rank costs one small SVD of its block; eigenvalues at or below
    ``DEFAULT_RCOND`` times the largest get a zero inverse root."""
    cov = np.asarray(pair.covariance, dtype=np.complex128)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    if not (np.all(np.isfinite(cov)) and np.all(np.isfinite(pair.complementary))):
        raise ValueError("covariance is not finite")
    if np.max(np.abs(cov - cov.conj().T)) > 1e-8:
        raise ValueError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(0.5 * (cov + cov.conj().T))
    values, vectors = values[::-1], vectors[:, ::-1]
    if values[0] <= 0.0:
        raise ValueError("rank zero covariance")
    rotated = vectors.conj().T @ pair.complementary @ vectors.conj()
    rotated = 0.5 * (rotated + rotated.T)
    keep = values > DEFAULT_RCOND * values[0]
    inv_roots = np.where(keep, 1.0 / np.sqrt(np.where(keep, values, 1.0)), 0.0)
    coherence = (inv_roots[:, None] * rotated) * inv_roots[None, :]
    coherence = 0.5 * (coherence + coherence.T)
    spectra = []
    for rank in (cov.shape[0],) if ranks is None else ranks:
        coeffs = np.linalg.svd(coherence[:rank, :rank], compute_uv=False)
        spectra.append(CircularitySpectrum(np.clip(coeffs, 0.0, 1.0), rank, pair.sample_count))
    return spectra


def circularity_coefficients(pair: CovariancePair) -> CircularitySpectrum:
    """Circularity coefficients of a covariance pair.

    Singular values of the coherence matrix (the complementary covariance
    whitened on both sides by the pseudoinverse square root of the
    covariance, cut at ``DEFAULT_RCOND``), sorted descending and clamped to
    [0, 1]: the rank-m entry of ``circularity_profile``'s engine. The
    covariance must be nonempty, square, Hermitian within 1e-8 and nonzero.
    """
    return _principal_spectra(pair, None)[0]


def _principal_basis(covariance: np.ndarray, rank: int) -> np.ndarray:
    values, vectors = np.linalg.eigh(covariance)
    basis = vectors[:, ::-1][:, :rank]
    # rotate each eigenvector so its largest-modulus entry is real positive
    lead = basis[np.argmax(np.abs(basis), axis=0), np.arange(rank)]
    scale = np.abs(lead)
    phase = np.where(scale > 0.0, lead / np.where(scale > 0.0, scale, 1.0), 1.0)
    return basis * phase.conj()


def pca_reduce(samples, rank: int) -> np.ndarray:
    """Project the data onto its ``rank`` leading principal directions.

    Eigenvectors of the sample covariance are taken in descending
    eigenvalue order with a deterministic phase convention (largest
    modulus entry rotated real positive), so the output is reproducible
    across platforms.
    """
    data = as_data_matrix(samples)
    channels, count = data.shape
    if not 1 <= rank <= min(channels, count):
        raise ValueError("rank must lie in 1..min(channels, snapshots)")
    pair = sample_covariances(data)
    return _principal_basis(pair.covariance, rank).conj().T @ data


def circularity_profile(samples, r_max: int) -> list[CircularitySpectrum]:
    """Circularity coefficients of the rank-r PCA description, r = 1..r_max.

    Equivalent to pca_reduce -> sample_covariances ->
    circularity_coefficients at every rank, and the same engine: in the
    principal basis the rank-r covariance is diagonal, so the sweep costs
    one eigendecomposition plus r_max small SVDs. The data are first
    scaled by an exact power of two, so the profile is the same across the
    double range and bit-identical under power-of-two scaling.
    """
    data = as_data_matrix(samples)
    channels, count = data.shape
    if not 1 <= r_max <= min(channels, count):
        raise ValueError("r_max must lie in 1..min(channels, snapshots)")
    return _principal_spectra(sample_covariances(_unit_scaled(data)), range(1, r_max + 1))
