"""Second-order statistics of complex multichannel data.

Sample covariance and complementary covariance, augmented covariance
assembly, circularity coefficients (canonical correlations between the
data and its conjugate) and rank-r profiles from one principal-basis
engine, PCA rank reduction, and the Hermitian pseudoinverse square root
that whitens a covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _structured, _symmetric_part, _unit_phase, _unit_scaled

__all__ = [
    "CircularitySpectrum",
    "CovariancePair",
    "DEFAULT_RCOND",
    "as_data_matrix",
    "augmented_covariance",
    "circularity_coefficients",
    "circularity_profile",
    "hermitian_inv_sqrt",
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
    reduction to PCA rank r; the coefficients are a 1-D array of that
    many entries.
    """

    coefficients: np.ndarray
    rank_context: int
    sample_count: int

    def __post_init__(self):
        if np.shape(self.coefficients) != (self.rank_context,):
            raise ValueError("coefficients must be a 1-D array of rank_context entries")


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


def sample_covariances(samples) -> CovariancePair:
    """Sample covariance and complementary covariance with 1/M scaling.

    Zero-mean convention: no sample mean is subtracted. The covariance is
    re-Hermitized and the complementary re-symmetrized so the pair
    satisfies its structure exactly, not just to rounding.
    """
    data = as_data_matrix(samples)
    count = data.shape[1]
    covariance = _symmetric_part(data @ data.conj().T / count, hermitian=True)
    complementary = _symmetric_part(data @ data.T / count)
    return CovariancePair(covariance, complementary, count)


def augmented_covariance(pair: CovariancePair) -> np.ndarray:
    """Covariance of the stacked vector [x; conj(x)], assembled on demand."""
    cov, comp = pair.covariance, pair.complementary
    return np.block([[cov, comp], [comp.conj(), cov.conj()]])


def _whitening(hermitian: np.ndarray, rcond: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvectors of a checked, nonzero Hermitian PSD matrix and
    the inverse square roots of their eigenvalues, 0 at or below ``rcond``
    times the largest."""
    values, vectors = np.linalg.eigh(hermitian)
    if values[-1] <= 0.0:
        raise ValueError("rank zero covariance")
    keep = values > rcond * values[-1]
    return vectors, np.where(keep, 1.0 / np.sqrt(np.where(keep, values, 1.0)), 0.0)


def hermitian_inv_sqrt(matrix: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Hermitian (pseudo)inverse square root of a Hermitian PSD matrix.

    Eigenvalues at or below ``rcond`` times the largest are treated as
    zero and their inverse roots set to 0, so near-singular covariances
    yield the inverse root of the retained eigenspace only. The Hermitian
    choice of root keeps whitened complementary covariances complex
    symmetric. ``rcond`` lies in (0, 1); ``matrix`` is checked as the
    README module map says.
    """
    if not 0.0 < rcond < 1.0:
        raise ValueError("rcond must lie in (0, 1)")
    vectors, inv_roots = _whitening(_structured(matrix, True, "matrix"), rcond)
    return _symmetric_part((vectors * inv_roots) @ vectors.conj().T, hermitian=True)


def _principal_spectra(pair: CovariancePair, ranks) -> list[CircularitySpectrum]:
    """Coefficients of the rank-r PCA description for each r in ``ranks``
    (None: r = m only). In the covariance's eigenbasis the rank-r
    covariance is diagonal, so the rank-r coherence matrix is the leading
    r x r block of one whitened, symmetrised m x m coherence matrix, and
    each rank costs one small SVD of its block; eigenvalues at or below
    ``DEFAULT_RCOND`` times the largest get a zero inverse root. One even
    power of two scales the checked pair: every scale gives the same bits."""
    covariance = _structured(pair.covariance, True, "covariance")
    complementary = _structured(pair.complementary, False, "covariance")
    if complementary.shape != covariance.shape:
        shapes = f"{covariance.shape} and {complementary.shape}"
        raise ValueError(f"covariance and complementary covariance differ in shape: {shapes}")
    covariance, complementary = _unit_scaled(np.stack((covariance, complementary)), even=True)
    vectors, inv_roots = _whitening(covariance, DEFAULT_RCOND)
    vectors, inv_roots = vectors[:, ::-1], inv_roots[::-1]
    rotated = _symmetric_part(vectors.conj().T @ complementary @ vectors.conj())
    coherence = _symmetric_part((inv_roots[:, None] * rotated) * inv_roots[None, :])
    spectra = []
    for rank in (inv_roots.size,) if ranks is None else ranks:
        coeffs = np.linalg.svd(coherence[:rank, :rank], compute_uv=False)
        spectra.append(CircularitySpectrum(np.clip(coeffs, 0.0, 1.0), rank, pair.sample_count))
    return spectra


def circularity_coefficients(pair: CovariancePair) -> CircularitySpectrum:
    """Circularity coefficients of a covariance pair.

    Singular values of the coherence matrix (the complementary covariance
    whitened on both sides by the pseudoinverse square root of the
    covariance, cut at ``DEFAULT_RCOND``), sorted descending and clamped to
    [0, 1]: the rank-m spectrum of the engine that ``detect`` uses. The
    pair is checked as the README module map says.
    """
    return _principal_spectra(pair, None)[0]


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
    vectors = np.linalg.eigh(sample_covariances(data).covariance)[1]
    basis = vectors[:, ::-1][:, :rank]
    # rotate each eigenvector so its largest-modulus entry is real positive
    lead = basis[np.argmax(np.abs(basis), axis=0), np.arange(rank)]
    return (basis * _unit_phase(lead).conj()).conj().T @ data


def circularity_profile(samples, r_max: int) -> list[CircularitySpectrum]:
    """Circularity coefficients of the rank-r PCA description, r = 1..r_max.

    Equivalent to pca_reduce -> sample_covariances ->
    circularity_coefficients at every rank, from the engine that ``detect``
    uses: in the principal basis the rank-r covariance is diagonal, so the
    sweep costs one eigendecomposition plus r_max small SVDs. The data are
    first scaled by an exact power of two, as ``detect`` scales them, so the
    profile is the same across the double range and bit-identical under
    power-of-two scaling.
    """
    data = as_data_matrix(samples)
    channels, count = data.shape
    if not 1 <= r_max <= min(channels, count):
        raise ValueError("r_max must lie in 1..min(channels, snapshots)")
    return _principal_spectra(sample_covariances(_unit_scaled(data)), range(1, r_max + 1))
