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

from .numerics import _symmetric_part

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
    covariance = _symmetric_part(data @ data.conj().T / count, hermitian=True)
    complementary = _symmetric_part(data @ data.T / count)
    return CovariancePair(covariance, complementary, count)


def augmented_covariance(pair: CovariancePair) -> np.ndarray:
    """Covariance of the stacked vector [x; conj(x)], assembled on demand."""
    cov, comp = pair.covariance, pair.complementary
    return np.block([[cov, comp], [comp.conj(), cov.conj()]])


def _whitening(matrix, rcond: float, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvectors of a Hermitian PSD matrix and the inverse
    square roots of their eigenvalues, 0 at or below ``rcond`` times the
    largest. The matrix must be nonempty, square, finite, Hermitian within
    1e-8 and nonzero; ``name`` names it in the finiteness error."""
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} is not finite")
    if np.max(np.abs(mat - mat.conj().T)) > 1e-8:
        raise ValueError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(_symmetric_part(mat, hermitian=True))
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
    symmetric.

    Parameters
    ----------
    matrix : ndarray
        Square, finite, Hermitian PSD matrix (max deviation from Hermitian 1e-8).
    rcond : float
        Relative eigenvalue cutoff in (0, 1).
    """
    if not 0.0 < rcond < 1.0:
        raise ValueError("rcond must lie in (0, 1)")
    vectors, inv_roots = _whitening(matrix, rcond, "matrix")
    return _symmetric_part((vectors * inv_roots) @ vectors.conj().T, hermitian=True)


def _principal_spectra(pair: CovariancePair, ranks) -> list[CircularitySpectrum]:
    """Coefficients of the rank-r PCA description for each r in ``ranks``
    (None: r = m only). In the covariance's eigenbasis the rank-r
    covariance is diagonal, so the rank-r coherence matrix is the leading
    r x r block of one whitened, symmetrised m x m coherence matrix, and
    each rank costs one small SVD of its block; eigenvalues at or below
    ``DEFAULT_RCOND`` times the largest get a zero inverse root."""
    if not np.all(np.isfinite(pair.complementary)):
        raise ValueError("covariance is not finite")
    vectors, inv_roots = _whitening(pair.covariance, DEFAULT_RCOND, "covariance")
    vectors, inv_roots = vectors[:, ::-1], inv_roots[::-1]
    rotated = _symmetric_part(vectors.conj().T @ pair.complementary @ vectors.conj())
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
    covariance must be nonempty, square, Hermitian within 1e-8 and nonzero.
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
    scale = np.abs(lead)
    phase = np.where(scale > 0.0, lead / np.where(scale > 0.0, scale, 1.0), 1.0)
    return (basis * phase.conj()).conj().T @ data


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
