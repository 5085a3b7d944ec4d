"""Numerical primitives behind the detectors.

Chi-squared quantiles (own regularized incomplete gamma and Newton
inversion; GLRT thresholds invert the upper tail directly) and the
Takagi factorization of complex symmetric matrices, from one symmetric
eigendecomposition and one QR. Everything here needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TakagiFactorization",
    "chi2_quantile",
    "regularized_gamma_p",
    "takagi",
]

_MAX_ITER = 10_000
_REL_EPS = 1e-16


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    Power series for x < a + 1, modified Lentz continued fraction for the
    upper tail otherwise; roughly 1e-14 relative accuracy in double
    precision.

    Parameters
    ----------
    a : float
        Shape parameter, must be positive.
    x : float
        Nonnegative evaluation point.
    """
    if a <= 0.0:
        raise ValueError("shape parameter a must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        k = a
        for _ in range(_MAX_ITER):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * _REL_EPS:
                break
        return min(1.0, total * math.exp(-x + a * math.log(x) - math.lgamma(a)))
    return max(0.0, 1.0 - _regularized_gamma_q(a, x))


def _regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x); for x >= a + 1 by Lentz's algorithm for its
    continued fraction, which keeps its relative accuracy where P rounds
    to 1."""
    if x < a + 1.0:
        return 1.0 - regularized_gamma_p(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _chi2_pdf(df: int, x: float) -> float:
    if x <= 0.0:
        return 0.0
    a = 0.5 * df
    # log(0.5 * x) would fail: half a subnormal x rounds to 0
    return math.exp((a - 1.0) * math.log(x) - 0.5 * x - a * math.log(2.0) - math.lgamma(a))


def chi2_quantile(df: int, p: float) -> float:
    """Quantile of the chi-squared distribution with ``df`` degrees of freedom.

    Returns x with P(df/2, x/2) = ``p`` (regularized lower incomplete
    gamma). One loop takes Newton steps on log P - log p, which keeps the
    power-law lower tail to a few steps, from the Wilson-Hilferty start or
    the lower bound 2 (p Gamma(df/2 + 1))^(2/df), whichever is larger.
    Each evaluation narrows a bracket [lo, hi) that starts as [0, inf); a
    step that leaves it bisects instead (doubles while hi is inf). It
    stops on a step of at most 4 eps relative or on P = p.

    Parameters
    ----------
    df : int
        Degrees of freedom, at least 1.
    p : float
        Probability strictly between 0 and 1.
    """
    if int(df) != df or df < 1:
        raise ValueError("df must be a positive integer")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return _chi2_inverse(int(df), p, upper=False)


def _chi2_inverse(df: int, prob: float, upper: bool) -> float:
    """x with P(df/2, x/2) = ``prob``, or with Q(df/2, x/2) = ``prob`` when
    ``upper``: the loop of ``chi2_quantile``, on log Q - log prob for an
    upper tail. A small upper tail (a GLRT threshold at p_fa) is reached
    to full relative accuracy, which 1 - p_fa as a lower tail is not."""
    a = 0.5 * df
    # normal quantile z_p by Abramowitz & Stegun 26.2.23 (error < 4.5e-4)
    t = math.sqrt(-2.0 * math.log(min(prob, 1.0 - prob)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    lower = 1.0 - prob if upper else prob
    h = 2.0 / (9.0 * df)
    wilson_hilferty = df * max(1.0 - h + math.copysign(z, lower - 0.5) * math.sqrt(h), 0.0) ** 3
    # P(a, y) <= y^a / Gamma(a + 1), so the root lies above this bound
    x = max(wilson_hilferty, 2.0 * math.exp((math.log(lower) + math.lgamma(a + 1.0)) / a))
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_ITER):
        tail = _regularized_gamma_q(a, 0.5 * x) if upper else regularized_gamma_p(a, 0.5 * x)
        if tail == prob:
            break
        if (tail < prob) != upper:
            lo = x
        else:
            hi = x
        density = _chi2_pdf(df, x)
        slope = -density if upper else density  # d tail / dx
        candidate = math.inf
        if min(tail, density) > 0.0:
            candidate = x - math.log(tail / prob) * tail / slope
        tolerance = 2.0**-50 * x  # 4 machine epsilons
        # a step below the tolerance may round onto x, which is lo or hi
        if not lo < candidate < hi and abs(candidate - x) > tolerance:
            candidate = 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
        step, x = abs(candidate - x), candidate
        if step <= tolerance:
            break
    return x


def _symmetric_part(matrix: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """(A + A^T) / 2, or (A + A^H) / 2 when ``hermitian``: a computed
    covariance's structure, which holds only to rounding, made exact. Each
    term is halved before the sum, so every finite matrix stays finite;
    away from subnormals the bits are those of halving the sum."""
    other = matrix.conj().T if hermitian else matrix.T
    return 0.5 * matrix + 0.5 * other


def _whole(name: str, value, least: int | None = None) -> int:
    """``value`` as an int; ValueError for a bool, a non-integral value or one below ``least``."""
    integral = isinstance(value, (int, np.integer)) or float(value).is_integer()
    if isinstance(value, (bool, np.bool_)) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and int(value) < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


def _largest_part(matrix: np.ndarray) -> float:
    """The largest |real or imaginary part| of a complex ``matrix``, nan or inf
    when a part is: read from the extremes of its parts, without a copy, for
    any strides (a C- or F-contiguous matrix as one float view, which numpy
    reduces several times faster than its strided parts)."""
    if matrix.flags.forc:
        parts = (matrix.ravel(order="K").view(np.float64),)
    else:
        parts = (matrix.real, matrix.imag)
    return np.abs([extreme(part) for part in parts for extreme in (np.max, np.min)]).max()


def _unit_exponent(matrix: np.ndarray) -> int:
    """The even k that puts the largest real or imaginary part of 2**k ``matrix``
    (complex) in [0.25, 1): an even power keeps square roots exact too."""
    exponent = np.frexp(_largest_part(matrix))[1]
    return -exponent - exponent % 2


def _unit_scaled(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` times 2**``_unit_exponent(matrix)``; exact."""
    matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
    return np.ldexp(matrix.view(np.float64), _unit_exponent(matrix)).view(np.complex128)


def _structured(matrix, hermitian: bool, name: str) -> np.ndarray:
    """The exact symmetric (Hermitian) part of a nonempty, square, finite
    matrix, refused if its asymmetry passes 1e-8 of its largest real or
    imaginary part: judged unit-scaled, so at every scale alike."""
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} is not finite")
    unit = _unit_scaled(mat)
    skew = unit - (unit.conj().T if hermitian else unit.T)
    if 1e8 * np.abs(skew.view(np.float64)).max() > np.abs(unit.view(np.float64)).max():
        raise ValueError(f"{name} is not {'Hermitian' if hermitian else 'complex symmetric'}")
    return _symmetric_part(mat, hermitian)


def _unit_phase(z: np.ndarray) -> np.ndarray:
    """z / |z| entrywise, and 1 where z is 0."""
    scale = np.abs(z)
    return np.divide(z, scale, out=np.ones_like(z), where=scale > 0.0)


@dataclass(frozen=True)
class TakagiFactorization:
    """Takagi factorization S = F diag(k) F^T of a complex symmetric matrix.

    ``factor_unitary`` (F) is unitary; ``singular_values`` (k) are the
    nonnegative singular values of S in descending order.
    """

    factor_unitary: np.ndarray
    singular_values: np.ndarray


def takagi(matrix: np.ndarray) -> TakagiFactorization:
    """Factor a complex symmetric matrix as F diag(k) F^T with unitary F.

    With S = A + iB, the real symmetric H = [[A, B], [B, -A]] has the
    eigenpairs (k, [x; y]) for each Takagi pair S conj(f) = k f, f = x + iy,
    and (-k, [-y; x]) as their partners (Horn & Johnson, Matrix Analysis,
    2nd ed., 4.4). The top m eigenvectors of H give F. ``eigh`` leaves
    each one mixed with the partners of the others by about
    eps / (k + k'), so one QR over the columns, in descending k and
    rescaled to the columns' own phases, moves that error onto the
    smaller-k column and keeps F unitary, also on blocks of repeated or
    zero singular values. The input is checked as the README module map says.
    """
    sym = _structured(matrix, False, "matrix")
    size = sym.shape[0]
    if not sym.any():
        return TakagiFactorization(np.eye(size, dtype=np.complex128), np.zeros(size))
    values, vectors = np.linalg.eigh(np.block([[sym.real, sym.imag], [sym.imag, -sym.real]]))
    values, vectors = values[::-1][:size], vectors[:, ::-1][:, :size]
    factor, upper = np.linalg.qr(vectors[:size] + 1j * vectors[size:])
    factor *= _unit_phase(upper.diagonal())
    # sign flips leave F diag(k) F^T unchanged; pin them so e.g. real
    # positive diagonal input yields F = I regardless of LAPACK signs
    lead = factor[np.argmax(np.abs(factor), axis=0), np.arange(size)]
    flip = (lead.real < 0.0) | ((lead.real == 0.0) & (lead.imag < 0.0))
    factor[:, flip] *= -1.0
    return TakagiFactorization(factor, np.maximum(values, 0.0))
