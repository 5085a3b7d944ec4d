"""Synthetic scenario generation.

Uniform-linear-array mixing of independent improper Gaussian sources with
prescribed circularity coefficients, plus proper Gaussian noise that is
either white or spatially colored by an autoregressive filter across the
sensor axis. Colored noise is drawn from a symmetric root of the AR
filter's stationary covariance, so it is exactly stationary. Everything
is a pure function of the scenario config, including its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import _whole
from .stats import CovariancePair

__all__ = [
    "DEFAULT_PHASE_FACTOR",
    "NoiseSpec",
    "ScenarioConfig",
    "SourceSpec",
    "ar_spatial_covariance",
    "generate_noise",
    "generate_scenario",
    "generate_sources",
    "population_covariances",
    "steering_matrix",
]

# phase step between adjacent sensors per unit cos(theta): the one array
# model of every steering matrix, scenario and population covariance
DEFAULT_PHASE_FACTOR = 0.5 * math.pi

# snapshots per block of the products applied in place to a realization,
# whose temporaries are then a quarter of a 1000-snapshot matrix
_PRODUCT_BLOCK = 256


@dataclass(frozen=True)
class SourceSpec:
    """One source: positive finite variance and circularity coefficient in [0, 1]."""

    variance: float
    circularity: float

    def __post_init__(self):
        object.__setattr__(self, "variance", float(self.variance))
        object.__setattr__(self, "circularity", float(self.circularity))
        if not 0.0 < self.variance < math.inf:
            raise ValueError(f"source variance must be positive and finite, got {self.variance!r}")
        if not 0.0 <= self.circularity <= 1.0:
            raise ValueError("circularity must lie in [0, 1]")


@dataclass(frozen=True)
class NoiseSpec:
    """Proper Gaussian noise model.

    ``kind`` is "white" or "spatial_ar". ``variance`` is the per-sensor
    variance for white noise, or the innovation variance for the AR kind;
    it and the AR coefficients must be finite. The AR polynomial must be
    stable (all characteristic roots strictly inside the unit circle).
    """

    kind: str
    variance: float
    ar_coefficients: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variance", float(self.variance))
        object.__setattr__(
            self, "ar_coefficients", tuple(float(a) for a in self.ar_coefficients)
        )
        if self.kind not in ("white", "spatial_ar"):
            raise ValueError("noise kind must be 'white' or 'spatial_ar'")
        if not 0.0 < self.variance < math.inf:
            raise ValueError(f"noise variance must be positive and finite, got {self.variance!r}")
        if not all(math.isfinite(a) for a in self.ar_coefficients):
            raise ValueError(f"AR coefficients must be finite, got {self.ar_coefficients!r}")
        if self.kind == "white":
            if self.ar_coefficients:
                raise ValueError("white noise takes no AR coefficients")
        elif self.ar_coefficients:
            roots = np.roots(np.concatenate(([1.0], self.ar_coefficients)))
            if roots.size and np.max(np.abs(roots)) >= 1.0:
                raise ValueError("unstable AR polynomial")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one synthetic dataset."""

    sensor_count: int
    angles_deg: tuple[float, ...]
    sources: tuple[SourceSpec, ...]
    noise: NoiseSpec
    snapshot_count: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "angles_deg", tuple(float(a) for a in self.angles_deg))
        object.__setattr__(self, "sources", tuple(self.sources))
        for name, least in (("sensor_count", 1), ("snapshot_count", 1), ("seed", None)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), least))
        if len(self.angles_deg) != len(self.sources):
            raise ValueError("need one arrival angle per source")
        if len(self.sources) >= self.sensor_count:
            raise ValueError("source count must be smaller than the sensor count")
        if len(set(self.angles_deg)) != len(self.angles_deg):
            raise ValueError("arrival angles must be distinct")
        for angle in self.angles_deg:
            if not 0.0 <= angle <= 180.0:
                raise ValueError("arrival angles must lie in [0, 180] degrees")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def steering_matrix(angles_deg, sensor_count: int) -> np.ndarray:
    """Steering matrix with entry (p, q) exp(j*DEFAULT_PHASE_FACTOR*p*cos(theta_q)),
    p = 0..sensor_count-1, angles in degrees."""
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    if angles.size == 0:
        raise ValueError("at least one arrival angle is required")
    sensor_count = _whole("sensor_count", sensor_count, 1)
    if not np.all((angles >= 0.0) & (angles <= 180.0)):
        raise ValueError("arrival angles must lie in [0, 180] degrees")
    phases = DEFAULT_PHASE_FACTOR * np.cos(np.deg2rad(angles))
    return np.exp(1j * np.outer(np.arange(sensor_count), phases))


def generate_sources(specs, snapshot_count: int, rng: np.random.Generator) -> np.ndarray:
    """Independent zero-mean complex Gaussian sources, one row per spec.

    Each source has E[|s|^2] = variance and E[s^2] = circularity * variance
    (real, nonnegative): the real and imaginary parts are independent
    normals with variances variance*(1 +/- circularity)/2. Circularity 1
    collapses the imaginary part (maximally improper), circularity 0 gives
    a proper source.
    """
    specs = tuple(specs)
    out = np.empty((len(specs), snapshot_count), dtype=np.complex128)
    for row, spec in enumerate(specs):
        re_scale = math.sqrt(0.5 * spec.variance * (1.0 + spec.circularity))
        im_scale = math.sqrt(0.5 * spec.variance * (1.0 - spec.circularity))
        out[row] = re_scale * rng.standard_normal(snapshot_count) + (
            1j * im_scale
        ) * rng.standard_normal(snapshot_count)
    return out


def ar_spatial_covariance(coefficients, innovation_variance: float, size: int) -> np.ndarray:
    """Stationary covariance (real Toeplitz) of the spatial AR recursion.

    Solves the Yule-Walker-type system for the autocovariances up to the
    AR order and extends them by the recursion.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    order = coeffs.size
    if order == 0:
        return innovation_variance * np.eye(size)
    system = np.zeros((order + 1, order + 1))
    rhs = np.zeros(order + 1)
    rhs[0] = float(innovation_variance)
    for k in range(order + 1):
        system[k, k] += 1.0
        for j in range(1, order + 1):
            system[k, abs(k - j)] += coeffs[j - 1]
    gamma = list(np.linalg.solve(system, rhs))
    for k in range(order + 1, size):
        gamma.append(-sum(coeffs[j - 1] * gamma[k - j] for j in range(1, order + 1)))
    lags = np.arange(size)
    return np.asarray(gamma[:size])[np.abs(lags[:, None] - lags[None, :])]


@lru_cache(maxsize=8)
def _ar_root(ar_coefficients: tuple[float, ...], sensor_count: int) -> np.ndarray:
    # read-only symmetric root of the unit-innovation stationary covariance,
    # held complex so the noise product casts nothing
    unit_cov = ar_spatial_covariance(ar_coefficients, 1.0, sensor_count)
    values, vectors = np.linalg.eigh(unit_cov)
    root = ((vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.T).astype(np.complex128)
    root.flags.writeable = False
    return root


def _column_blocks(count: int) -> list[slice]:
    """Slices of ``_PRODUCT_BLOCK`` snapshots covering ``count``, the last one
    taking the rest. A lone last snapshot joins the block before it: a product
    with one column takes BLAS's matrix-vector route, which rounds differently
    from the matrix product over all columns, while blocks of two or more
    columns gave that product's bits wherever checked."""
    stops = [*range(_PRODUCT_BLOCK, count - 1, _PRODUCT_BLOCK), count]
    return [slice(start, stop) for start, stop in zip([0, *stops[:-1]], stops)]


def generate_noise(
    spec: NoiseSpec, sensor_count: int, snapshot_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Proper Gaussian noise, one column per snapshot; it draws exactly
    2 * sensor_count * snapshot_count normals from ``rng``: the first
    sensor_count x snapshot_count go into the real parts of the returned
    array, the next into its imaginary parts, and the AR root and the
    scale are applied in place.

    The "spatial_ar" kind applies the symmetric root of the stationary
    covariance of n[p] = w[p] - sum_j a_j n[p-j] (unit innovation
    variance, scaled by the spec's afterwards so huge variances stay
    finite) to white noise, so snapshots are i.i.d. with exactly that
    spatial covariance. The root depends only on the AR coefficients and
    the sensor count, so each process computes it once per pair (a small
    cache of read-only roots) rather than once per call.
    """
    shape = (sensor_count, snapshot_count)
    noise = np.empty(shape, dtype=np.complex128)
    parts = noise.view(np.float64)
    parts[:, 0::2] = rng.standard_normal(shape)
    parts[:, 1::2] = rng.standard_normal(shape)
    if spec.kind == "spatial_ar":
        # a complex product: one real product of ``parts`` rounds differently
        root = _ar_root(spec.ar_coefficients, sensor_count)
        for block in _column_blocks(snapshot_count):
            noise[:, block] = root @ noise[:, block]
    noise *= math.sqrt(0.5 * spec.variance)
    return noise


def generate_scenario(config: ScenarioConfig) -> np.ndarray:
    """Data matrix (mixing @ sources + noise) for the scenario.

    A pure function of the config: the same config (including seed)
    always yields the bit-identical matrix.
    """
    rng = np.random.default_rng(config.seed)
    sources = generate_sources(config.sources, config.snapshot_count, rng)
    data = generate_noise(config.noise, config.sensor_count, config.snapshot_count, rng)
    if config.sources:
        mixing = steering_matrix(config.angles_deg, config.sensor_count)
        for block in _column_blocks(config.snapshot_count):
            data[:, block] += mixing @ sources[:, block]
    return data


def population_covariances(config: ScenarioConfig) -> CovariancePair:
    """Model covariance pair implied by a scenario config.

    The returned pair's sample_count is 0 to mark population quantities.
    """
    size = config.sensor_count
    # white noise has no AR coefficients, and order 0 is variance * I
    noise_cov = ar_spatial_covariance(config.noise.ar_coefficients, config.noise.variance, size)
    covariance = np.asarray(noise_cov, dtype=np.complex128)
    complementary = np.zeros((size, size), dtype=np.complex128)
    if config.sources:
        mixing = steering_matrix(config.angles_deg, size)
        powers = np.array([s.variance for s in config.sources])
        pseudo_powers = np.array([s.variance * s.circularity for s in config.sources])
        covariance = covariance + (mixing * powers) @ mixing.conj().T
        complementary = (mixing * pseudo_powers) @ mixing.T
    return CovariancePair(covariance, complementary, sample_count=0)
