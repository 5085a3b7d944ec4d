"""Tests for the second-order statistics layer."""

import numpy as np
import pytest

from improperdim import (
    CircularitySpectrum,
    CovariancePair,
    augmented_covariance,
    circularity_coefficients,
    circularity_profile,
    generate_scenario,
    hermitian_inv_sqrt,
    pca_reduce,
    population_covariances,
    sample_covariances,
)
from helpers import array_scenario, small_scenario


def proper_white(rng, channels, count):
    return (
        rng.standard_normal((channels, count)) + 1j * rng.standard_normal((channels, count))
    ) * np.sqrt(0.5)


class TestSampleCovariances:
    def test_single_snapshot_outer_products(self):
        data = np.array([[1.0], [1.0j]])
        pair = sample_covariances(data)
        assert np.allclose(pair.covariance, [[1.0, -1.0j], [1.0j, 1.0]], atol=1e-15)
        assert np.allclose(pair.complementary, [[1.0, 1.0j], [1.0j, -1.0]], atol=1e-15)
        assert pair.sample_count == 1

    def test_real_data_complementary_equals_covariance(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4, 50))
        pair = sample_covariances(data)
        assert np.allclose(pair.complementary, pair.covariance, atol=1e-14)
        assert np.abs(pair.covariance.imag).max() < 1e-15

    def test_white_proper_moments(self):
        rng = np.random.default_rng(123)
        pair = sample_covariances(proper_white(rng, 3, 100_000))
        assert np.abs(pair.complementary).max() <= 0.02
        assert np.abs(pair.covariance - np.eye(3)).max() <= 0.05

    def test_outputs_exactly_structured(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
        pair = sample_covariances(data)
        assert np.array_equal(pair.covariance, pair.covariance.conj().T)
        assert np.array_equal(pair.complementary, pair.complementary.T)
        assert np.min(np.linalg.eigvalsh(pair.covariance)) >= -1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sample_covariances(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            sample_covariances(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            sample_covariances(np.array([[np.nan, 1.0]]))


class TestAugmentedCovariance:
    def test_block_structure_and_psd(self):
        data = generate_scenario(small_scenario(snapshot_count=500, seed=3))
        pair = sample_covariances(data)
        size = data.shape[0]
        augmented = augmented_covariance(pair)
        assert augmented.shape == (2 * size, 2 * size)
        assert np.allclose(augmented, augmented.conj().T, atol=1e-12)
        assert np.allclose(augmented[:size, :size], pair.covariance)
        assert np.allclose(augmented[:size, size:], pair.complementary)
        assert np.min(np.linalg.eigvalsh(augmented)) >= -1e-8


class TestCircularityCoefficients:
    def test_scalar_population_pair(self):
        pair = CovariancePair(np.array([[1.0 + 0j]]), np.array([[0.6 + 0j]]), 1)
        spectrum = circularity_coefficients(pair)
        assert spectrum.coefficients == pytest.approx([0.6], abs=1e-12)
        assert spectrum.rank_context == 1

    def test_real_data_all_ones(self):
        rng = np.random.default_rng(2)
        pair = sample_covariances(rng.standard_normal((5, 200)))
        spectrum = circularity_coefficients(pair)
        assert np.all(spectrum.coefficients >= 1.0 - 1e-8)

    def test_rank_deficiency_forces_ones(self):
        # with M < 2m, at least 2m - M sample coefficients are exactly 1
        rng = np.random.default_rng(11)
        for _ in range(10):
            data = proper_white(rng, 8, 10)
            spectrum = circularity_coefficients(sample_covariances(data))
            assert np.sum(spectrum.coefficients >= 1.0 - 1e-8) >= 6

    def test_bounded_for_arbitrary_scales(self):
        rng = np.random.default_rng(4)
        for scale in (1e-6, 1.0, 1e6):
            data = scale * (rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9)))
            spectrum = circularity_coefficients(sample_covariances(data))
            assert np.all(spectrum.coefficients >= 0.0)
            assert np.all(spectrum.coefficients <= 1.0)
            assert np.all(np.diff(spectrum.coefficients) <= 1e-12)

    def test_invariance_under_invertible_transform(self):
        rng = np.random.default_rng(5)
        data = generate_scenario(small_scenario(sensor_count=6, angles=(30.0, 80.0), snapshot_count=300, seed=9))
        reference = circularity_coefficients(sample_covariances(data)).coefficients
        for _ in range(5):
            transform = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            moved = circularity_coefficients(sample_covariances(transform @ data)).coefficients
            assert np.abs(moved - reference).max() <= 1e-8

    def test_zero_covariance_raises(self):
        pair = CovariancePair(np.zeros((3, 3)), np.zeros((3, 3)), 4)
        with pytest.raises(ValueError, match="rank zero covariance"):
            circularity_coefficients(pair)

    @pytest.mark.parametrize(
        "source",
        [
            ("sample", "white", 1000),
            ("sample", "ar", 1000),
            ("sample", "white", 90),
            ("sample", "ar", 50),
            ("population", "white", None),
            ("population", "ar", None),
        ],
    )
    def test_matches_hermitian_root_reference(self, source):
        # independent route: svd(R^{-1/2} R~ R^{-T/2}) with the Hermitian root
        kind, noise, count = source
        config = array_scenario(noise, snapshot_count=count or 1000, seed=31)
        if kind == "sample":
            pair = sample_covariances(generate_scenario(config))
        else:
            pair = population_covariances(config)
        root = hermitian_inv_sqrt(pair.covariance)
        coherence = root @ pair.complementary @ root.T
        reference = np.linalg.svd(0.5 * (coherence + coherence.T), compute_uv=False)
        spectrum = circularity_coefficients(pair)
        assert spectrum.rank_context == 60
        assert np.abs(spectrum.coefficients - np.clip(reference, 0.0, 1.0)).max() <= 1e-12

    def test_rejects_malformed_pairs(self):
        square = np.eye(3, dtype=complex)
        skewed = square.copy()
        skewed[0, 1] = 1e-6
        for covariance in (skewed, 1e-10 * skewed):
            with pytest.raises(ValueError, match="not Hermitian"):
                circularity_coefficients(CovariancePair(covariance, square, 10))
        for covariance in (np.zeros((0, 0)), np.ones((2, 3)), np.ones(3)):
            with pytest.raises(ValueError, match="nonempty square"):
                circularity_coefficients(CovariancePair(covariance, covariance, 10))
        triangular = np.array([[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="^covariance is not complex symmetric$"):
            circularity_coefficients(CovariancePair(np.eye(2), triangular, 10))
        message = r"^covariance and complementary covariance differ in shape: \(3, 3\) and \(2, 2\)$"
        with pytest.raises(ValueError, match=message):
            circularity_coefficients(CovariancePair(square, np.eye(2), 10))


class TestPcaReduce:
    def test_full_rank_preserves_spectrum(self):
        data = generate_scenario(small_scenario(snapshot_count=400, seed=21))
        full = circularity_coefficients(sample_covariances(data)).coefficients
        rotated = circularity_coefficients(
            sample_covariances(pca_reduce(data, data.shape[0]))
        ).coefficients
        assert np.abs(full - rotated).max() <= 1e-10

    def test_single_nonzero_row(self):
        rng = np.random.default_rng(6)
        data = np.zeros((4, 500), dtype=complex)
        data[2] = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        reduced = pca_reduce(data, 1)
        original = np.mean(np.abs(data[2]) ** 2)
        assert np.mean(np.abs(reduced[0]) ** 2) == pytest.approx(original, rel=1e-12)

    def test_retained_variance_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((20, 100)) + 1j * rng.standard_normal((20, 100))
        reduced = pca_reduce(data, 5)
        retained = np.trace(sample_covariances(reduced).covariance).real
        eigenvalues = np.sort(np.linalg.eigvalsh(sample_covariances(data).covariance))
        assert retained == pytest.approx(np.sum(eigenvalues[-5:]), abs=1e-10 * retained)

    def test_sign_convention_keeps_dominant_row_positive(self):
        rng = np.random.default_rng(8)
        data = np.vstack(
            [3.0 * rng.standard_normal(2000), 0.1 * rng.standard_normal(2000)]
        ).astype(complex)
        reduced = pca_reduce(data, 1)
        # the principal direction is ~e_0 and the convention pins its sign
        assert np.corrcoef(reduced[0].real, data[0].real)[0, 1] > 0.99

    def test_deterministic(self):
        data = generate_scenario(small_scenario(snapshot_count=200, seed=1))
        assert np.array_equal(pca_reduce(data, 3), pca_reduce(data, 3))

    def test_rank_domain_errors(self):
        data = np.ones((3, 5), dtype=complex)
        for rank in (0, 4, 6):
            with pytest.raises(ValueError):
                pca_reduce(data, rank)


class TestCircularitySpectrum:
    @pytest.mark.parametrize(
        "coefficients, rank",
        [([0.5, 0.2], 3), ([0.5, 0.2, 0.1], 2), ([[0.5], [0.2]], 2), (0.5, 1), ([], 1)],
        ids=["too-few", "too-many", "2-d", "scalar", "empty"],
    )
    def test_rejects_coefficients_not_matching_the_rank(self, coefficients, rank):
        with pytest.raises(ValueError, match="1-D array of rank_context entries"):
            CircularitySpectrum(np.array(coefficients), rank, 100)


class TestCircularityProfile:
    def test_r_max_one(self):
        data = generate_scenario(small_scenario(snapshot_count=100, seed=2))
        profile = circularity_profile(data, 1)
        assert len(profile) == 1
        assert profile[0].coefficients.shape == (1,)
        assert profile[0].rank_context == 1
        assert profile[0].sample_count == 100

    def test_matches_naive_composition(self):
        data = generate_scenario(small_scenario(snapshot_count=600, seed=13))
        profile = circularity_profile(data, 6)
        for rank in range(1, 7):
            naive = circularity_coefficients(
                sample_covariances(pca_reduce(data, rank))
            ).coefficients
            assert np.abs(profile[rank - 1].coefficients - naive).max() <= 1e-8

    def test_all_proper_coefficients_small(self):
        rng = np.random.default_rng(14)
        data = proper_white(rng, 6, 20_000)
        profile = circularity_profile(data, 6)
        for spectrum in profile:
            assert np.all(spectrum.coefficients <= 0.1)

    def test_improper_pair_separates(self):
        config = small_scenario(
            sensor_count=10,
            circularities=(0.95, 0.9),
            angles=(35.0, 75.0),
            snapshot_count=5000,
            seed=17,
        )
        profile = circularity_profile(generate_scenario(config), 4)
        spectrum = profile[3].coefficients
        assert spectrum[0] >= 0.8 and spectrum[1] >= 0.8
        assert spectrum[2] <= 0.3

    def test_errors(self):
        data = np.ones((3, 5), dtype=complex)
        with pytest.raises(ValueError):
            circularity_profile(data, 0)
        with pytest.raises(ValueError):
            circularity_profile(data, 4)
        with pytest.raises(ValueError, match="rank zero covariance"):
            circularity_profile(np.zeros((3, 5), dtype=complex), 2)


class TestDoubleRangeEdges:
    """The 8x300 scenario far from unit scale, through the public stats calls."""

    @pytest.fixture
    def data(self):
        return generate_scenario(small_scenario(snapshot_count=300, seed=13))

    def test_profile_is_scale_invariant_at_the_edges(self, data):
        reference = circularity_profile(data, 8)
        for scale, exponent in ((1e160, 532), (1e-170, -565)):
            scaled = np.ldexp(data.real, exponent) + 1j * np.ldexp(data.imag, exponent)
            for mine, theirs in zip(circularity_profile(scaled, 8), reference):
                assert mine.coefficients.tobytes() == theirs.coefficients.tobytes()
            for mine, theirs in zip(circularity_profile(scale * data, 8), reference):
                assert np.allclose(mine.coefficients, theirs.coefficients, rtol=0, atol=1e-12)

    def test_overflowed_covariance_is_rejected_by_name(self, data):
        with np.errstate(over="ignore", invalid="ignore"):
            pair = sample_covariances(1e160 * data)
        assert not np.all(np.isfinite(pair.covariance))
        with pytest.raises(ValueError, match="covariance is not finite"):
            circularity_coefficients(pair)
        nan_pair = CovariancePair(np.eye(2), np.array([[np.nan, 0.0], [0.0, 0.0]]), 10)
        with pytest.raises(ValueError, match="covariance is not finite"):
            circularity_coefficients(nan_pair)

    def test_finite_entries_near_the_largest_double_do_not_overflow(self):
        # 1.5e308 + 1.5e308 overflows; the re-symmetrisation halves first
        pair = CovariancePair(np.diag([1.5e308, 1.0]), np.eye(2), 10)
        small = CovariancePair(np.ldexp(pair.covariance, -600), np.ldexp(np.eye(2), -600), 10)
        coefficients = circularity_coefficients(pair).coefficients
        assert coefficients.tobytes() == circularity_coefficients(small).coefficients.tobytes()
