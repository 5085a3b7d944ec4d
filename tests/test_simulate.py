"""Tests for the synthetic scenario generator."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import toeplitz

from improperdim import (
    NoiseSpec,
    ScenarioConfig,
    SourceSpec,
    ar_spatial_covariance,
    circularity_coefficients,
    circularity_profile,
    generate_noise,
    generate_scenario,
    generate_sources,
    population_covariances,
    sample_covariances,
    steering_matrix,
)
from improperdim.simulate import _ar_root
from helpers import AR_COEFFICIENTS, array_scenario, proper_scenario


class TestArSpatialCovariance:
    # AR orders 0, 1 and 4 at sizes 1, the order itself (when nonzero) and 60
    @pytest.mark.parametrize(
        "coefficients, size",
        [((), 1), ((), 60), ((-0.5,), 1), ((-0.5,), 60), (AR_COEFFICIENTS, 1),
         (AR_COEFFICIENTS, 4), (AR_COEFFICIENTS, 60)],
    )
    def test_matches_scipy_toeplitz_bit_for_bit(self, coefficients, size):
        model = ar_spatial_covariance(coefficients, 0.25, size)
        reference = toeplitz(model[:, 0])
        assert model.shape == reference.shape == (size, size)
        assert model.dtype == reference.dtype
        assert model.tobytes() == reference.tobytes()

    def test_criterion_2_population_covariances_unchanged(self):
        config = array_scenario("spatial_ar")
        mixing = steering_matrix(config.angles_deg, config.sensor_count)
        powers = np.array([s.variance for s in config.sources])
        pseudo_powers = np.array([s.variance * s.circularity for s in config.sources])
        first_column = ar_spatial_covariance(AR_COEFFICIENTS, 0.25, config.sensor_count)[:, 0]
        noise = np.asarray(toeplitz(first_column), dtype=np.complex128)
        pair = population_covariances(config)
        expected = noise + (mixing * powers) @ mixing.conj().T
        assert pair.covariance.tobytes() == expected.tobytes()
        assert pair.complementary.tobytes() == ((mixing * pseudo_powers) @ mixing.T).tobytes()


class TestSteeringMatrix:
    def test_broadside_column_is_all_ones(self):
        column = steering_matrix([90.0], 5)
        assert np.allclose(column, np.ones((5, 1)), atol=1e-12)

    def test_endfire_two_sensors(self):
        column = steering_matrix([0.0], 2)
        assert np.allclose(column[:, 0], [1.0, 1.0j], atol=1e-12)

    def test_benchmark_angles_full_column_rank(self):
        mixing = steering_matrix([10.0, 15.0, 20.0, 25.0], 60)
        assert mixing.shape == (60, 4)
        singular_values = np.linalg.svd(mixing, compute_uv=False)
        assert singular_values[-1] > 0.1

    def test_errors(self):
        with pytest.raises(ValueError):
            steering_matrix([], 4)
        with pytest.raises(ValueError):
            steering_matrix([200.0], 4)
        with pytest.raises(ValueError):
            steering_matrix([45.0], 0)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, angle):
        with pytest.raises(ValueError, match="arrival angles must lie in"):
            steering_matrix([30.0, angle], 4)


class TestGenerateSources:
    def test_maximally_improper_is_real(self):
        rng = np.random.default_rng(0)
        sources = generate_sources([SourceSpec(5.0, 1.0)], 100_000, rng)
        assert np.all(sources.imag == 0.0)
        assert np.mean(np.abs(sources) ** 2) == pytest.approx(5.0, rel=0.05)

    def test_proper_source_has_tiny_complementary_variance(self):
        rng = np.random.default_rng(1)
        sources = generate_sources([SourceSpec(1.0, 0.0)], 100_000, rng)
        assert abs(np.mean(sources**2)) <= 0.02

    def test_partially_improper_moments(self):
        rng = np.random.default_rng(2)
        sources = generate_sources([SourceSpec(5.0, 0.6)], 100_000, rng)
        assert np.mean(np.abs(sources) ** 2) == pytest.approx(5.0, rel=0.05)
        complementary = np.mean(sources**2)
        assert complementary.real == pytest.approx(3.0, rel=0.05)
        assert abs(complementary.imag) <= 0.05

    def test_rows_are_uncorrelated(self):
        first = generate_sources([SourceSpec(1.0, 0.5)], 100_000, np.random.default_rng(3))
        second = generate_sources([SourceSpec(1.0, 0.5)], 100_000, np.random.default_rng(4))
        cross = abs(np.mean(first[0] * np.conj(second[0])))
        assert cross <= 0.02

    def test_zero_sources(self):
        sources = generate_sources([], 10, np.random.default_rng(5))
        assert sources.shape == (0, 10)


class TestGenerateNoise:
    def test_white_moments(self):
        rng = np.random.default_rng(6)
        noise = generate_noise(NoiseSpec("white", 1.0), 3, 100_000, rng)
        pair = sample_covariances(noise)
        assert np.abs(pair.covariance - np.eye(3)).max() <= 0.05
        assert np.abs(pair.complementary).max() <= 0.02

    def test_all_zero_coefficients_match_white_law(self):
        rng = np.random.default_rng(7)
        spec = NoiseSpec("spatial_ar", 0.25, (0.0, 0.0, 0.0, 0.0))
        noise = generate_noise(spec, 4, 50_000, rng)
        pair = sample_covariances(noise)
        assert np.abs(pair.covariance - 0.25 * np.eye(4)).max() <= 0.02
        assert np.abs(pair.complementary).max() <= 0.01

    def test_ar_spatial_covariance_is_approximately_toeplitz(self):
        rng = np.random.default_rng(8)
        spec = NoiseSpec("spatial_ar", 0.25, AR_COEFFICIENTS)
        noise = generate_noise(spec, 12, 40_000, rng)
        sample = sample_covariances(noise).covariance.real
        model = ar_spatial_covariance(AR_COEFFICIENTS, 0.25, 12)
        scale = model[0, 0]
        for offset in range(5):
            diagonal = np.diagonal(sample, offset)
            assert np.abs(diagonal.mean() - model[0, offset]) <= 0.1 * scale
            assert np.abs(diagonal - diagonal.mean()).max() <= 0.1 * scale

    def test_exact_covariance_path_matches_model(self):
        rng = np.random.default_rng(9)
        spec = NoiseSpec("spatial_ar", 0.25, AR_COEFFICIENTS)
        noise = generate_noise(spec, 8, 60_000, rng)
        pair = sample_covariances(noise)
        model = ar_spatial_covariance(AR_COEFFICIENTS, 0.25, 8)
        assert np.abs(pair.covariance.real - model).max() <= 0.05 * model[0, 0]
        assert np.abs(pair.complementary).max() <= 0.02

    @pytest.mark.parametrize(
        "spec", [NoiseSpec("white", 1.0), NoiseSpec("spatial_ar", 0.25, AR_COEFFICIENTS)]
    )
    def test_draws_two_normals_per_entry(self, spec):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        generate_noise(spec, 12, 30, rng)
        twin.standard_normal(2 * 12 * 30)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_ar_noise_is_finite_at_huge_variance(self):
        spec = NoiseSpec("spatial_ar", 1e308, AR_COEFFICIENTS)
        noise = generate_noise(spec, 60, 50, np.random.default_rng(12))
        assert np.all(np.isfinite(noise.view(np.float64)))

    def test_noise_is_proper_at_scale(self):
        rng = np.random.default_rng(10)
        count = 100_000
        noise = generate_noise(NoiseSpec("white", 1.0), 3, count, rng)
        complementary = sample_covariances(noise).complementary
        assert np.abs(complementary).max() <= 3.0 * math.sqrt(1.0 / count)

    def test_cached_ar_root_is_read_only(self):
        root = _ar_root(AR_COEFFICIENTS, 8)
        assert not root.flags.writeable
        with pytest.raises(ValueError):
            root[0, 0] = 1.0

    def test_ar_datasets_match_a_fresh_process(self):
        # configs that differ only in m, or only in the AR coefficients,
        # must not share a cached root
        configs = [
            (8, AR_COEFFICIENTS),
            (10, AR_COEFFICIENTS),
            (8, (0.5, -0.25)),
            (8, AR_COEFFICIENTS),
        ]
        script = (
            "import ast, sys\n"
            "from improperdim import NoiseSpec, ScenarioConfig, generate_scenario\n"
            "m, coefficients = ast.literal_eval(sys.argv[1])\n"
            "noise = NoiseSpec('spatial_ar', 0.25, coefficients)\n"
            "data = generate_scenario(ScenarioConfig(m, (), (), noise, 50, 4))\n"
            "sys.stdout.write(data.tobytes().hex())\n"
        )
        for m, coefficients in configs:
            noise = NoiseSpec("spatial_ar", 0.25, coefficients)
            data = generate_scenario(ScenarioConfig(m, (), (), noise, 50, 4))
            proc = subprocess.run(
                [sys.executable, "-c", script, repr((m, coefficients))],
                capture_output=True, text=True, check=True,
            )
            assert data.tobytes().hex() == proc.stdout

    def test_unstable_polynomial_rejected(self):
        with pytest.raises(ValueError, match="unstable AR polynomial"):
            NoiseSpec("spatial_ar", 1.0, (-2.5, 1.0))

    def test_stationary_covariance_oracle(self):
        # brute-force check of the Yule-Walker solve on an AR(1):
        # gamma(k) = s2 * a^k / (1 - a^2) for n[p] = -a n[p-1] + w[p] -> a = -0.5
        model = ar_spatial_covariance((-0.5,), 1.0, 4)
        expected_gamma0 = 1.0 / (1.0 - 0.25)
        for offset in range(4):
            expected = expected_gamma0 * 0.5**offset
            assert model[0, offset] == pytest.approx(expected, rel=1e-12)


class TestRealizationStream:
    """The in-place draws and blocked products give the bits of the plain
    expressions. Products run over blocks of 256 snapshots; 257 and 513
    end in a block of 257, 258 in a block of two."""

    @pytest.mark.parametrize(
        "spec", [NoiseSpec("white", 2.0), NoiseSpec("spatial_ar", 0.25, AR_COEFFICIENTS)]
    )
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 300), (12, 7), (12, 257), (5, 258), (12, 513), (60, 1000)]
    )
    def test_noise_is_the_scaled_complex_product(self, spec, shape):
        noise = generate_noise(spec, *shape, np.random.default_rng(16))
        twin = np.random.default_rng(16)
        white = twin.standard_normal(shape) + 1j * twin.standard_normal(shape)
        if spec.kind == "spatial_ar":
            white = _ar_root(spec.ar_coefficients, shape[0]) @ white
        expected = math.sqrt(0.5 * spec.variance) * white
        assert noise.dtype == expected.dtype and noise.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["white", "spatial_ar"])
    @pytest.mark.parametrize("count", [200, 258, 513])
    def test_scenario_is_steering_times_sources_plus_noise(self, kind, count):
        config = array_scenario(kind, snapshot_count=count, seed=17)
        rng = np.random.default_rng(config.seed)
        sources = generate_sources(config.sources, config.snapshot_count, rng)
        noise = generate_noise(config.noise, config.sensor_count, config.snapshot_count, rng)
        expected = steering_matrix(config.angles_deg, config.sensor_count) @ sources + noise
        assert generate_scenario(config).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["white", "spatial_ar"])
    def test_peak_memory_stays_near_the_output(self, kind):
        # the output, one matrix of normals at a time (half the output), the
        # sources and one block of a product
        config = array_scenario(kind, snapshot_count=1000, seed=18)
        generate_scenario(config)  # the AR root is cached per process
        tracemalloc.start()
        try:
            data = generate_scenario(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * data.nbytes


class TestNoiseSpecValidation:
    def test_white_rejects_coefficients(self):
        with pytest.raises(ValueError):
            NoiseSpec("white", 1.0, (0.5,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec("pink", 1.0)

    def test_nonpositive_variance(self):
        with pytest.raises(ValueError):
            NoiseSpec("white", 0.0)


class TestScenarioConfig:
    def test_rejects_too_many_sources(self):
        with pytest.raises(ValueError):
            ScenarioConfig(2, (10.0, 20.0), (SourceSpec(1, 0.5), SourceSpec(1, 0.5)),
                           NoiseSpec("white", 1.0), 10, 0)

    def test_rejects_duplicate_angles(self):
        with pytest.raises(ValueError):
            ScenarioConfig(4, (10.0, 10.0), (SourceSpec(1, 0.5), SourceSpec(1, 0.5)),
                           NoiseSpec("white", 1.0), 10, 0)

    def test_rejects_angle_out_of_range(self):
        with pytest.raises(ValueError):
            ScenarioConfig(4, (-5.0,), (SourceSpec(1, 0.5),), NoiseSpec("white", 1.0), 10, 0)

    def test_rejects_mismatched_angles_and_sources(self):
        with pytest.raises(ValueError):
            ScenarioConfig(4, (10.0,), (), NoiseSpec("white", 1.0), 10, 0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            ScenarioConfig(4, (), (), NoiseSpec("white", 1.0), 10, -1)

    def test_source_spec_validation(self):
        with pytest.raises(ValueError):
            SourceSpec(0.0, 0.5)
        with pytest.raises(ValueError):
            SourceSpec(1.0, 1.5)


class TestGenerateScenario:
    def test_noise_only_population_is_proper(self):
        config = proper_scenario(sensor_count=4, snapshot_count=100, seed=1)
        pair = population_covariances(config)
        spectrum = circularity_coefficients(pair)
        assert np.all(spectrum.coefficients <= 1e-12)

    def test_benchmark_profile_separates_four_components(self):
        config = array_scenario(snapshot_count=2000, seed=21)
        profile = circularity_profile(generate_scenario(config), 10)
        spectrum = profile[9].coefficients
        assert spectrum[:4].mean() >= 2.0 * spectrum[4]

    def test_same_seed_is_bit_identical(self):
        config = array_scenario(snapshot_count=50, seed=77)
        assert np.array_equal(generate_scenario(config), generate_scenario(config))

    def test_different_seeds_differ(self):
        first = generate_scenario(array_scenario(snapshot_count=50, seed=1))
        second = generate_scenario(array_scenario(snapshot_count=50, seed=2))
        assert not np.array_equal(first, second)

    def test_shape_and_finiteness(self):
        config = array_scenario(noise_kind="spatial_ar", snapshot_count=64, seed=5)
        data = generate_scenario(config)
        assert data.shape == (60, 64)
        assert np.all(np.isfinite(data.real)) and np.all(np.isfinite(data.imag))


class TestPopulationCovariances:
    def test_complementary_rank_counts_maximally_improper_sources(self):
        config = ScenarioConfig(
            sensor_count=8,
            angles_deg=(20.0, 60.0, 100.0),
            sources=tuple(SourceSpec(2.0, 1.0) for _ in range(3)),
            noise=NoiseSpec("white", 1.0),
            snapshot_count=10,
            seed=0,
        )
        pair = population_covariances(config)
        singular_values = np.linalg.svd(pair.complementary, compute_uv=False)
        assert np.sum(singular_values > 1e-10) == 3

    def test_population_circularity_of_single_source(self):
        config = ScenarioConfig(
            sensor_count=4,
            angles_deg=(90.0,),
            sources=(SourceSpec(10.0, 0.8),),
            noise=NoiseSpec("white", 1e-9),
            snapshot_count=10,
            seed=0,
        )
        spectrum = circularity_coefficients(population_covariances(config))
        # with negligible noise the top coefficient approaches the source's
        assert spectrum.coefficients[0] == pytest.approx(0.8, abs=1e-4)

    def test_colored_noise_population_uses_stationary_covariance(self):
        config = ScenarioConfig(6, (), (), NoiseSpec("spatial_ar", 0.25, AR_COEFFICIENTS), 10, 0)
        pair = population_covariances(config)
        model = ar_spatial_covariance(AR_COEFFICIENTS, 0.25, 6)
        assert np.allclose(pair.covariance.real, model, atol=1e-12)
