"""Tests for the numerical primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from improperdim import chi2_quantile, hermitian_inv_sqrt, regularized_gamma_p, takagi
from improperdim import numerics
from improperdim.detectors import DF_RULES, _box_df

# every d.f. the GLRT detectors can reach at r <= 60, under both d.f. rules
REACHABLE_DFS = sorted(
    {_box_df(r, s, rule) for rule in DF_RULES for r in range(1, 61) for s in range(r)} - {0}
)
DETECTOR_PS = (0.95, 0.99, 0.995, 0.999)


def count_gamma_calls(monkeypatch, name="regularized_gamma_p"):
    """List that gets one entry per call of ``numerics.<name>``."""
    calls = []
    original = getattr(numerics, name)

    def counted(a, x):
        calls.append(a)
        return original(a, x)

    monkeypatch.setattr(numerics, name, counted)
    return calls


def random_complex_symmetric(rng, size):
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return raw + raw.T


def random_unitary(rng, size):
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestRegularizedGammaP:
    def test_matches_scipy_on_a_grid(self):
        for a in (0.5, 1.0, 3.5, 50.0, 1596.0):
            for x in (1e-6, 0.5, 1.0, 10.0, 100.0, 1500.0, 2000.0):
                assert regularized_gamma_p(a, x) == pytest.approx(
                    scipy_special.gammainc(a, x), abs=1e-12
                )

    def test_boundaries(self):
        assert regularized_gamma_p(3.0, 0.0) == 0.0
        assert regularized_gamma_p(1.0, 1e6) == pytest.approx(1.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_gamma_p(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_p(1.0, -0.5)


class TestChi2Quantile:
    def test_df2_examples(self):
        # chi-squared with 2 d.f. is exponential, so the quantile is closed form
        assert chi2_quantile(2, 0.95) == pytest.approx(-2.0 * math.log(0.05), abs=1e-9)
        assert chi2_quantile(2, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    @pytest.mark.parametrize("p", [0.001, 0.5, 0.995])
    def test_df2_closed_form_grid(self, p):
        assert chi2_quantile(2, p) == pytest.approx(-2.0 * math.log(1.0 - p), abs=1e-9)

    def test_large_df_extended_precision_oracle(self):
        # frozen from a 60-digit mpmath inversion of P(1596, x/2) = 0.999;
        # 3192 = 56 * 57 is the largest d.f. the benchmark scenario produces
        assert chi2_quantile(3192, 0.999) == pytest.approx(3444.619519709517, abs=1e-6)

    def test_inverts_the_cdf_to_1e10(self):
        for df in (1, 2, 7, 56, 110, 3192):
            for p in (0.001, 0.25, 0.9, 0.995, 0.999):
                x = chi2_quantile(df, p)
                assert scipy_stats.chi2.cdf(x, df) == pytest.approx(p, abs=1e-10)

    def test_matches_scipy_ppf(self):
        for df in (1, 3, 12, 110, 420):
            for p in (0.005, 0.5, 0.95, 0.999):
                assert chi2_quantile(df, p) == pytest.approx(
                    scipy_stats.chi2.ppf(p, df), rel=1e-9, abs=1e-9
                )

    def test_strictly_increasing_in_p(self):
        for df in (1, 2, 5, 60, 3192):
            grid = [chi2_quantile(df, p) for p in (0.01, 0.1, 0.4, 0.7, 0.95, 0.999)]
            assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_strictly_increasing_in_df(self):
        for p in (0.05, 0.5, 0.99):
            grid = [chi2_quantile(df, p) for df in (1, 2, 3, 10, 100, 1000)]
            assert all(b > a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("p", DETECTOR_PS)
    def test_every_reachable_df_matches_scipy(self, p):
        assert len(REACHABLE_DFS) == 1085
        ours = [chi2_quantile(df, p) for df in REACHABLE_DFS]
        np.testing.assert_allclose(ours, scipy_stats.chi2.ppf(p, REACHABLE_DFS), rtol=1e-12)

    def test_lower_tail(self):
        # chi-squared with 1 d.f. at x -> 0: P = sqrt(2x / pi), so x = pi p^2 / 2
        assert chi2_quantile(1, 1e-20) == pytest.approx(1.5707963267948978e-40, rel=1e-12, abs=0.0)

    # at p = 2e-162 the root is subnormal, where half of x rounds to 0
    @pytest.mark.parametrize("df, p", [(1, 1e-300), (1, 2e-162), (10**6, 0.999)])
    def test_extreme_arguments_give_finite_quantiles(self, df, p):
        x = chi2_quantile(df, p)
        assert math.isfinite(x) and x >= 0.0

    def test_few_gamma_evaluations_per_quantile(self, monkeypatch):
        calls = count_gamma_calls(monkeypatch)
        for p in DETECTOR_PS:
            for df in REACHABLE_DFS:
                chi2_quantile(df, p)
        assert len(calls) / (len(DETECTOR_PS) * len(REACHABLE_DFS)) <= 10.0

    def test_few_gamma_evaluations_per_upper_quantile(self, monkeypatch):
        # the GLRT thresholds' path: Q(df/2, x/2) = 1 - p
        calls = count_gamma_calls(monkeypatch, "_regularized_gamma_q")
        for p in DETECTOR_PS:
            for df in REACHABLE_DFS:
                numerics._chi2_inverse(df, 1.0 - p, upper=True)
        assert len(calls) / (len(DETECTOR_PS) * len(REACHABLE_DFS)) <= 10.0

    @pytest.mark.parametrize("df", [100, 1000, 3660])
    @pytest.mark.parametrize("p", [1e-100, 1e-300])
    def test_deep_lower_tail_takes_few_steps(self, monkeypatch, df, p):
        # P grows like a power of x here; plain Newton on P - p crawled
        # down from above (180 evaluations at df = 1000, p = 1e-100)
        calls = count_gamma_calls(monkeypatch)
        x = chi2_quantile(df, p)
        assert len(calls) <= 40
        assert x == pytest.approx(scipy_stats.chi2.ppf(p, df), rel=1e-12, abs=0.0)

    def test_domain_errors(self):
        for bad_p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                chi2_quantile(2, bad_p)
        with pytest.raises(ValueError):
            chi2_quantile(0, 0.5)


class TestTakagi:
    def test_zero_matrix(self):
        out = takagi(np.zeros((3, 3), dtype=complex))
        assert np.array_equal(out.singular_values, np.zeros(3))
        assert np.array_equal(out.factor_unitary, np.eye(3, dtype=complex))

    def test_real_positive_diagonal(self):
        out = takagi(np.diag([0.9, 0.5]))
        assert out.singular_values == pytest.approx([0.9, 0.5], abs=1e-14)
        assert np.abs(out.factor_unitary - np.eye(2)).max() < 1e-12

    def test_seeded_6x6(self):
        rng = np.random.default_rng(7)
        sym = random_complex_symmetric(rng, 6)
        out = takagi(sym)
        rebuilt = out.factor_unitary @ np.diag(out.singular_values) @ out.factor_unitary.T
        assert np.linalg.norm(rebuilt - sym) / np.linalg.norm(sym) <= 1e-9
        reference = np.linalg.svd(sym, compute_uv=False)
        assert np.abs(out.singular_values - reference).max() <= 1e-10

    def test_roundtrip_100_random_matrices(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            size = 2 + trial % 11
            sym = random_complex_symmetric(rng, size)
            out = takagi(sym)
            factor, values = out.factor_unitary, out.singular_values
            rebuilt = factor @ np.diag(values) @ factor.T
            assert np.linalg.norm(rebuilt - sym) / np.linalg.norm(sym) <= 1e-9
            assert np.abs(factor @ factor.conj().T - np.eye(size)).max() <= 1e-10
            assert np.all(values >= 0.0)
            assert np.all(np.diff(values) <= 0.0)

    def test_repeated_singular_values(self):
        rng = np.random.default_rng(11)
        base = random_unitary(rng, 5)
        values = np.array([0.7, 0.7, 0.7, 0.2, 0.2])
        sym = base @ np.diag(values) @ base.T
        out = takagi(sym)
        rebuilt = out.factor_unitary @ np.diag(out.singular_values) @ out.factor_unitary.T
        assert np.linalg.norm(rebuilt - sym) / np.linalg.norm(sym) <= 1e-9
        assert out.singular_values == pytest.approx(values, abs=1e-10)

    def test_repeated_values_with_zero_block(self):
        rng = np.random.default_rng(12)
        base = random_unitary(rng, 4)
        values = np.array([0.5, 0.5, 0.0, 0.0])
        sym = base @ np.diag(values) @ base.T
        out = takagi(sym)
        rebuilt = out.factor_unitary @ np.diag(out.singular_values) @ out.factor_unitary.T
        assert np.linalg.norm(rebuilt - sym) <= 1e-9
        assert np.abs(out.factor_unitary @ out.factor_unitary.conj().T - np.eye(4)).max() <= 1e-10

    @pytest.mark.parametrize("level", [1e-2, 1e-6, 2e-8, 1e-8, 1e-10, 1e-13, 0.0])
    def test_unitary_across_cluster_levels(self, level):
        # a 3-fold cluster of singular values at each level, 2e-8 just above
        # the 1e-8 relative gap that once split blocks
        rng = np.random.default_rng(13)
        base = random_unitary(rng, 6)
        values = np.array([1.0, 0.6, 0.3, level, level, level])
        sym = base @ np.diag(values) @ base.T
        out = takagi(sym)
        factor = out.factor_unitary
        rebuilt = factor @ np.diag(out.singular_values) @ factor.T
        assert np.abs(factor @ factor.conj().T - np.eye(6)).max() <= 1e-12
        assert np.linalg.norm(rebuilt - sym) / np.linalg.norm(sym) <= 1e-12
        reference = np.linalg.svd(sym, compute_uv=False)
        assert np.abs(out.singular_values - reference).max() <= 1e-12

    def test_rejects_non_symmetric(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="symmetric"):
            takagi(raw)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            takagi(np.zeros((2, 3), dtype=complex))


class TestHermitianInvSqrt:
    def test_identity(self):
        assert np.abs(hermitian_inv_sqrt(np.eye(3)) - np.eye(3)).max() < 1e-12

    def test_diagonal(self):
        out = hermitian_inv_sqrt(np.diag([4.0, 1.0]))
        assert np.abs(out - np.diag([0.5, 1.0])).max() < 1e-12

    def test_truncates_tiny_eigenvalues(self):
        out = hermitian_inv_sqrt(np.diag([4.0, 1e-20]), rcond=1e-12)
        assert np.abs(out - np.diag([0.5, 0.0])).max() < 1e-12

    def test_zero_matrix_raises(self):
        with pytest.raises(ValueError, match="rank zero covariance"):
            hermitian_inv_sqrt(np.zeros((3, 3)))

    def test_projector_property_full_rank(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        mat = raw @ raw.conj().T + 0.1 * np.eye(6)
        root = hermitian_inv_sqrt(mat)
        assert np.abs(root @ mat @ root - np.eye(6)).max() <= 1e-8

    def test_projector_property_rank_deficient(self):
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        mat = raw @ raw.conj().T
        root = hermitian_inv_sqrt(mat)
        projector = root @ mat @ root
        # inverse root of the retained eigenspace: P^2 = P with rank 3
        assert np.abs(projector @ projector - projector).max() <= 1e-8
        eigenvalues = np.sort(np.linalg.eigvalsh(projector))
        assert eigenvalues == pytest.approx([0, 0, 0, 1, 1, 1], abs=1e-8)

    def test_output_is_hermitian(self):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        mat = raw @ raw.conj().T
        root = hermitian_inv_sqrt(mat)
        assert np.array_equal(root, root.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_inv_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_bad_rcond(self):
        for rcond in (0.0, 1.0, -1e-3):
            with pytest.raises(ValueError, match="rcond"):
                hermitian_inv_sqrt(np.eye(2), rcond=rcond)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("function", [hermitian_inv_sqrt, takagi], ids=lambda f: f.__name__)
def test_non_finite_matrix_is_refused(function, value):
    with pytest.raises(ValueError, match="^matrix is not finite$"):
        function(np.array([[value, 0.0], [0.0, 1.0]]))


class TestHugeFiniteEntries:
    """Entries above half the largest double, where the sum of a matrix and
    its transpose overflows."""

    def test_hermitian_inv_sqrt(self):
        # 1 lies below rcond times 1.5e308, so its inverse root is cut to 0
        root = hermitian_inv_sqrt(np.diag([1.5e308, 1.0]))
        assert np.array_equal(root, np.diag([1.5e308**-0.5, 0.0]))

    def test_takagi(self):
        factors = takagi([[1.5e308, 0.0], [0.0, 1.0]])
        assert np.array_equal(factors.singular_values, [1.5e308, 1.0])
        assert np.array_equal(factors.factor_unitary, np.eye(2))


# nonzero doubles whose halves are normal and whose pairwise sums are finite
_magnitudes = st.floats(2.0**-1021, 2.0**1022)
_normal_range = st.one_of(_magnitudes, _magnitudes.map(lambda x: -x))
_square_parts = st.integers(1, 6).flatmap(
    lambda size: hnp.arrays(np.float64, (size, size, 2), elements=_normal_range)
)


@settings(deadline=None, max_examples=300)
@given(parts=_square_parts, hermitian=st.booleans())
def test_symmetric_part_has_the_bits_of_the_halved_sum(parts, hermitian):
    matrix = parts.view(np.complex128)[..., 0]
    other = matrix.conj().T if hermitian else matrix.T
    expected = 0.5 * (matrix + other)
    assert numerics._symmetric_part(matrix, hermitian).tobytes() == expected.tobytes()
