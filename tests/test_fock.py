"""Unit tests for the truncated Fock-space realization."""

import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from gausscat import fock
from gausscat.fock import (
    TruncationWarning,
    aN_identity_residual,
    coherent_underflows,
    coherent_vector,
    eigen_residual,
    evolution_fidelity,
    kerr_conjugation_residual,
    kerr_diagonal,
    kerr_identity_residual,
    kitten_vector_series,
    kitten_vector_superposition,
    mu_factor,
    required_dimension,
    rotation_diagonal,
    time_evolution_residual,
    within_time_bound,
    within_truncation_guard,
)
from gausscat.gauss_sums import CoprimeFraction, unit_phase
from gausscat.superposition import build_descriptor
from gausscat.verify import TOLERANCES
from references import _cmath_phase


@st.composite
def small_fractions_st(draw, n_max=10):
    n = draw(st.integers(min_value=2, max_value=n_max))
    m = draw(st.sampled_from([m for m in range(1, n) if math.gcd(m, n) == 1]))
    return CoprimeFraction(m, n)


disc_alphas_st = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                    allow_infinity=False)


def annihilation_matrix(dim):
    """Dense reference for the lowering operator a: superdiagonal sqrt(n)."""
    m = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    m[n - 1, n] = np.sqrt(n)
    return m


class TestCoherentVector:
    def test_vacuum(self):
        v = coherent_vector(0.0, 8)
        assert v[0] == 1.0 and not v[1:].any()

    def test_entry_formula(self):
        v = coherent_vector(1.0, 32)
        assert abs(v[2] - math.exp(-0.5) / math.sqrt(2)) < 1e-15

    def test_normalized(self):
        assert abs(np.linalg.norm(coherent_vector(1.0, 32)) ** 2 - 1.0) < 1e-12

    def test_truncation_warning(self):
        with pytest.warns(TruncationWarning):
            coherent_vector(6.0, 16)

    def test_no_warning_inside_guard(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coherent_vector(1.0, 32)

    def test_guard_never_fires_at_alpha_zero(self):
        # the vacuum is exact at any dim >= 1, though dim - 4*sqrt(dim) < 0 below 16
        assert all(within_truncation_guard(0.0, dim) for dim in range(1, 20))
        assert not within_truncation_guard(0.1, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coherent_vector(0.0, 1)

    def test_underflowing_amplitude_raises(self):
        # exp(-|alpha|^2/2) is subnormal above |alpha|^2 ~ 1416.8
        with pytest.raises(ValueError, match=r"^alpha: \|alpha\|\^2 = 1482"):
            coherent_vector(38.5, 1800)
        assert coherent_underflows(38.5) and not coherent_underflows(37.6)

    def test_normalized_just_below_the_underflow(self):
        assert abs(np.linalg.norm(coherent_vector(37.6, 1800)) - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [1e200, 1e160j, 1e155 + 1e155j])
    def test_huge_finite_amplitude_underflows_without_overflow(self, alpha):
        # |alpha|^2 is inf here: a float ** would raise OverflowError
        assert coherent_underflows(alpha) and not within_truncation_guard(alpha, 10 ** 6)
        with pytest.raises(ValueError, match=r"^alpha: \|alpha\|\^2 = inf"):
            coherent_vector(alpha, 8)

    @pytest.mark.parametrize("alpha", [
        float("nan"), float("inf"), complex(0.0, float("-inf")), complex(float("nan"), 1.0),
        [0.5, float("nan")], np.array([[1.0, 2.0], [complex(float("inf"), 0.0), 0.0]])])
    def test_non_finite_amplitude_is_named(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha: amplitude .*(nan|inf).* is not finite"):
            coherent_vector(alpha, 8)

    @given(st.lists(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                       allow_infinity=False), max_size=8))
    # a scalar |alpha| ** 2 rounds differently from the array's square here
    @example([2.2771140172297457 + 1.5j])
    def test_array_call_matches_scalar_calls_bit_for_bit(self, alphas):
        amplitudes = np.array(alphas, dtype=complex)
        table = coherent_vector(amplitudes, 64)
        assert table.shape == (len(alphas), 64)
        for alpha, row in zip(alphas, table):
            single = coherent_vector(alpha, 64)
            assert single.shape == (64,)
            assert single.tobytes() == row.tobytes()

    def test_amplitude_array_of_any_shape_gains_a_last_axis(self):
        table = coherent_vector(np.full((2, 3), 0.5), 32)
        assert table.shape == (2, 3, 32)
        assert table.tobytes() == np.tile(coherent_vector(0.5, 32), (2, 3, 1)).tobytes()

    def test_guards_apply_to_the_largest_amplitude(self):
        with pytest.warns(TruncationWarning, match="need dim >= 70"):
            coherent_vector([0.0, 1.0, 6.0], 16)
        with pytest.raises(ValueError, match=r"^alpha: \|alpha\|\^2 = 1482"):
            coherent_vector([0.0, 38.5j], 1800)

    @pytest.mark.parametrize("alpha, dim", [(1.0, 0), (float("nan"), 0), (50.0, -2)])
    def test_dim_below_one_is_a_value_error_naming_dim_first(self, alpha, dim):
        # the guard checks dim before any amplitude
        with pytest.raises(ValueError, match=f"^dim: must be at least 1, got {dim}$"):
            coherent_vector(alpha, dim)

    def test_warns_the_truncation_message_the_guard_returns(self):
        assert fock._amplitude_guard(9.0, 126) is None
        message = fock._amplitude_guard(9.0, 16)
        assert message == "|alpha|^2 = 81 exceeds dim - 4*sqrt(dim) = 0; need dim >= 126"
        with pytest.warns(TruncationWarning) as record:
            coherent_vector(9.0, 16)
        assert [str(w.message) for w in record] == [message]

    def test_required_dimension_satisfies_guard(self):
        for alpha in (0.5, 2.0, 6.0, 3.0 + 4.0j):
            dim = required_dimension(alpha)
            assert abs(alpha) ** 2 <= dim - 4.0 * math.sqrt(dim)

    @given(st.complex_numbers(max_magnitude=1e4, allow_nan=False, allow_infinity=False))
    def test_required_dimension_is_the_smallest_passing_dim(self, alpha):
        dim = required_dimension(alpha)
        assert within_truncation_guard(alpha, dim)
        assert dim == 1 or not within_truncation_guard(alpha, dim - 1)

    @pytest.mark.parametrize("alpha, dim", [(0.0, 1), (1e-150, 17)])
    def test_required_dimension_edge_cases(self, alpha, dim):
        # alpha = 0 passes at any dim; a tiny |alpha|^2 fails the guard at 16
        assert required_dimension(alpha) == dim


class TestLadderMatrices:
    def test_commutator_truncation_law(self):
        dim = 16
        a = annihilation_matrix(dim)
        adag = a.T.conj()  # the raising operator: subdiagonal sqrt(n+1)
        comm = a @ adag - adag @ a
        off_diag = comm - np.diag(np.diag(comm))
        assert not off_diag.any()  # off-diagonal entries are exactly zero
        diag = np.diag(comm).real
        assert np.abs(diag[: dim - 1] - 1.0).max() < 1e-13
        assert abs(diag[dim - 1] + (dim - 1)) < 1e-12

    def test_unit_modulus_diagonals(self):
        f = CoprimeFraction(3, 7)
        for diagonal in (rotation_diagonal(f, 64), kerr_diagonal(f, 64)):
            assert np.abs(np.abs(diagonal) - 1.0).max() < 1e-15

    def test_diagonals_preserve_norm(self):
        f = CoprimeFraction(2, 9)
        v = coherent_vector(1.5, 64)
        for diagonal in (rotation_diagonal(f, 64), kerr_diagonal(f, 64)):
            assert abs(np.linalg.norm(diagonal * v) - np.linalg.norm(v)) < 1e-14


class TestKittenVectors:
    def test_series_parity_pattern(self):
        f = CoprimeFraction(1, 2)
        v = kitten_vector_series(1.0, f, 32)
        base = coherent_vector(1.0, 32)
        signs = [(-1) ** ((n * (n - 1) // 2) % 2) for n in range(32)]
        assert np.abs(v - np.array(signs) * base).max() < 1e-15

    def test_series_alpha_zero_is_vacuum(self):
        v = kitten_vector_series(0.0, CoprimeFraction(2, 5), 8)
        assert v[0] == 1.0 and not v[1:].any()

    @pytest.mark.parametrize("alpha, m, n", [(1.3, 1, 2), (0.7 - 1.1j, 3, 8), (2.0j, 4, 9)])
    def test_superposition_matches_per_component_loop(self, alpha, m, n):
        # reference: one coherent vector per rotated amplitude, added in turn
        desc = build_descriptor(CoprimeFraction(m, n))
        loop = np.zeros(64, dtype=complex)
        for p, r in zip(desc.phases.tolist(), desc.rotations.tolist()):
            value = _cmath_phase(p, 4 * n) / math.sqrt(n)
            loop += value * coherent_vector(_cmath_phase(r, 2 * n) * alpha, 64)
        assert np.abs(kitten_vector_superposition(alpha, desc, 64) - loop).max() < 1e-15

    def test_superposition_at_alpha_zero(self):
        # all branches collapse onto the vacuum; weights sum to exactly one
        desc = build_descriptor(CoprimeFraction(1, 3))
        v = kitten_vector_superposition(0.0, desc, 8)
        assert abs(v[0] - 1.0) < 1e-15 and np.abs(v[1:]).max() < 1e-15

    @pytest.mark.parametrize("m, n", [(1, 2), (3, 4), (2, 5), (5, 12)])
    def test_series_matches_superposition(self, m, n):
        f = CoprimeFraction(m, n)
        desc = build_descriptor(f)
        series = kitten_vector_series(1.3, f, 64)
        summed = kitten_vector_superposition(1.3, desc, 64)
        assert np.linalg.norm(series - summed) < 1e-10

    @settings(max_examples=40)
    @given(small_fractions_st(), disc_alphas_st)
    def test_series_matches_superposition_property(self, f, alpha):
        desc = build_descriptor(f)
        series = kitten_vector_series(alpha, f, 64)
        summed = kitten_vector_superposition(alpha, desc, 64)
        assert np.linalg.norm(series - summed) < 1e-10


class TestEigenEquation:
    def test_vacuum_is_exact(self):
        assert eigen_residual(0.0, CoprimeFraction(1, 3), 32) == 0.0

    def test_parity_cat(self):
        assert eigen_residual(1.0, CoprimeFraction(1, 2), 64) < 1e-10

    def test_pentagonal(self):
        assert eigen_residual(1.5, CoprimeFraction(2, 5), 64) < 1e-9

    def test_dim_insensitive_at_rounding_floor(self):
        # rows corrupted by truncation are excluded, so both residuals sit at
        # the rounding floor; doubling the dimension must not degrade it
        f = CoprimeFraction(1, 3)
        assert eigen_residual(1.0, f, 64) <= eigen_residual(1.0, f, 32) + 1e-14

    @settings(max_examples=40)
    @given(small_fractions_st(), disc_alphas_st)
    def test_eigen_property(self, f, alpha):
        assert eigen_residual(alpha, f, 64) < 1e-9


class TestSquareEigenvector:
    def test_parity_cat_is_eigenvector_of_a_squared(self):
        # two lowering steps send the N=2 kitten onto -alpha^2 times itself
        alpha, dim = 1.2, 64
        v = kitten_vector_series(alpha, CoprimeFraction(1, 2), dim)
        idx = np.arange(dim - 2)
        lowered_twice = np.sqrt((idx + 1) * (idx + 2)) * v[2:]
        assert np.abs(lowered_twice - (-alpha ** 2) * v[: dim - 2]).max() < 1e-10


class TestLoweringPowerIdentity:
    @pytest.mark.parametrize("m, n, dim", [(1, 2, 16), (1, 3, 16), (3, 4, 32)])
    def test_small_cases(self, m, n, dim):
        assert aN_identity_residual(CoprimeFraction(m, n), dim) <= 1e-12

    @pytest.mark.parametrize("m, n, dim", [(1, 2, 9), (2, 7, 20), (5, 12, 40)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_the_step_loop(self, monkeypatch, m, n, dim, sign):
        # reference: the per-step product of phases, added as exact rationals,
        # counted where it differs from mu; a negated mu fails all dim - N rows
        f = CoprimeFraction(m, n)
        mu = sign * mu_factor(f)
        failing = 0
        for i in range(dim - n):
            angle = sum(Fraction(2 * m * (i + step), n) for step in range(n))  # times pi
            assert angle.denominator == 1  # so the phase is exactly +1 or -1
            failing += (-1) ** (angle.numerator % 2) != mu
        monkeypatch.setattr(fock, "mu_factor", lambda _: mu)
        assert aN_identity_residual(f, dim) == failing == (0 if sign == 1 else dim - n)

    def test_mu_factor(self):
        assert mu_factor(CoprimeFraction(1, 2)) == -1
        assert mu_factor(CoprimeFraction(1, 3)) == 1
        assert mu_factor(CoprimeFraction(3, 4)) == -1
        assert mu_factor(CoprimeFraction(2, 5)) == 1

    def test_too_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            aN_identity_residual(CoprimeFraction(1, 3), 3)

    def test_kitten_is_eigenvector_of_lowering_power(self):
        # mu * alpha^N eigenvalue of a^N on the series vector
        f = CoprimeFraction(2, 5)
        alpha, dim = 1.2, 64
        v = kitten_vector_series(alpha, f, dim)
        rows = dim - f.N
        mags = np.ones(rows)
        for step in range(f.N):
            mags *= np.sqrt(np.arange(rows) + step + 1)
        eigval = mu_factor(f) * alpha ** f.N
        assert np.abs(mags * v[f.N:] - eigval * v[:rows]).max() < 1e-10

    def test_band_product_matches_dense_matmul(self):
        # the exact-phase band entries agree with a dense complex matmul of
        # (U^{-1} a)^N to float accuracy (relative; magnitudes reach sqrt(24!/17!))
        f, dim = CoprimeFraction(2, 7), 24
        dense = np.eye(dim, dtype=complex)
        factor = rotation_diagonal(f, dim).conj()[:, None] * annihilation_matrix(dim)
        for _ in range(f.N):
            dense = dense @ factor
        for i in range(dim - f.N):
            angle = Fraction(0)  # an exact multiple of pi
            mag = 1.0
            for step in range(f.N):
                angle += Fraction(2 * f.M * (i + step), f.N)
                mag *= math.sqrt(i + step + 1)
            exact = _cmath_phase(angle.numerator, angle.denominator) * mag
            assert abs(dense[i, i + f.N] - exact) < 1e-9 * mag


class TestTimeEvolution:
    def test_zero_time_is_exact(self):
        assert time_evolution_residual(1.0, CoprimeFraction(1, 3), [0.0], 64) == [0.0]

    def test_full_period(self):
        [residual] = time_evolution_residual(1.0, CoprimeFraction(1, 3), [2 * math.pi], 64)
        assert residual < 1e-12

    def test_generic_time(self):
        [residual] = time_evolution_residual(1.0, CoprimeFraction(1, 3), [0.7], 64)
        assert residual < 1e-10


def _per_t_reference(alpha, f, t, dim):
    """(residual, fidelity) at one t, built from scratch as the per-t
    formula did before the time grid owned its t = 0 state."""
    evolved = np.exp(-1j * t * (np.arange(dim) + 0.5)) * kitten_vector_series(alpha, f, dim)
    rotated = kitten_vector_series(cmath.exp(-1j * t) * alpha, f, dim)
    return (float(np.linalg.norm(evolved - cmath.exp(-0.5j * t) * rotated)),
            float(abs(np.vdot(rotated, evolved))))


class TestTimeGrid:
    @pytest.mark.parametrize("alpha, m, n, dim", [
        (1.0, 1, 3, 64), (1.5 + 0.5j, 3, 8, 64), (0.5, 2, 5, 32)])
    def test_grid_matches_per_t_formula_bit_for_bit(self, alpha, m, n, dim):
        f = CoprimeFraction(m, n)
        times = np.linspace(0.0, 2.0 * math.pi, 49)
        want = [_per_t_reference(alpha, f, float(t), dim) for t in times]
        assert time_evolution_residual(alpha, f, times, dim) == [r for r, _ in want]
        assert evolution_fidelity(alpha, f, times, dim) == [fid for _, fid in want]

    def test_empty_grid(self):
        assert time_evolution_residual(1.0, CoprimeFraction(1, 3), [], 32) == []
        assert evolution_fidelity(1.0, CoprimeFraction(1, 3), [], 32) == []

    @pytest.mark.parametrize("t", [1e300, -1e300, 1e15, float("inf"), float("nan")])
    @pytest.mark.parametrize("fn", [time_evolution_residual, evolution_fidelity])
    def test_time_beyond_the_bound_is_a_value_error_naming_t(self, fn, t):
        # evolution_fidelity read 0.997 at t = 1e300, with no error
        with pytest.raises(ValueError, match=r"^t: "):
            fn(1.0, CoprimeFraction(1, 3), [0.0, t], 64)

    def test_time_bound_is_the_cli_rule(self):
        # |t|*(dim - 1/2) <= 2**40, exact products of powers of two here
        assert within_time_bound(2.0 ** 34, 64) and within_time_bound(-(2.0 ** 34), 64)
        assert not within_time_bound(2.0 ** 34, 66)
        assert not within_time_bound(float("inf"), 1) and not within_time_bound(float("nan"), 1)

    def test_time_bound_takes_dims_from_1(self):
        # it read True at dim -5; the least dim of a coherent vector is 1
        assert within_time_bound(1.0, 1)
        for dim in (0, -5):
            with pytest.raises(ValueError, match="^dim: must be at least 1"):
                within_time_bound(1.0, dim)


class TestKerrIdentity:
    def test_alpha_zero_is_exact(self):
        # G^{-1} leaves the vacuum as it is, and the phases agree at every n
        f = CoprimeFraction(1, 2)
        assert kerr_identity_residual(f, 32) == 0
        ginv_vacuum = kerr_diagonal(f, 32).conj() * coherent_vector(0.0, 32)
        assert np.array_equal(ginv_vacuum, kitten_vector_series(0.0, f, 32))

    def test_parity_cat(self):
        # the coherent entries are a common factor, so the phase count covers any alpha
        f = CoprimeFraction(1, 2)
        assert kerr_identity_residual(f, 64) == 0
        ginv_coherent = kerr_diagonal(f, 64).conj() * coherent_vector(1.0, 64)
        assert np.abs(ginv_coherent - kitten_vector_series(1.0, f, 64)).max() < 1e-16

    @pytest.mark.parametrize("m, n", [(1, 2), (3, 4), (2, 5), (3, 8)])
    def test_matrix_conjugation(self, m, n):
        assert kerr_conjugation_residual(CoprimeFraction(m, n), 64) < 1e-12

    @pytest.mark.parametrize("m, n", [(5, 12), (11, 12)])
    def test_matrix_conjugation_at_large_dim(self, m, n):
        # the band's magnitudes sqrt(n) are left out, so the value does not grow
        # with dim (an absolute norm over the band entries gives 1.13e-12 here)
        residual = kerr_conjugation_residual(CoprimeFraction(m, n), 2048)
        assert residual <= TOLERANCES["kerr-matrix-identity"]

    @pytest.mark.parametrize("m, n, dim", [(1, 2, 16), (2, 7, 40), (5, 12, 64), (7, 16, 33)])
    @pytest.mark.parametrize("wrong", [False, True])
    def test_band_matches_dense_conjugation(self, monkeypatch, m, n, dim, wrong):
        # reference: the dense dim x dim products on rows 0 .. D-2, with a
        # faulty Kerr generator as well, so a nonzero residual is compared too;
        # a unit band leaves out the shared sqrt(n), and multiplying by 1 and 0
        # is exact, so every entry, off the band too, is compared bit for bit
        if wrong:
            monkeypatch.setattr(fock, "kerr_diagonal", lambda f, d: unit_phase(
                f.M * np.arange(d) * (np.arange(d) + 1), f.N))
        f = CoprimeFraction(m, n)
        g = fock.kerr_diagonal(f, dim)
        a = (annihilation_matrix(dim) != 0)[: dim - 1]
        conjugated = g.conj()[: dim - 1, None] * a * g[None, :]
        target = rotation_diagonal(f, dim).conj()[: dim - 1, None] * a
        assert kerr_conjugation_residual(f, dim) == np.abs(conjugated - target).max()

    def test_least_dims_are_valid(self):
        # one level has one phase to compare, two levels one band entry
        f = CoprimeFraction(1, 3)
        assert kerr_identity_residual(f, 1) == 0
        assert kerr_conjugation_residual(f, 2) == 0.0

    @pytest.mark.parametrize("dim", [1, 0])
    def test_no_band_entry_is_a_value_error_naming_dim(self, dim):
        with pytest.raises(ValueError, match="dim"):
            kerr_conjugation_residual(CoprimeFraction(1, 3), dim)

    @pytest.mark.parametrize("dim", [0, -5])
    def test_no_entry_is_a_value_error_naming_dim(self, dim):
        # an empty phase comparison would count 0 failures
        with pytest.raises(ValueError, match="dim"):
            kerr_identity_residual(CoprimeFraction(1, 3), dim)

    def test_band_residual_memory_is_linear_in_dim(self):
        # dense dim x dim complex matrices peak at 256 MB here
        tracemalloc.start()
        try:
            kerr_conjugation_residual(CoprimeFraction(5, 12), 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 5), (5, 12)])
    def test_wrong_kerr_generator_gives_order_one(self, monkeypatch, m, n):
        # n*(n+1) for n*(n-1) turns every entry by exp(2 pi i M/N)
        def wrong(f, dim):
            k = np.arange(dim, dtype=np.int64)
            return unit_phase(f.M * k * (k + 1), f.N)

        monkeypatch.setattr(fock, "kerr_diagonal", wrong)
        residual = kerr_conjugation_residual(CoprimeFraction(m, n), 64)
        assert residual == pytest.approx(2 * math.sin(math.pi * m / n), rel=1e-12)


class TestEvolutionFidelity:
    def test_zero_time(self):
        [fid] = evolution_fidelity(1.0, CoprimeFraction(1, 3), [0.0], 64)
        assert abs(fid - 1.0) < 1e-12

    def test_vacuum_is_stationary(self):
        for t in (0.0, 0.5, 3.0):
            [fid] = evolution_fidelity(0.0, CoprimeFraction(2, 5), [t], 32)
            assert abs(fid - 1.0) < 1e-15

    def test_generic(self):
        [fid] = evolution_fidelity(1.0, CoprimeFraction(1, 3), [0.9], 64)
        assert abs(fid - 1.0) < 1e-9
