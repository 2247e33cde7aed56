"""Unit tests for the truncated Fock-space realization."""

import cmath
import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gausscat import fock
from gausscat.fock import (
    TruncationWarning,
    aN_identity_residual,
    annihilation_matrix,
    coherent_underflows,
    coherent_vector,
    creation_matrix,
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
    within_truncation_guard,
)
from gausscat.gauss_sums import CoprimeFraction, unit_phase
from gausscat.superposition import build_descriptor
from gausscat.verify import TOLERANCES


@st.composite
def small_fractions_st(draw, n_max=10):
    n = draw(st.integers(min_value=2, max_value=n_max))
    m = draw(st.sampled_from([m for m in range(1, n) if math.gcd(m, n) == 1]))
    return CoprimeFraction(m, n)


disc_alphas_st = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                    allow_infinity=False)


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
        with pytest.raises(ValueError, match=r"\|alpha\|\^2 = 1482"):
            coherent_vector(38.5, 1800)
        assert coherent_underflows(38.5) and not coherent_underflows(37.6)

    def test_normalized_just_below_the_underflow(self):
        assert abs(np.linalg.norm(coherent_vector(37.6, 1800)) - 1.0) < 1e-12

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
        adag = creation_matrix(dim)
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
        from gausscat.gauss_sums import RationalAngle

        f, dim = CoprimeFraction(2, 7), 24
        dense = np.eye(dim, dtype=complex)
        factor = rotation_diagonal(f, dim).conj()[:, None] * annihilation_matrix(dim)
        for _ in range(f.N):
            dense = dense @ factor
        for i in range(dim - f.N):
            phase = RationalAngle(0)
            mag = 1.0
            for step in range(f.N):
                phase = phase + RationalAngle(2 * f.M * (i + step), f.N)
                mag *= math.sqrt(i + step + 1)
            exact = phase.to_complex() * mag
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


class TestKerrIdentity:
    def test_alpha_zero_is_exact(self):
        assert kerr_identity_residual(0.0, CoprimeFraction(1, 2), 32) == 0.0

    def test_parity_cat(self):
        assert kerr_identity_residual(1.0, CoprimeFraction(1, 2), 64) < 1e-12

    @pytest.mark.parametrize("m, n", [(1, 2), (3, 4), (2, 5), (3, 8)])
    def test_matrix_conjugation(self, m, n):
        assert kerr_conjugation_residual(CoprimeFraction(m, n), 64) < 1e-12

    @pytest.mark.parametrize("m, n", [(5, 12), (11, 12)])
    def test_matrix_conjugation_at_large_dim(self, m, n):
        # an absolute norm over entries of size sqrt(n) gives 1.13e-12 here
        residual = kerr_conjugation_residual(CoprimeFraction(m, n), 2048)
        assert residual <= TOLERANCES["kerr-matrix-identity"]

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
