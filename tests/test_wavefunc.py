"""Unit tests for the coordinate-space realization."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gausscat import wavefunc
from gausscat.fock import coherent_vector
from gausscat.gauss_sums import CoprimeFraction
from gausscat.superposition import build_descriptor
from gausscat.wavefunc import (
    AliasingWarning,
    GridSpec,
    WaveSample,
    frac_fourier,
    geneq_residual,
    hermite_basis,
    kitten_wave_sample,
    mehler_kernel,
    psi_cat_F,
    psi_cat_F_inverse,
    psi_cat_P,
    psi_coherent,
    reduce_angle,
    superposition_wavefunction,
)

STANDARD_GRID = GridSpec(12.0, 2001)


class TestGridSpec:
    def test_spacing_and_symmetry(self):
        grid = GridSpec(2.0, 5)
        assert grid.spacing == 1.0
        assert np.array_equal(grid.x(), [-2.0, -1.0, 0.0, 1.0, 2.0])

    @pytest.mark.parametrize("hw, points", [(0.0, 5), (-1.0, 5), (2.0, 4), (2.0, 1),
                                            (math.nan, 5), (math.inf, 5)])
    def test_invalid_rejected(self, hw, points):
        with pytest.raises(ValueError):
            GridSpec(hw, points)

    def test_trapezoid_weights(self):
        w = GridSpec(2.0, 5).trapezoid_weights()
        assert np.array_equal(w, [0.5, 1.0, 1.0, 1.0, 0.5])


def _hermite_polynomials(n_max, x):
    """H_0(x) .. H_{n_max}(x) read back from the normalized basis through
    psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi))."""
    psi = hermite_basis(n_max, np.array([x]))[:, 0]
    norms = [math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
             for n in range(n_max + 1)]
    return psi * norms * math.exp(0.5 * x * x)


class TestHermite:
    @pytest.mark.parametrize("x", [-1.5, 0.0, 3.0])
    def test_base_cases(self, x):
        values = _hermite_polynomials(1, x)
        assert abs(values[0] - 1.0) < 1e-14 and abs(values[1] - 2.0 * x) < 1e-14

    def test_known_values(self):
        # H_2(3) = 34, H_3(1) = -4: an oracle independent of the recurrence
        assert abs(_hermite_polynomials(2, 3.0)[2] - 34.0) < 1e-12
        assert abs(_hermite_polynomials(3, 1.0)[3] + 4.0) < 1e-13


class TestPsiN:
    def test_gaussian_peak(self):
        assert abs(hermite_basis(0, np.array([0.0]))[0, 0] - math.pi ** -0.25) < 1e-15

    def test_odd_function_vanishes_at_origin(self):
        assert hermite_basis(1, np.array([0.0]))[1, 0] == 0.0

    def test_orthonormality_quadrature(self):
        grid = GridSpec(10.0, 2001)
        basis = hermite_basis(5, grid.x())
        w = grid.trapezoid_weights()
        assert abs((w * basis[3]) @ basis[5]) < 1e-8
        assert abs((w * basis[5]) @ basis[5] - 1.0) < 1e-8


class TestPsiCoherent:
    def test_alpha_zero_reduces_to_ground_state(self):
        x = np.linspace(-4, 4, 41)
        assert np.abs(psi_coherent(0.0, x) - hermite_basis(0, x)[0]).max() < 1e-15

    def test_peak_position_for_real_alpha(self):
        x = np.linspace(-6, 6, 4801)
        alpha = 1.2
        peak = x[np.argmax(np.abs(psi_coherent(alpha, x)))]
        assert abs(peak - math.sqrt(2) * alpha) < 5e-3

    @pytest.mark.parametrize("alpha", [1.0, 0.5 + 0.5j, -1.5, 1.9j])
    def test_matches_fock_series(self, alpha):
        x = np.linspace(-6, 6, 121)
        series = coherent_vector(alpha, 64) @ hermite_basis(63, x)
        assert np.abs(series - psi_coherent(alpha, x)).max() < 1e-9


class TestCatWavefunctions:
    @pytest.mark.parametrize("alpha", [1.0, 0.7 + 0.3j, 1.8])
    def test_parity_cat_matches_superposition(self, alpha):
        x = np.linspace(-6, 6, 241)
        desc = build_descriptor(CoprimeFraction(1, 2))
        superposed = superposition_wavefunction(alpha, desc, x)
        assert np.abs(superposed - psi_cat_P(alpha, x)).max() < 1e-12

    def test_parity_cat_at_origin(self):
        assert abs(psi_cat_P(0.0, 0.0) - math.pi ** -0.25) < 1e-15

    def test_parity_cat_reflection_symmetry(self):
        x = np.linspace(-5, 5, 101)
        alpha = 0.8 + 0.4j
        assert np.abs(psi_cat_P(-alpha, -x) - psi_cat_P(alpha, x)).max() < 1e-15

    def test_fourier_cat_alpha_zero_is_gaussian(self):
        x = np.linspace(-4, 4, 81)
        assert np.abs(psi_cat_F(0.0, x) - np.exp(-x * x / 2)).max() < 1e-15

    @pytest.mark.parametrize("alpha", [1.0, 0.6 + 0.2j])
    def test_fourier_cat_matches_superposition_up_to_constant(self, alpha):
        x = np.linspace(-6, 6, 241)
        desc = build_descriptor(CoprimeFraction(3, 4))
        superposed = superposition_wavefunction(alpha, desc, x)
        closed = psi_cat_F(alpha, x)
        scale = superposed[120] / closed[120]
        assert np.abs(superposed - scale * closed).max() < 1e-10

    def test_inverse_variant_conjugation_rule(self):
        x = np.linspace(-5, 5, 101)
        got = psi_cat_F_inverse(1.3, x)
        assert np.abs(got - np.conj(psi_cat_F(1.3, x))).max() < 1e-15

    def test_inverse_variant_matches_its_superposition(self):
        x = np.linspace(-6, 6, 241)
        desc = build_descriptor(CoprimeFraction(1, 4))
        superposed = superposition_wavefunction(1.1, desc, x)
        closed = psi_cat_F_inverse(1.1, x)
        scale = superposed[120] / closed[120]
        assert np.abs(superposed - scale * closed).max() < 1e-10


class TestMehlerKernel:
    def test_symmetric_in_arguments(self):
        assert mehler_kernel(0.3, 1.1, 2.0) == mehler_kernel(1.1, 0.3, 2.0)

    def test_negated_angle_conjugates(self):
        x, y = 0.7, -0.4
        assert abs(mehler_kernel(x, y, -1.3) - mehler_kernel(x, y, 1.3).conjugate()) < 1e-15

    def test_fourier_point(self):
        # phi = -pi/2 is the plain Fourier kernel e^{ixy}/sqrt(2 pi)
        x, y = 0.9, 1.4
        want = cmath.exp(1j * x * y) / math.sqrt(2 * math.pi)
        assert abs(mehler_kernel(x, y, -math.pi / 2) - want) < 1e-15

    @pytest.mark.parametrize("phi", [0.0, math.pi, -math.pi, 2 * math.pi])
    def test_singular_angles_rejected(self, phi):
        with pytest.raises(ValueError):
            mehler_kernel(0.1, 0.2, phi)

    def test_reduce_angle(self):
        assert abs(reduce_angle(3 * math.pi / 2) + math.pi / 2) < 1e-15
        assert reduce_angle(2 * math.pi) == 0.0
        assert abs(reduce_angle(-3 * math.pi) - math.pi) < 1e-15


class TestFracFourier:
    def test_eigenfunction_property(self):
        phi = 2 * math.pi / 3
        basis = hermite_basis(6, STANDARD_GRID.x())
        for n in (0, 1, 4, 6):
            sample = WaveSample(STANDARD_GRID, basis[n].astype(complex))
            out = frac_fourier(sample, phi)
            want = cmath.exp(-1j * phi * n) * basis[n]
            assert np.abs(out.values - want).max() < 1e-6

    def test_round_trip(self):
        phi = 2 * math.pi / 5
        sample = WaveSample(STANDARD_GRID, psi_coherent(1.0, STANDARD_GRID.x()))
        back = frac_fourier(frac_fourier(sample, phi), -phi)
        assert np.abs(back.values - sample.values).max() < 1e-5

    def test_vacuum_invariant(self):
        sample = WaveSample(STANDARD_GRID, psi_coherent(0.0, STANDARD_GRID.x()))
        out = frac_fourier(sample, 2 * math.pi / 3)
        assert np.abs(out.values - sample.values).max() < 1e-7

    @pytest.mark.parametrize("phi", [math.pi, -math.pi, 3 * math.pi])
    def test_half_turn_is_the_parity_map(self, phi):
        sample = kitten_wave_sample(1.0 + 0.5j, CoprimeFraction(1, 3), STANDARD_GRID, 64)
        assert np.array_equal(frac_fourier(sample, phi).values, sample.values[::-1])

    def test_zero_angle_rejected(self):
        sample = WaveSample(STANDARD_GRID, psi_coherent(1.0, STANDARD_GRID.x()))
        with pytest.raises(ValueError):
            frac_fourier(sample, 0.0)

    def test_boundary_mass_warning(self):
        grid = GridSpec(3.0, 61)
        sample = WaveSample(grid, psi_coherent(2.0, grid.x()))
        with pytest.warns(AliasingWarning):
            frac_fourier(sample, math.pi / 2)


class TestChirpZTransform:
    """The FFT evaluation of the trapezoid sum against the sum itself: this is
    the only place the dense P x P kernel is built."""

    @pytest.mark.parametrize("points", [201, 401])
    @pytest.mark.parametrize("phi, bound", [
        (2.0, 1e-13), (-1.3, 1e-13), (math.pi / 2, 1e-13), (-math.pi / 2, 1e-13),
        (7.0, 1e-13),
        # near the pole the chirps carry phases of hundreds of radians
        (3.0, 1e-12), (-3.1, 1e-12),
    ])
    def test_matches_the_dense_quadrature(self, points, phi, bound):
        grid = GridSpec(10.0, points)
        x = grid.x()
        values = np.vstack([hermite_basis(6, x), psi_coherent(1.0 + 0.5j, x)])
        dense = (grid.trapezoid_weights() * values) @ mehler_kernel(x[:, None], x[None, :], phi).T
        assert np.abs(wavefunc._trapezoid_transform(grid, values, phi) - dense).max() <= bound

    def test_wide_grid_integro_differential(self):
        # 10^5 points, where the dense kernel would need 160 GB
        grid = GridSpec(80.0, 100001)
        assert geneq_residual(1.0, CoprimeFraction(1, 3), grid, 64) <= 1e-5

    def test_wide_grid_memory_is_linear(self):
        grid = GridSpec(80.0, 100001)
        sample = WaveSample(grid, psi_coherent(1.0, grid.x()))
        tracemalloc.start()
        try:
            frac_fourier(sample, 2 * math.pi / 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestWaveSample:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WaveSample(GridSpec(2.0, 5), np.zeros(4, dtype=complex))

    def test_ground_state_norm(self):
        sample = WaveSample(STANDARD_GRID, psi_coherent(0.0, STANDARD_GRID.x()))
        assert abs(sample.norm() - 1.0) < 1e-9


class TestKittenWaveSample:
    def test_parity_cat_closed_form(self):
        # end to end: Fock series synthesis reproduces the closed form
        sample = kitten_wave_sample(1.0, CoprimeFraction(1, 2), STANDARD_GRID, 64)
        want = psi_cat_P(1.0, STANDARD_GRID.x())
        assert np.abs(sample.values - want).max() < 1e-9

    def test_normalized(self):
        sample = kitten_wave_sample(1.5 + 0.5j, CoprimeFraction(2, 5), STANDARD_GRID, 64)
        assert abs(sample.norm() - 1.0) < 1e-6


class TestGeneqResidual:
    def test_vacuum_is_quadrature_noise(self):
        assert geneq_residual(0.0, CoprimeFraction(1, 4), STANDARD_GRID, 64) < 1e-8

    def test_parity_functional_equation(self):
        assert geneq_residual(1.0, CoprimeFraction(1, 2), STANDARD_GRID, 64) < 1e-10

    def test_quarter_rotation(self):
        assert geneq_residual(1.0, CoprimeFraction(1, 4), STANDARD_GRID, 64) < 1e-5

    def test_one_series_and_one_basis_serve_both_sides(self, monkeypatch):
        calls = {"kitten_vector_series": [], "hermite_basis": []}
        for name, log in calls.items():
            def counted(*args, _original=getattr(wavefunc, name), _log=log):
                _log.append(args)
                return _original(*args)
            monkeypatch.setattr(wavefunc, name, counted)
        assert geneq_residual(1.0, CoprimeFraction(1, 4), STANDARD_GRID, 64) < 1e-5
        assert len(calls["kitten_vector_series"]) == 1
        assert [n_max for n_max, _ in calls["hermite_basis"]] == [63]
