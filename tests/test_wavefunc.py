"""Unit tests for the coordinate-space realization."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gausscat import wavefunc
from gausscat.fock import (aN_identity_residual, coherent_vector, kerr_conjugation_residual,
                           kerr_diagonal, required_dimension, rotation_diagonal,
                           time_evolution_residual, within_time_bound, within_truncation_guard)
from gausscat.gauss_sums import CoprimeFraction, unit_phase
from gausscat.superposition import build_descriptor
from gausscat.verify import spectral_error
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
from references import _cmath_phase

STANDARD_GRID = GridSpec(12.0, 2001)


class TestGridSpec:
    def test_spacing_and_symmetry(self):
        grid = GridSpec(2.0, 5)
        assert grid.spacing == 1.0
        assert np.array_equal(grid.x(), [-2.0, -1.0, 0.0, 1.0, 2.0])

    @pytest.mark.parametrize("hw, points", [(0.0, 5), (-1.0, 5), (2.0, 4), (2.0, 1),
                                            (math.nan, 5), (math.inf, 5), (1e308, 5)])
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

    @pytest.mark.parametrize("alpha", [30.0, 1e5, 1e10, -1e10])
    def test_exact_at_the_peak_of_a_large_amplitude(self, alpha):
        # the completed square: exp(-|a|^2/2 - a^2/2) and exp(sqrt(2) a x) need
        # not cancel (off by 1.43e-6 at 1e5 as one exponent, inf at 1e10)
        assert psi_coherent(alpha, math.sqrt(2.0) * alpha) == math.pi ** -0.25

    @pytest.mark.parametrize("alpha, x", [
        (1e200j, 1.0), (1e10 + 1e10j, 0.0), (1e8j, 1e8), (complex("nan"), 0.0),
        (float("inf"), 0.0), (complex(0.0, float("inf")), 0.0)])
    def test_phase_without_digits_is_a_value_error_naming_alpha(self, alpha, x):
        # sqrt(2) Im(a) x - Re(a) Im(a) is not finite or beyond 2**53
        with pytest.raises(ValueError, match="alpha"):
            psi_coherent(alpha, x)

    def test_phase_bound_is_2_to_the_53_inclusive(self):
        # at x = 0 the phase is -Re(a) Im(a); 2**53 + 2 is the next float above 2**53
        value = psi_coherent(complex(1.0, -2.0 ** 53), 0.0)
        assert abs(abs(value) - math.pi ** -0.25 * math.exp(-1.0)) < 1e-16
        with pytest.raises(ValueError, match="^alpha: "):
            psi_coherent(complex(1.0, -(2.0 ** 53 + 2.0)), 0.0)

    @pytest.mark.parametrize("alpha, x", [
        (1.0, float("inf")), (1j, float("-inf")), (0.0, float("nan")),
        (1.0, [0.0, float("nan")])])
    def test_position_without_digits_is_a_value_error_naming_x(self, alpha, x):
        with pytest.raises(ValueError, match="^x"):
            psi_coherent(alpha, x)


_PENTAGON = build_descriptor(CoprimeFraction(2, 5))

# README: a scalar x gives a 0-d array
_SCALAR_X_FUNCTIONS = {
    "psi_coherent": lambda x: psi_coherent(0.7 + 0.2j, x),
    "psi_cat_P": lambda x: psi_cat_P(0.7 + 0.2j, x),
    "psi_cat_F": lambda x: psi_cat_F(0.7 + 0.2j, x),
    "psi_cat_F_inverse": lambda x: psi_cat_F_inverse(0.7 + 0.2j, x),
    "superposition_wavefunction": lambda x: superposition_wavefunction(1.1, _PENTAGON, x),
    "mehler_kernel": lambda x: mehler_kernel(x, 0.3, 0.9),
}


class TestArrayShapes:
    @pytest.mark.parametrize("name", sorted(_SCALAR_X_FUNCTIONS))
    def test_scalar_x_gives_a_0d_array(self, name):
        fn = _SCALAR_X_FUNCTIONS[name]
        value = fn(0.5)
        assert np.shape(value) == ()
        assert value == pytest.approx(fn(np.array([0.5]))[0], rel=1e-15)

    @pytest.mark.parametrize("m, n, alpha", [(1, 2, 1.0), (3, 4, 0.6 + 0.2j), (2, 5, -1.3j)])
    def test_superposition_matches_per_component_loop(self, m, n, alpha):
        # reference: one coherent wavefunction per rotated amplitude, added in turn
        x = np.linspace(-5, 5, 21).reshape(3, 7)
        desc = build_descriptor(CoprimeFraction(m, n))
        loop = np.zeros(x.shape, dtype=complex)
        for p, r in zip(desc.phases.tolist(), desc.rotations.tolist()):
            value = _cmath_phase(p, 4 * n) / math.sqrt(n)
            loop += value * psi_coherent(_cmath_phase(r, 2 * n) * alpha, x)
        superposed = superposition_wavefunction(alpha, desc, x)
        assert superposed.shape == (3, 7)
        assert np.abs(superposed - loop).max() < 1e-15


# every function of one amplitude whose |alpha|^2 a float ** would overflow;
# psi_coherent never squares |alpha|
_AMPLITUDE_FUNCTIONS = {
    "required_dimension": required_dimension,
    "psi_cat_P": lambda alpha: psi_cat_P(alpha, 0.0),
    "psi_cat_F": lambda alpha: psi_cat_F(alpha, 0.0),
    "psi_cat_F_inverse": lambda alpha: psi_cat_F_inverse(alpha, 0.0),
}


class TestHugeAmplitudes:
    @pytest.mark.parametrize("alpha", [1e200, 1e200j])
    @pytest.mark.parametrize("name", sorted(_AMPLITUDE_FUNCTIONS))
    def test_infinite_abs_squared_is_a_value_error_naming_alpha(self, name, alpha):
        with pytest.raises(ValueError, match="alpha"):
            _AMPLITUDE_FUNCTIONS[name](alpha)

    @pytest.mark.parametrize("alpha, value", [
        (1e150j, math.pi ** -0.25), (1e200, 0.0), (1e200j, math.pi ** -0.25)])
    def test_completed_square_keeps_the_coherent_value_exact(self, alpha, value):
        # magnitude exp(-(x - sqrt(2) Re a)^2/2), phase sqrt(2) Im(a) x - Re(a) Im(a):
        # at x = 0 that is exp(-(Re a)^2) with phase 0, and |alpha|^2 is never formed
        assert psi_coherent(alpha, 0.0) == value


class TestHugePositions:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1j, 1.5 + 0.5j, 2.0 - 2.0j, 1e100 + 1e100j])
    @pytest.mark.parametrize("name", ["psi_cat_P", "psi_cat_F", "psi_cat_F_inverse"])
    def test_cat_forms_are_zero_far_out_without_a_warning(self, name, alpha):
        # x * x overflowed with a RuntimeWarning, and at +-1e308 alpha * x too: the value
        # read nan there for every amplitude but 0, 1 and 1j; the Gaussian makes it 0
        x = np.array([1e160, -1e200, 1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = getattr(wavefunc, name)(alpha, x)
            scalar = getattr(wavefunc, name)(alpha, 1e200)
        assert (values == 0).all()
        assert isinstance(scalar, np.complex128) and scalar == 0  # a scalar x gives a scalar


_THIRD = CoprimeFraction(1, 3)

# a position that is not finite, or a size below its least value, each by the argument's name
_BAD_ARGUMENTS = {
    "hermite_basis-x-inf": ("x", lambda: hermite_basis(1, [math.inf])),
    "hermite_basis-n_max-negative": ("n_max", lambda: hermite_basis(-3, np.zeros(3))),
    "hermite_basis-n_max-edge": ("n_max", lambda: hermite_basis(-2, np.zeros(3))),
    "mehler_kernel-x-nan": ("x", lambda: mehler_kernel(math.nan, 0.0, 1.0)),
    "mehler_kernel-y-inf": ("y", lambda: mehler_kernel(0.0, math.inf, 1.0)),
    "psi_cat_P-x-nan": ("x", lambda: psi_cat_P(1.0, math.nan)),
    "psi_cat_F-x-nan": ("x", lambda: psi_cat_F(1.0, math.nan)),
    "psi_cat_F_inverse-x-inf": ("x", lambda: psi_cat_F_inverse(1.0, math.inf)),
    "rotation_diagonal-dim-negative": ("dim", lambda: rotation_diagonal(_THIRD, -2)),
    "kerr_diagonal-dim-negative": ("dim", lambda: kerr_diagonal(_THIRD, -2)),
    "within_truncation_guard-dim-negative": ("dim", lambda: within_truncation_guard(1.0, -1)),
    "within_time_bound-dim-negative": ("dim", lambda: within_time_bound(1.0, -5)),
    # the refusals below named no argument, or (1e160) returned nan
    "aN_identity_residual-dim-small": ("dim", lambda: aN_identity_residual(_THIRD, 2)),
    "kerr_conjugation_residual-dim-small": ("dim", lambda: kerr_conjugation_residual(_THIRD, 1)),
    "GridSpec-half_width-negative": ("half_width", lambda: GridSpec(-1.0, 5)),
    "WaveSample-values-shape": ("values", lambda: WaveSample(GridSpec(2.0, 5), np.zeros(4))),
    "reduce_angle-phi-nan": ("phi", lambda: reduce_angle(math.nan)),
    "mehler_kernel-phi-singular": ("phi", lambda: mehler_kernel(0.0, 0.0, 0.0)),
    "mehler_kernel-x-phase": ("x", lambda: mehler_kernel(1e160, 0.0, 1.0)),
    "mehler_kernel-y-phase": ("y", lambda: mehler_kernel(0.0, 1e160, 1.0)),
    "time_evolution_residual-t-large": (
        "t", lambda: time_evolution_residual(1.0, _THIRD, [1e15], 64)),
    "unit_phase-den-zero": ("den", lambda: unit_phase(1, 0)),
    "unit_phase-den-large": ("den", lambda: unit_phase(1, 2**61)),
}

# an integer argument that is not one: np.arange took 2.5 as 3 entries, GridSpec took
# 5.5 points, and unit_phase would truncate the angle
_FLOAT_SIZES = {
    "rotation_diagonal": ("dim", lambda: rotation_diagonal(_THIRD, 2.5)),
    "kerr_diagonal": ("dim", lambda: kerr_diagonal(_THIRD, 2.5)),
    "within_truncation_guard": ("dim", lambda: within_truncation_guard(1.0, 64.0)),
    "within_time_bound": ("dim", lambda: within_time_bound(1.0, 64.0)),
    "coherent_vector": ("dim", lambda: coherent_vector(1.0, 8.0)),
    "aN_identity_residual": ("dim", lambda: aN_identity_residual(_THIRD, 5.5)),
    "hermite_basis": ("n_max", lambda: hermite_basis(2.5, np.zeros(3))),
    "GridSpec": ("points", lambda: GridSpec(12.0, 5.5)),
    "unit_phase-den": ("den", lambda: unit_phase(1, 2.5)),
    "unit_phase-nums": ("nums", lambda: unit_phase(1.5, 4)),
}


class TestNamedArguments:
    @pytest.mark.parametrize("case", list(_BAD_ARGUMENTS))
    def test_bad_position_or_size_is_a_value_error_naming_it(self, case):
        name, call = _BAD_ARGUMENTS[case]
        with pytest.raises(ValueError, match=f"^{name}: "):
            call()

    @pytest.mark.parametrize("case", list(_FLOAT_SIZES))
    def test_float_size_is_a_type_error_naming_it(self, case):
        name, call = _FLOAT_SIZES[case]
        with pytest.raises(TypeError, match=f"^{name}: must be an integer"):
            call()

    def test_integer_sizes_of_any_type_are_taken(self):
        assert rotation_diagonal(_THIRD, np.int64(3)).shape == (3,)

    def test_empty_sizes_stay_valid(self):
        assert hermite_basis(-1, np.zeros(3)).shape == (0, 3)
        assert rotation_diagonal(_THIRD, 0).shape == kerr_diagonal(_THIRD, 0).shape == (0,)


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
        # the closed form is exactly pi^{1/4} times the superposition: no fitted constant
        assert np.abs(superposed - math.pi ** -0.25 * psi_cat_F(alpha, x)).max() < 1e-14

    def test_inverse_variant_conjugation_rule(self):
        x = np.linspace(-5, 5, 101)
        got = psi_cat_F_inverse(1.3, x)
        assert np.abs(got - np.conj(psi_cat_F(1.3, x))).max() < 1e-15

    def test_inverse_variant_matches_its_superposition(self):
        x = np.linspace(-6, 6, 241)
        desc = build_descriptor(CoprimeFraction(1, 4))
        superposed = superposition_wavefunction(1.1, desc, x)
        assert np.abs(superposed - math.pi ** -0.25 * psi_cat_F_inverse(1.1, x)).max() < 1e-14

    @pytest.mark.parametrize("closed, fraction, constant, alpha, x", [
        (psi_cat_P, (1, 2), 1.0, 30j, 30.0),
        (psi_cat_F, (3, 4), math.pi ** -0.25, 30.0, 30.0),
        (psi_cat_F, (3, 4), math.pi ** -0.25, 400.0, 2.0),
    ], ids=["parity-30j-30", "fourier-30-30", "fourier-400-2"])
    def test_finite_where_a_cos_cosh_or_sinh_alone_overflows(self, closed, fraction, constant,
                                                             alpha, x):
        # amplitudes the truncation guard accepts; the cos, cosh or sinh alone
        # overflows there and the Gaussian alone underflows, their product does not
        want = superposition_wavefunction(alpha, build_descriptor(CoprimeFraction(*fraction)), x)
        got = constant * closed(alpha, x)
        assert np.isfinite(got) and abs(got - want) <= 1e-12


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
        # the half-open range (-pi, pi] holds pi, not -pi
        assert reduce_angle(-math.pi) == math.pi and reduce_angle(math.pi) == math.pi


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

    @pytest.mark.parametrize("phi", [0.0, 2 * math.pi, -4 * math.pi])
    def test_zero_angle_is_the_identity(self, phi):
        # the kernel is the delta there: the input comes back unchanged
        sample = WaveSample(STANDARD_GRID, psi_coherent(1.0, STANDARD_GRID.x()))
        assert np.array_equal(frac_fourier(sample, phi).values, sample.values)

    @pytest.mark.parametrize("phi", [1e-3, 0.01, 0.03, math.pi - 1e-3, 2 * math.pi / 400])
    def test_small_sine_on_the_default_grid(self, phi):
        # one chirp-z step aliases here (3.05 at 1e-3, 0.53 at 0.03); split
        # through +-pi/2, both steps have |sin| >= sqrt(3)/2
        assert spectral_error(STANDARD_GRID, phi, 10) <= 1e-13

    def test_integro_differential_at_a_small_angle(self):
        # phi = 2*pi/400, where one chirp-z step reads 1.06
        assert geneq_residual(1.0, CoprimeFraction(1, 400), STANDARD_GRID, 64) <= 1e-12

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("transform", [
        reduce_angle,
        lambda phi: mehler_kernel(0.1, 0.2, phi),
        lambda phi: frac_fourier(WaveSample(STANDARD_GRID, psi_coherent(1.0, STANDARD_GRID.x())),
                                 phi),
    ], ids=["reduce_angle", "mehler_kernel", "frac_fourier"])
    def test_non_finite_angle_is_a_value_error_naming_phi(self, transform, phi):
        with pytest.raises(ValueError, match="phi"):
            transform(phi)

    def test_boundary_mass_warning(self):
        grid = GridSpec(3.0, 61)
        sample = WaveSample(grid, psi_coherent(2.0, grid.x()))
        with pytest.warns(AliasingWarning):
            frac_fourier(sample, math.pi / 2)


class TestChirpZTransform:
    """The FFT evaluation of the trapezoid sum against the sum itself: this is
    the only place the dense P x P kernel is built."""

    @pytest.mark.parametrize("points", [201, 401])
    @pytest.mark.parametrize("phi, steps", [
        (2.0, [2.0]), (-1.3, [-1.3]), (math.pi / 2, [math.pi / 2]), (-math.pi / 2, [-math.pi / 2]),
        (7.0, [7.0]),
        # near the pole one dense sum aliases (0.75 off exp(-i phi n) psi_n at
        # 3.0 and 201 points), so the transform is two sums through +-pi/2
        (3.0, [math.pi / 2, 3.0 - math.pi / 2]), (-3.1, [-math.pi / 2, math.pi / 2 - 3.1]),
    ])
    def test_matches_the_dense_quadrature(self, points, phi, steps):
        grid = GridSpec(10.0, points)
        x = grid.x()
        values = dense = np.vstack([hermite_basis(6, x), psi_coherent(1.0 + 0.5j, x)])
        for step in steps:
            dense = (grid.trapezoid_weights() * dense) @ mehler_kernel(x[:, None], x[None, :], step).T
        assert np.abs(wavefunc._trapezoid_transform(grid, values, phi) - dense).max() <= 1e-13

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
        assert [n_max for n_max, _ in calls["hermite_basis"]] == [62]

    @pytest.mark.parametrize("m, n", [(1, 4), (1, 3), (1, 2), (2, 7)])
    def test_exact_at_the_edge_of_the_truncation_guard(self, m, n):
        # |alpha|^2 = 26 <= 64 - 4*8: both sides drop the top term c_63 psi_63,
        # which transformed alone left 6.2e-5
        assert geneq_residual(5 + 1j, CoprimeFraction(m, n), GridSpec(16.0, 2001), 64) <= 1e-12

    def test_one_term_series_has_both_sides_zero(self):
        assert hermite_basis(-1, STANDARD_GRID.x()).shape == (0, STANDARD_GRID.points)
        assert geneq_residual(0.0, CoprimeFraction(1, 4), STANDARD_GRID, 1) == 0.0
