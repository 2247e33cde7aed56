"""Coordinate-space realization: Hermite eigenfunctions, closed-form cat
wavefunctions, the Mehler kernel, and the quadrature fractional Fourier
transform.

The oscillator eigenfunctions psi_n are generated by the normalized
three-term recurrence (never via raw Hermite polynomials, which overflow),
wavefunctions of kitten states are synthesized from their truncated Fock
series, and the fractional Fourier transform

    [F_phi psi](x) = integral K(x, y; phi) psi(y) dy

is evaluated by trapezoid quadrature on a uniform grid.  On such a grid the
trapezoid sum factors exactly into a chirp, one FFT convolution with a
chirp, and a chirp (the chirp-z transform), so it costs O(P log P) time and
O(P) memory; no P x P kernel is built.  The chirps take their normalization
from one row K(x, 0) of ``mehler_kernel``, so the kernel's eigenvalue
property F_phi psi_n = exp(-i*phi*n) psi_n stays the decisive test of
mu(phi); derivatives are always taken analytically through the ladder
action (d/dx + x) psi_n = sqrt(2n) psi_{n-1}.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import _abs_squared, kitten_vector_series
from .gauss_sums import CoprimeFraction, _integer
from .superposition import KittenDescriptor, _branches

__all__ = [
    "AliasingWarning",
    "GridSpec",
    "WaveSample",
    "frac_fourier",
    "geneq_residual",
    "hermite_basis",
    "kitten_wave_sample",
    "mehler_kernel",
    "psi_cat_F",
    "psi_cat_F_inverse",
    "psi_cat_P",
    "psi_coherent",
    "reduce_angle",
    "superposition_wavefunction",
]


class AliasingWarning(UserWarning):
    """The sampled function does not decay below 1e-12 at the grid boundary."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid on [-half_width, +half_width].

    The point count must be an odd integer >= 3, stored as the int ``_integer`` reads, so the
    grid contains x = 0 and is exactly symmetric, which lets the parity operator act by reversal.
    """

    half_width: float
    points: int

    def __post_init__(self) -> None:
        if not 0 < 2.0 * self.half_width < math.inf:
            raise ValueError(f"half_width: must be > 0 with a finite span, got {self.half_width}")
        object.__setattr__(self, "points", _integer("points", self.points, 3))
        if self.points % 2 == 0:
            raise ValueError(f"points: must be odd, got {self.points}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def x(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.points, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w


@dataclass(frozen=True)
class WaveSample:
    """A complex wavefunction sampled on a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.grid.points,):
            raise ValueError(f"values: need shape ({self.grid.points},), got {self.values.shape}")

    def norm(self) -> float:
        """Trapezoid estimate of the L2 norm."""
        return math.sqrt(float(self.grid.trapezoid_weights() @ np.abs(self.values) ** 2))


def _positions(name: str, x) -> np.ndarray:
    """x as a float array; ValueError naming it where a position is not finite."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name}: position {x[~np.isfinite(x)][0]} is not finite")
    return x


def hermite_basis(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_0 .. psi_{n_max} sampled on
    x, returned as an (n_max+1, len(x)) array; n_max = -1 is the empty basis.

    Uses the normalized recurrence
        psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}
    so no factorials or large polynomial values ever appear.  psi_0 is 0.0
    beyond |x| ~ 38.6, so it is evaluated on min(|x|, 40), where x^2 cannot overflow.
    An error naming n_max below -1 or not an integer (``_integer``), or x (``_positions``).
    """
    x = _positions("x", x)
    basis = np.zeros((_integer("n_max", n_max, -1) + 1, x.size))
    basis[:1] = math.pi ** -0.25 * np.exp(-0.5 * np.minimum(np.abs(x), 40.0) ** 2)
    if n_max >= 1:
        basis[1] = math.sqrt(2.0) * x * basis[0]
    for n in range(1, n_max):
        basis[n + 1] = (math.sqrt(2.0 / (n + 1)) * x * basis[n]
                        - math.sqrt(n / (n + 1)) * basis[n - 1])
    return basis


def _phase_within_digits(name: str, phase) -> np.ndarray:
    """phase, or ValueError naming the argument it grows with where it is not finite or > 2**53."""
    if not (np.abs(phase) <= 2.0 ** 53).all():
        raise ValueError(f"{name}: the phase reaches {np.max(np.abs(phase)):g}, beyond 2**53")
    return phase


def psi_coherent(alpha: complex, x) -> np.ndarray:
    """Coherent-state wavefunction pi^{-1/4} exp(-|a|^2/2 - a^2/2 + sqrt(2) a x - x^2/2), a
    broadcast with x, as its completed square exp(-d^2/2 + i (sqrt(2) Im a x - Re a Im a)),
    d = x - sqrt(2) Re a clamped at 40 as in ``hermite_basis``.  ValueError naming x where it
    is not finite (``_positions``), else alpha where that phase has no digits left
    (``_phase_within_digits``)."""
    x = _positions("x", x)
    p, q = np.real(alpha), np.imag(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        square = np.minimum(np.square(x - math.sqrt(2.0) * p), 1600.0)
        phase = math.sqrt(2.0) * q * x - p * q
    return math.pi ** -0.25 * np.exp(-0.5 * square + 1j * _phase_within_digits("alpha", phase))


def _near_positions(alpha: complex, x) -> tuple[np.ndarray, np.ndarray]:
    """x (``_positions``) with 0.0 in place of each |x| > 2*|alpha| + 40, and the mask of those.
    Each term of a cat form is a phase times exp(-(x - x_k)^2/2) with |x_k| <= sqrt(2)*|alpha|,
    below exp(-800) there, so 0.0 in floating point: the forms write 0 there and evaluate only
    the positions within 2*|alpha| + 40 of 0, where x*x is at most about 4*|alpha|^2.  The forms
    index their ``np.where`` with ``[()]``, so a scalar x still gives a scalar."""
    x = _positions("x", x)
    far = np.abs(x) > 2.0 * float(abs(alpha)) + 40.0
    return np.where(far, 0.0, x), far


def psi_cat_P(alpha: complex, x) -> np.ndarray:
    """Closed form of the two-component parity cat wavefunction:
    sqrt(2)/pi^{1/4} exp((a^2 - |a|^2 - x^2)/2) cos(sqrt(2) a x - pi/4).

    The cosine is two exponentials with the Gaussian inside each: no factor overflows alone.
    Substituting alpha -> -i*alpha gives the Yurke-Stoler state.  ValueError naming x where a
    position is not finite (``_positions``), or alpha where |alpha|^2 is not; 0.0 far out
    (``_near_positions``).
    """
    x, far = _near_positions(alpha, x)
    gauss = 0.5 * (alpha * alpha - _abs_squared(alpha) - x * x)
    z = 1j * (math.sqrt(2.0) * alpha * x - math.pi / 4.0)
    return np.where(far, 0j, (np.exp(gauss + z) + np.exp(gauss - z))
                    / (math.sqrt(2.0) * math.pi ** 0.25))[()]


def psi_cat_F(alpha: complex, x) -> np.ndarray:
    """Closed form of the four-component Fourier cat wavefunction:
    e^{-(|a|^2+x^2)/2} (e^{-i a^2/2} cosh((1+i) a x)
                        + e^{i a^2/2 + i pi/4} sinh((1-i) a x)).

    This expression is exactly pi^{1/4} times the normalized 3/4 superposition.
    cosh and sinh are two exponentials each, with the Gaussian inside each term.  ValueError
    naming x where a position is not finite (``_positions``), or alpha where |alpha|^2 is not;
    0.0 far out (``_near_positions``).
    """
    x, far = _near_positions(alpha, x)
    gauss = -0.5 * (_abs_squared(alpha) + x * x)
    c, s = gauss - 0.5j * alpha * alpha, gauss + 0.5j * alpha * alpha + 0.25j * math.pi
    u, v = (1.0 + 1.0j) * alpha * x, (1.0 - 1.0j) * alpha * x
    return np.where(far, 0j, 0.5 * (np.exp(c + u) + np.exp(c - u)
                                    + np.exp(s + v) - np.exp(s - v)))[()]


def psi_cat_F_inverse(alpha: complex, x) -> np.ndarray:
    """Inverse-Fourier variant via the conjugation rule
    psi^{(F^-1)}_alpha(x) = conj(psi^{(F)}_{conj(alpha)}(x)); ValueErrors as ``psi_cat_F``."""
    return np.conj(psi_cat_F(complex(alpha).conjugate(), x))


def superposition_wavefunction(alpha: complex, desc: KittenDescriptor, x) -> np.ndarray:
    """Sum of rotated coherent wavefunctions with the descriptor's exact
    coefficients, sum_k c_k psi_coherent(rot_k * alpha, x): ``psi_coherent``
    broadcast over the N amplitudes on a last axis, times the coefficient row."""
    c, beta = _branches(desc, alpha)
    return psi_coherent(beta, np.asarray(x, dtype=float)[..., None]) @ c


def reduce_angle(phi: float) -> float:
    """Reduce an angle mod 2*pi into (-pi, pi].

    The Mehler normalization mu(phi) = exp(i*(phi/2 - (pi/4) sgn(sin phi)))
    is 4*pi-periodic as written, so the branch matters: the analytic
    continuation of the kernel from |q| < 1 (and the eigenvalue property
    on psi_n) selects the representative in (-pi, pi]; ValueError naming phi where not finite.
    """
    if not math.isfinite(phi):
        raise ValueError(f"phi: must be finite, got {phi}")
    reduced = math.remainder(phi, 2.0 * math.pi)
    return math.pi if reduced == -math.pi else reduced


def mehler_kernel(x, y, phi: float) -> np.ndarray:
    """Fractional Fourier kernel
    K(x, y; phi) = mu(phi)/sqrt(2*pi*|sin phi|)
                   * exp(i ((x^2+y^2) cos phi - 2 x y)/(2 sin phi)),
    mu(phi) = exp(i (phi/2 - (pi/4) sgn(sin phi))), phi reduced to (-pi, pi].

    At phi = -pi/2 this is the ordinary Fourier kernel e^{ixy}/sqrt(2*pi).
    Raises for phi a multiple of pi, where the kernel degenerates to the
    identity or parity delta; the transform handles both cases.  ValueError naming x or y
    where it is not finite (``_positions``), the larger where the phase passes 2**53.
    """
    phi = reduce_angle(phi)
    s = math.sin(phi)
    if abs(s) < 1e-9:
        raise ValueError("phi: the kernel is singular at a multiple of pi")
    x, y = _positions("x", x), _positions("y", y)
    mu = np.exp(1j * (0.5 * phi - 0.25 * math.pi * math.copysign(1.0, s)))
    with np.errstate(over="ignore", invalid="ignore"):
        phase = ((x * x + y * y) * math.cos(phi) - 2.0 * x * y) * (0.5 / s)
    name = "y" if np.abs(y).max(initial=0.0) > np.abs(x).max(initial=0.0) else "x"
    return mu / math.sqrt(2.0 * math.pi * abs(s)) * np.exp(1j * _phase_within_digits(name, phase))


def _trapezoid_transform(grid: GridSpec, values: np.ndarray, phi: float) -> np.ndarray:
    """F_phi on each row of a (..., P) array of samples on grid: the trapezoid
    sum sum_y K(x, y) w_y psi(y) of the Mehler kernel, or where the kernel is a
    delta (|sin phi| < 1e-9) the input at phi = 0 or the reversal psi(-x) at pi.

    The sum is evaluated exactly, not approximated, in O(P log P) time and
    O(P) memory per row (the chirp-z factorisation: Bluestein 1970; Ozaktas
    et al., IEEE TSP 44, 1996).  The kernel factors as

        K(x, y) = K(x, 0) K(0, y) / K(0, 0) * exp(-i x y / sin phi),

    and with x = h m, y = h m' on the centred grid,
    x y = h^2 (m^2 + m'^2 - (m - m')^2) / 2.  So the sum is a chirp, one
    zero-padded FFT convolution with exp(i h^2 d^2 / (2 sin phi)), and a
    chirp.  The row K(x, 0) comes from ``mehler_kernel``, which keeps the
    normalization mu(phi)/sqrt(2 pi |sin phi|) and the cot phi chirp in one
    function, the one that ``kernel-spectral`` pins.

    The sum aliases once its filter's local frequency h^2 d / |sin phi| passes the
    Nyquist rate on the state's support (3.05 at phi = 1e-3 on the default grid), so
    where |sin phi| < 1/2 it is taken twice, F_{phi-q} F_q with q = +-pi/2 (index
    additivity, Ozaktas et al.), each step with |sin| >= sqrt(3)/2.
    """
    phi = reduce_angle(phi)
    if abs(math.sin(phi)) < 1e-9:
        return values if math.cos(phi) > 0.0 else values[..., ::-1]
    if abs(math.sin(phi)) < 0.5:
        q = math.copysign(0.5 * math.pi, phi)
        return _trapezoid_transform(grid, _trapezoid_transform(grid, values, q), phi - q)
    row = mehler_kernel(grid.x(), 0.0, phi)
    points = grid.points
    m = np.arange(points) - points // 2
    chirp = row * np.exp(-0.5j * grid.spacing ** 2 / math.sin(phi) * (m * m))
    # a circular convolution of length >= 2P - 1 holds the linear one; the
    # filter depends on d^2 only, so position k holds lag min(k, size - k)
    size = 1 << (2 * points - 2).bit_length()
    d = np.minimum(np.arange(size), size - np.arange(size))
    filt = np.fft.fft(np.exp(0.5j * grid.spacing ** 2 / math.sin(phi) * (d * d)))
    spectrum = np.fft.fft(chirp * grid.trapezoid_weights() * values, size) * filt
    return chirp / row[points // 2] * np.fft.ifft(spectrum)[..., :points]


def frac_fourier(ws: WaveSample, phi: float) -> WaveSample:
    """Fractional Fourier transform of a sample (``_trapezoid_transform``) at any finite
    phi, ``ValueError`` naming phi otherwise; warns when the input does not decay below
    1e-12 at the grid boundary (aliasing risk)."""
    boundary = max(abs(ws.values[0]), abs(ws.values[-1]))
    if boundary >= 1e-12:
        warnings.warn(
            f"boundary magnitude {boundary:.3g} >= 1e-12; widen the grid",
            AliasingWarning,
            stacklevel=2,
        )
    return WaveSample(ws.grid, _trapezoid_transform(ws.grid, ws.values, phi))


def kitten_wave_sample(alpha: complex, f: CoprimeFraction, grid: GridSpec,
                       dim: int) -> WaveSample:
    """Kitten wavefunction synthesized from its truncated Fock series, as basis.T @ coeffs:
    a float matrix times a complex vector in that order gives the same bits under any
    BLAS thread count, where coeffs @ basis does not."""
    coeffs = kitten_vector_series(alpha, f, dim)
    return WaveSample(grid, hermite_basis(dim - 1, grid.x()).T @ coeffs)


def geneq_residual(alpha: complex, f: CoprimeFraction, grid: GridSpec, dim: int) -> float:
    """Residual of the integro-differential eigen-equation

        (d/dx + x) psi(x) = sqrt(2) alpha [F_phi psi](x)

    for the kitten wavefunction at truncation dim, as a max over the whole grid.
    One series c and one basis psi_0 .. psi_{dim-2} serve both sides, the ladder
    action (d/dx + x) psi_n = sqrt(2n) psi_{n-1} and ``frac_fourier`` of the series
    without the top term c_{dim-1} psi_{dim-1}, which the ladder side cannot hold
    (for phi = pi, N = 2, the parity map psi(-x)); each is exactly
    sqrt(2) alpha sum_{n <= dim-2} exp(-i phi n) c_n psi_n.  Both sums are basis.T @ c,
    as in ``kitten_wave_sample``, so the value does not depend on the BLAS thread count.
    """
    coeffs = kitten_vector_series(alpha, f, dim)
    basis = hermite_basis(dim - 2, grid.x())
    lhs = basis.T @ (np.sqrt(2.0 * np.arange(1, dim)) * coeffs[1:])
    rhs = frac_fourier(WaveSample(grid, basis.T @ coeffs[:-1]), f.angle_radians).values
    return float(np.abs(lhs - math.sqrt(2.0) * alpha * rhs).max())
