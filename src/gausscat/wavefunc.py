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

from .fock import kitten_vector_series
from .gauss_sums import CoprimeFraction
from .superposition import KittenDescriptor

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

    The point count must be odd (>= 3) so the grid contains x = 0 and is
    exactly symmetric, which lets the parity operator act by reversal.
    """

    half_width: float
    points: int

    def __post_init__(self) -> None:
        if not 0 < self.half_width < math.inf:
            raise ValueError("half_width must be positive and finite")
        if self.points < 3 or self.points % 2 == 0:
            raise ValueError("points must be an odd integer >= 3")

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
            raise ValueError("values must match the grid point count")

    def norm(self) -> float:
        """Trapezoid estimate of the L2 norm."""
        return math.sqrt(float(self.grid.trapezoid_weights() @ np.abs(self.values) ** 2))


def hermite_basis(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_0 .. psi_{n_max} sampled on
    x, returned as an (n_max+1, len(x)) array.

    Uses the normalized recurrence
        psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}
    so no factorials or large polynomial values ever appear.
    """
    x = np.asarray(x, dtype=float)
    basis = np.zeros((n_max + 1, x.size))
    basis[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        basis[1] = math.sqrt(2.0) * x * basis[0]
    for n in range(1, n_max):
        basis[n + 1] = (math.sqrt(2.0 / (n + 1)) * x * basis[n]
                        - math.sqrt(n / (n + 1)) * basis[n - 1])
    return basis


def psi_coherent(alpha: complex, x) -> np.ndarray:
    """Coherent-state wavefunction
    pi^{-1/4} exp(-|a|^2/2 - a^2/2 + sqrt(2) a x - x^2/2)."""
    x = np.asarray(x, dtype=float)
    return math.pi ** -0.25 * np.exp(
        -0.5 * abs(alpha) ** 2 - 0.5 * alpha * alpha
        + math.sqrt(2.0) * alpha * x - 0.5 * x * x
    )


def psi_cat_P(alpha: complex, x) -> np.ndarray:
    """Closed form of the two-component parity cat wavefunction:
    sqrt(2)/pi^{1/4} exp((a^2 - |a|^2 - x^2)/2) cos(sqrt(2) a x - pi/4).

    Substituting alpha -> -i*alpha gives the Yurke-Stoler state.
    """
    x = np.asarray(x, dtype=float)
    return (math.sqrt(2.0) / math.pi ** 0.25
            * np.exp(0.5 * (alpha * alpha - abs(alpha) ** 2 - x * x))
            * np.cos(math.sqrt(2.0) * alpha * x - math.pi / 4.0))


def psi_cat_F(alpha: complex, x) -> np.ndarray:
    """Closed form of the four-component Fourier cat wavefunction:
    e^{-(|a|^2+x^2)/2} (e^{-i a^2/2} cosh((1+i) a x)
                        + e^{i a^2/2 + i pi/4} sinh((1-i) a x)).

    Note this expression is a constant pi^{1/4} times the normalized
    superposition; comparisons are therefore made up to one global factor.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (abs(alpha) ** 2 + x * x)) * (
        np.exp(-0.5j * alpha * alpha) * np.cosh((1.0 + 1.0j) * alpha * x)
        + np.exp(0.5j * alpha * alpha + 0.25j * math.pi) * np.sinh((1.0 - 1.0j) * alpha * x)
    )


def psi_cat_F_inverse(alpha: complex, x) -> np.ndarray:
    """Inverse-Fourier variant via the conjugation rule
    psi^{(F^-1)}_alpha(x) = conj(psi^{(F)}_{conj(alpha)}(x))."""
    return np.conj(psi_cat_F(complex(alpha).conjugate(), x))


def superposition_wavefunction(alpha: complex, desc: KittenDescriptor, x) -> np.ndarray:
    """Sum of rotated coherent wavefunctions with the descriptor's exact
    coefficients: sum_k c_k psi_coherent(rot_k * alpha, x)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for comp in desc.components:
        out += comp.coefficient.value * psi_coherent(comp.rotation.to_complex() * alpha, x)
    return out


def reduce_angle(phi: float) -> float:
    """Reduce an angle mod 2*pi into (-pi, pi].

    The Mehler normalization mu(phi) = exp(i*(phi/2 - (pi/4) sgn(sin phi)))
    is 4*pi-periodic as written, so the branch matters: the analytic
    continuation of the kernel from |q| < 1 (and the eigenvalue property
    on psi_n) selects the representative in (-pi, pi].
    """
    reduced = math.remainder(phi, 2.0 * math.pi)
    return math.pi if reduced == -math.pi else reduced


def mehler_kernel(x, y, phi: float) -> np.ndarray:
    """Fractional Fourier kernel
    K(x, y; phi) = mu(phi)/sqrt(2*pi*|sin phi|)
                   * exp(i ((x^2+y^2) cos phi - 2 x y)/(2 sin phi)),
    mu(phi) = exp(i (phi/2 - (pi/4) sgn(sin phi))), phi reduced to (-pi, pi].

    At phi = -pi/2 this is the ordinary Fourier kernel e^{ixy}/sqrt(2*pi).
    Raises for phi a multiple of pi, where the kernel degenerates to the
    identity or parity delta; the transform handles the parity case.
    """
    phi = reduce_angle(phi)
    s = math.sin(phi)
    if abs(s) < 1e-9:
        raise ValueError("kernel is singular for phi a multiple of pi")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = np.exp(1j * (0.5 * phi - 0.25 * math.pi * math.copysign(1.0, s)))
    return (mu / math.sqrt(2.0 * math.pi * abs(s))
            * np.exp(1j * ((x * x + y * y) * math.cos(phi) - 2.0 * x * y) / (2.0 * s)))


def _trapezoid_transform(grid: GridSpec, values: np.ndarray, phi: float) -> np.ndarray:
    """F_phi on each row of a (..., P) array of samples on grid: the trapezoid
    sum sum_y K(x, y) w_y psi(y) of the Mehler kernel, or at phi = pi
    (mod 2*pi), where the kernel is the parity delta, the reversal psi(-x).

    The sum is evaluated exactly, not approximated, in O(P log P) time and
    O(P) memory per row (the chirp-z factorisation: Bluestein 1970; Ozaktas
    et al., IEEE TSP 44, 1996).  The kernel factors as

        K(x, y) = K(x, 0) K(0, y) / K(0, 0) * exp(-i x y / sin phi),

    and with x = h m, y = h m' on the centred grid,
    x y = h^2 (m^2 + m'^2 - (m - m')^2) / 2.  So the sum is a chirp, one
    zero-padded FFT convolution with exp(i h^2 d^2 / (2 sin phi)), and a
    chirp.  The row K(x, 0) comes from ``mehler_kernel``, which keeps the
    normalization mu(phi)/sqrt(2 pi |sin phi|) and the cot phi chirp in one
    function, the one that ``kernel-spectral`` pins; it also raises at
    phi = 0 (mod 2*pi).
    """
    phi = reduce_angle(phi)
    if abs(math.sin(phi)) < 1e-9 and math.cos(phi) < 0.0:
        return values[..., ::-1]
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
    """Fractional Fourier transform of a sample (``_trapezoid_transform``); warns
    when the input does not decay below 1e-12 at the grid boundary (aliasing risk)."""
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
    """Kitten wavefunction synthesized from its truncated Fock series."""
    coeffs = kitten_vector_series(alpha, f, dim)
    return WaveSample(grid, coeffs @ hermite_basis(dim - 1, grid.x()))


def geneq_residual(alpha: complex, f: CoprimeFraction, grid: GridSpec, dim: int) -> float:
    """Residual of the integro-differential eigen-equation

        (d/dx + x) psi(x) = sqrt(2) alpha [F_phi psi](x)

    for the kitten wavefunction at truncation dim, as a max over interior
    grid points.  One truncated series c and one basis psi_0 .. psi_{dim-1}
    serve both sides.  The derivative side is exact (ladder action on the
    series); the right side is ``frac_fourier`` of the samples sum_n c_n psi_n,
    which for phi = pi (N = 2) is the parity map psi(-x) with no integration.
    """
    coeffs = kitten_vector_series(alpha, f, dim)
    basis = hermite_basis(dim - 1, grid.x())
    # (d/dx + x) psi_n = sqrt(2n) psi_{n-1}; the top row, which would need the
    # truncated coefficient c_D, is dropped
    lhs = (np.sqrt(2.0 * np.arange(1, dim)) * coeffs[1:]) @ basis[:-1]
    rhs = frac_fourier(WaveSample(grid, coeffs @ basis), f.angle_radians).values
    return float(np.abs(lhs - math.sqrt(2.0) * alpha * rhs)[1:-1].max())
