"""Truncated Fock-space realization: ladder operators, diagonal unitaries,
coherent and kitten vectors, and residuals for the defining operator
identities.

A vector of dimension D holds the coefficients of |0> .. |D-1>.  Truncation
corrupts exactly one trailing row per application of the lowering operator,
so every residual below excludes the provably corrupted rows and is an
exact statement (zero up to rounding) rather than a small-error bound.

Quadratic phases like exp(-i*phi*n*(n-1)/2) with phi = 2*pi*M/N are reduced
mod 2*pi as exact integer arithmetic before any trigonometric call, which
keeps the phase error flat in n.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from typing import Iterable

import numpy as np

from .gauss_sums import CoprimeFraction, RationalAngle, unit_phase
from .superposition import KittenDescriptor

__all__ = [
    "TruncationWarning",
    "aN_identity_residual",
    "annihilation_matrix",
    "coherent_underflows",
    "coherent_vector",
    "creation_matrix",
    "eigen_residual",
    "evolution_fidelity",
    "kerr_conjugation_residual",
    "kerr_diagonal",
    "kerr_identity_residual",
    "kitten_vector_series",
    "kitten_vector_superposition",
    "mu_factor",
    "required_dimension",
    "rotation_diagonal",
    "time_evolution_residual",
    "within_truncation_guard",
]


class TruncationWarning(UserWarning):
    """The coherent-state tail is not negligible at the requested dimension."""


def required_dimension(alpha: complex) -> int:
    """Smallest dim that passes ``within_truncation_guard``.

    That is 1 for alpha = 0, and otherwise the first integer at or above the
    root (2 + sqrt(4 + |alpha|^2))^2 of |alpha|^2 = dim - 4*sqrt(dim).  The
    guard is evaluated on each side of the rounded root, so rounding cannot
    return a dim that fails it (as 16 would for |alpha|^2 = 1e-300) or one
    past the smallest that passes.
    """
    a2 = abs(alpha) ** 2
    if a2 == 0:
        return 1
    dim = math.ceil((2.0 + math.sqrt(4.0 + a2)) ** 2)
    if within_truncation_guard(alpha, dim - 1):
        return dim - 1
    return dim if within_truncation_guard(alpha, dim) else dim + 1


def within_truncation_guard(alpha: complex, dim: int) -> bool:
    """|alpha|^2 <= dim - 4*sqrt(dim), clamped at zero so that alpha = 0,
    whose vacuum vector is exact at any dim >= 1, always passes."""
    return abs(alpha) ** 2 <= max(0.0, dim - 4.0 * math.sqrt(dim))


def coherent_underflows(alpha: complex) -> bool:
    """exp(-|alpha|^2/2) is below the smallest normal float (|alpha|^2 > ~1416.8)."""
    return math.exp(-0.5 * abs(alpha) ** 2) < sys.float_info.min


def annihilation_matrix(dim: int) -> np.ndarray:
    """Lowering operator a: superdiagonal sqrt(n)."""
    m = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    m[n - 1, n] = np.sqrt(n)
    return m


def creation_matrix(dim: int) -> np.ndarray:
    """Raising operator: subdiagonal sqrt(n+1)."""
    return annihilation_matrix(dim).T.conj()


def rotation_diagonal(f: CoprimeFraction, dim: int) -> np.ndarray:
    """Diagonal of U(phi) = exp(-i*phi*(L - 1/2)): entries exp(-i*phi*n)."""
    return unit_phase(-2 * f.M * np.arange(dim, dtype=np.int64), f.N)


def kerr_diagonal(f: CoprimeFraction, dim: int) -> np.ndarray:
    """Diagonal of the Kerr unitary G(phi): entries exp(i*phi*n*(n-1)/2).

    On |n> the generator (L - 1/2)(L - 3/2) acts as n*(n-1).
    """
    n = np.arange(dim, dtype=np.int64)
    return unit_phase(f.M * n * (n - 1), f.N)


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Coherent-state coefficients exp(-|alpha|^2/2) alpha^n / sqrt(n!).

    Computed by the stable recurrence v_{n+1} = v_n * alpha / sqrt(n+1).
    Emits a TruncationWarning when the Poisson tail beyond the cutoff is
    not negligible (|alpha|^2 > dim - 4*sqrt(dim)), and raises ValueError
    when the leading amplitude underflows (``coherent_underflows``).
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if coherent_underflows(alpha):
        raise ValueError(f"|alpha|^2 = {abs(alpha) ** 2:.6g}: exp(-|alpha|^2/2) underflows")
    if not within_truncation_guard(alpha, dim):
        warnings.warn(
            f"|alpha|^2 = {abs(alpha) ** 2:.3g} exceeds dim - 4*sqrt(dim) = "
            f"{dim - 4.0 * math.sqrt(dim):.3g}; need dim >= {required_dimension(alpha)}",
            TruncationWarning,
            stacklevel=2,
        )
    v = np.zeros(dim, dtype=complex)
    v[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(dim - 1):
        v[n + 1] = v[n] * alpha / math.sqrt(n + 1)
    return v


def kitten_vector_series(alpha: complex, f: CoprimeFraction, dim: int) -> np.ndarray:
    """Kitten state as a number-basis series: coherent entries times the
    quadratic phase exp(-i*phi*n*(n-1)/2), phi = 2*pi*M/N."""
    n = np.arange(dim, dtype=np.int64)
    return coherent_vector(alpha, dim) * unit_phase(-f.M * n * (n - 1), f.N)


def kitten_vector_superposition(alpha: complex, desc: KittenDescriptor, dim: int) -> np.ndarray:
    """Kitten state as the explicit sum of rotated coherent vectors."""
    v = np.zeros(dim, dtype=complex)
    for comp in desc.components:
        v += comp.coefficient.value * coherent_vector(comp.rotation.to_complex() * alpha, dim)
    return v


def mu_factor(f: CoprimeFraction) -> int:
    """Eigenvalue sign in (U^{-1} a)^N = mu * a^N: (-1)^(M*(N-1)),
    i.e. -1 for even N and +1 for odd N."""
    return -1 if (f.M * (f.N - 1)) % 2 else 1


def eigen_residual(alpha: complex, f: CoprimeFraction, dim: int) -> float:
    """Residual of the defining eigen-equation a|v> = alpha U(phi)|v>.

    Norm of (a v - alpha U v) over rows 0 .. D-2, normalized by |v|; the
    last row is excluded because a applied to a truncated vector corrupts
    it.  Exact (zero up to rounding) for the series kitten vector.
    """
    v = kitten_vector_series(alpha, f, dim)
    lowered = np.sqrt(np.arange(1, dim)) * v[1:]          # rows 0 .. D-2 of a v
    rotated = (rotation_diagonal(f, dim) * v)[: dim - 1]
    return float(np.linalg.norm(lowered - alpha * rotated) / np.linalg.norm(v))


def aN_identity_residual(f: CoprimeFraction, dim: int) -> float:
    """Residual of (U^{-1} a)^N = mu * a^N on rows 0 .. D-N-1.

    Both N-fold products are single-band matrices, so each retained entry
    is an explicit product of one unit phase per step and the shared ladder
    magnitudes sqrt(i+1)..sqrt(i+N).  The step phases exp(i*phi*(i+m)) are
    accumulated as exact rationals and exponentiated once per entry; this
    keeps the residual an exact statement about the phase identity instead
    of drowning it in rounding noise from entries of size sqrt((i+N)!/i!).
    Returns the Frobenius norm of the band difference.
    """
    m, n = f.M, f.N
    if dim <= n:
        raise ValueError(f"need dim > N for at least one valid row (dim={dim}, N={n})")
    mu = mu_factor(f)
    total = 0.0
    for i in range(dim - n):
        phase = RationalAngle(0)
        mag = 1.0
        for step in range(n):
            # (U^{-1} a)[r, r+1] = exp(+i*phi*r) * sqrt(r+1) at row r = i + step
            phase = phase + RationalAngle(2 * m * (i + step), n)
            mag *= math.sqrt(i + step + 1)
        total += abs(phase.to_complex() * mag - mu * mag) ** 2
    return math.sqrt(total)


def _evolved_pairs(alpha: complex, f: CoprimeFraction, times: Iterable[float], dim: int):
    """(t, e^{-itL}|kitten(alpha)>, |kitten(e^{-it} alpha)>) per t; equal up to e^{-it/2}."""
    initial = kitten_vector_series(alpha, f, dim)
    levels = np.arange(dim) + 0.5
    for t in map(float, times):
        yield (t, np.exp(-1j * t * levels) * initial,
               kitten_vector_series(cmath.exp(-1j * t) * alpha, f, dim))


def time_evolution_residual(alpha: complex, f: CoprimeFraction, times: Iterable[float],
                            dim: int) -> list[float]:
    """Residuals of exp(-i*t*L)|alpha> = exp(-i*t/2)|exp(-i*t)*alpha> for the
    kitten series vector, with L acting as n + 1/2, one per t of the grid."""
    return [float(np.linalg.norm(evolved - cmath.exp(-0.5j * t) * rotated))
            for t, evolved, rotated in _evolved_pairs(alpha, f, times, dim)]


def kerr_identity_residual(alpha: complex, f: CoprimeFraction, dim: int) -> float:
    """Residual of |alpha>_phi = G(phi)^{-1} |alpha>: the inverse Kerr
    diagonal applied to a coherent vector must reproduce the series vector."""
    ginv = kerr_diagonal(f, dim).conj()
    return float(np.linalg.norm(ginv * coherent_vector(alpha, dim)
                                - kitten_vector_series(alpha, f, dim)))


def kerr_conjugation_residual(f: CoprimeFraction, dim: int) -> float:
    """Matrix form of the Kerr automorphism: |G^{-1} a G - U^{-1} a| / |a| on
    rows 0 .. D-2 (Frobenius norms), relative so its rounding floor is flat in D."""
    g = kerr_diagonal(f, dim)
    a = annihilation_matrix(dim)[: dim - 1]
    conjugated = g.conj()[: dim - 1, None] * a * g[None, :]
    target = rotation_diagonal(f, dim).conj()[: dim - 1, None] * a
    return float(np.linalg.norm(conjugated - target) / np.linalg.norm(a))


def evolution_fidelity(alpha: complex, f: CoprimeFraction, times: Iterable[float],
                       dim: int) -> list[float]:
    """|<kitten(e^{-it} alpha) | e^{-itL} | kitten(alpha)>| for each t of the
    grid; identically 1 up to truncation error."""
    return [float(abs(np.vdot(rotated, evolved)))
            for _, evolved, rotated in _evolved_pairs(alpha, f, times, dim)]
