"""Truncated Fock-space realization: diagonal unitaries, coherent vectors over an
axis of amplitudes, kitten vectors, and residuals for the defining operator identities,
compared on the band a[n-1, n] = sqrt(n) of the lowering operator; no dim x dim matrix.

A vector of dimension D holds the coefficients of |0> .. |D-1>.  Truncation corrupts
exactly one trailing row per application of the lowering operator, so every residual
below excludes the provably corrupted rows and is an exact statement, zero up to rounding;
the phase identities leave out the factors both sides share and compare phases only.

Quadratic phases like exp(-i*phi*n*(n-1)/2) with phi = 2*pi*M/N are reduced
mod 2*pi as exact integer arithmetic before any trigonometric call, which
keeps the phase error flat in n.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
import warnings
from typing import Iterable

import numpy as np

from .gauss_sums import CoprimeFraction, unit_phase
from .superposition import KittenDescriptor, _branches

__all__ = [
    "TruncationWarning",
    "aN_identity_residual",
    "coherent_underflows",
    "coherent_vector",
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
    "within_time_bound",
    "within_truncation_guard",
]


class TruncationWarning(UserWarning):
    """The coherent-state tail is not negligible at the requested dimension."""


def _abs_squared(alpha) -> np.ndarray:
    """|alpha|^2 of each amplitude as a product (a float ** raises OverflowError);
    ValueError naming alpha where one is not finite."""
    with np.errstate(over="ignore"):
        a2 = np.square(np.abs(alpha))
    if not np.isfinite(a2).all():
        raise ValueError(f"alpha: |alpha|^2 = {np.max(a2)} is not finite")
    return a2


def required_dimension(alpha: complex) -> int:
    """Smallest dim that passes ``within_truncation_guard``.

    That is 1 for alpha = 0, and otherwise the first integer at or above the
    root (2 + sqrt(4 + |alpha|^2))^2 of |alpha|^2 = dim - 4*sqrt(dim).  The
    guard is evaluated on each side of the rounded root, so rounding cannot
    return a dim that fails it (as 16 would for |alpha|^2 = 1e-300) or one
    past the smallest that passes.
    """
    a2 = float(_abs_squared(alpha))
    if a2 == 0:
        return 1
    dim = math.ceil((2.0 + math.sqrt(4.0 + a2)) ** 2)
    if within_truncation_guard(alpha, dim - 1):
        return dim - 1
    return dim if within_truncation_guard(alpha, dim) else dim + 1


def _dimension(name: str, size: int, least: int = 0) -> int:
    """One size rule: ``operator.index`` of size, TypeError naming it or ValueError below least."""
    try:
        size = operator.index(size)
    except TypeError:
        raise TypeError(f"{name}: must be an integer, got {size!r}") from None
    if size < least:
        raise ValueError(f"{name}: must be at least {least}, got {size}")
    return size


def within_truncation_guard(alpha: complex, dim: int) -> bool:
    """|alpha|^2 <= dim - 4*sqrt(dim), clamped at zero so that alpha = 0,
    whose vacuum vector is exact at any dim >= 1, always passes; ValueError naming dim below 1."""
    return abs(alpha) * abs(alpha) <= max(0.0, _dimension("dim", dim, 1) - 4.0 * math.sqrt(dim))


def within_time_bound(t: float, dim: int) -> bool:
    """t is finite and |t|*(dim - 1/2) <= 2**40 (phases then cost ~1e-10); ValueError naming dim."""
    return abs(t) * (_dimension("dim", dim, 1) - 0.5) <= 2.0 ** 40


def coherent_underflows(alpha: complex) -> bool:
    """exp(-|alpha|^2/2) is below the smallest normal float (|alpha|^2 > ~1416.8)."""
    return math.exp(-0.5 * abs(alpha) * abs(alpha)) < sys.float_info.min


def rotation_diagonal(f: CoprimeFraction, dim: int) -> np.ndarray:
    """Diagonal of U(phi) = exp(-i*phi*(L - 1/2)): entries exp(-i*phi*n), n < ``_dimension``."""
    return unit_phase(-2 * f.M * np.arange(_dimension("dim", dim), dtype=np.int64), f.N)


def kerr_diagonal(f: CoprimeFraction, dim: int) -> np.ndarray:
    """Diagonal of the Kerr unitary G(phi): entries exp(i*phi*n*(n-1)/2).

    On |n> the generator (L - 1/2)(L - 3/2) acts as n*(n-1), n < ``_dimension``.
    """
    n = np.arange(_dimension("dim", dim), dtype=np.int64)
    return unit_phase(f.M * n * (n - 1), f.N)


def _amplitude_guard(alpha, dim: int) -> str | None:
    """The one rule for which (alpha, dim) have a coherent vector, on the largest |alpha|:
    ValueError starting ``dim: `` where dim < 1, else ``alpha: `` where an amplitude is not
    finite or its exp(-|alpha|^2/2) underflows (``coherent_underflows``); then the message
    of |alpha|^2 > dim - 4*sqrt(dim), the truncation bound, or None within it."""
    _dimension("dim", dim, 1)
    alpha = np.asarray(alpha, dtype=complex)
    if not np.isfinite(alpha).all():
        raise ValueError(f"alpha: amplitude {alpha[~np.isfinite(alpha)][0]} is not finite")
    peak = float(np.abs(alpha).max(initial=0.0))
    if coherent_underflows(peak):
        raise ValueError(f"alpha: |alpha|^2 = {peak * peak:.6g}: exp(-|alpha|^2/2) underflows")
    if not within_truncation_guard(peak, dim):
        return (f"|alpha|^2 = {peak * peak:.3g} exceeds dim - 4*sqrt(dim) = "
                f"{dim - 4.0 * math.sqrt(dim):.3g}; need dim >= {required_dimension(peak)}")


def coherent_vector(alpha, dim: int) -> np.ndarray:
    """Coherent-state coefficients exp(-|alpha|^2/2) alpha^n / sqrt(n!), shape (..., dim)
    for an array of amplitudes: the running product of [exp(-|alpha|^2/2), alpha/sqrt(1),
    ..., alpha/sqrt(dim-1)], so a scalar call equals its row of an array call bit for bit.
    ``_amplitude_guard``'s ValueError propagates, and its truncation message is warned
    as a TruncationWarning."""
    if (message := _amplitude_guard(alpha, dim)) is not None:
        warnings.warn(message, TruncationWarning, stacklevel=2)
    alpha = np.asarray(alpha, dtype=complex)
    steps = np.empty(alpha.shape + (dim,), dtype=complex)
    steps[..., 0] = np.exp(-0.5 * _abs_squared(alpha))
    steps[..., 1:] = alpha[..., None] / np.sqrt(np.arange(1, dim))
    return np.cumprod(steps, axis=-1)


def _series_phases(f: CoprimeFraction, dim: int) -> np.ndarray:
    """The quadratic phases exp(-i*phi*n*(n-1)/2), phi = 2*pi*M/N, n < dim."""
    n = np.arange(dim, dtype=np.int64)
    return unit_phase(-f.M * n * (n - 1), f.N)


def kitten_vector_series(alpha: complex, f: CoprimeFraction, dim: int) -> np.ndarray:
    """Kitten state as a number-basis series: coherent entries times ``_series_phases``."""
    return coherent_vector(alpha, dim) * _series_phases(f, dim)


def kitten_vector_superposition(alpha: complex, desc: KittenDescriptor, dim: int) -> np.ndarray:
    """Kitten state as the explicit sum of rotated coherent vectors, one product."""
    c, beta = _branches(desc, alpha)
    return c @ coherent_vector(beta, dim)


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


def aN_identity_residual(f: CoprimeFraction, dim: int) -> int:
    """Number of rows 0 .. D-N-1 where (U^{-1} a)^N = mu * a^N fails: exactly 0.

    Both sides are single-band matrices whose entry i shares the ladder magnitude
    sqrt((i+N)!/i!), so only phases are compared.  Entry i steps through the rows
    r = i .. i+N-1, where (U^{-1} a)[r, r+1] = exp(+i*phi*r) * sqrt(r+1); its phase
    exp(i*pi * 2M*sum(r)/N) has an integer numerator, a multiple of N, so ``unit_phase``
    gives exactly +1 or -1.  ValueError naming dim at or below N, where no row is valid."""
    m, n = f.M, f.N
    rows = np.arange(_dimension("dim", dim, n + 1) - n)[:, None] + np.arange(n)
    return int(np.count_nonzero(unit_phase(2 * m * rows.sum(axis=1), n) != mu_factor(f)))


def _evolved_pairs(alpha: complex, f: CoprimeFraction, times: Iterable[float], dim: int):
    """(t, e^{-itL}|kitten(alpha)>, |kitten(e^{-it} alpha)>) per t, equal up to e^{-it/2};
    ValueError naming t outside ``within_time_bound``."""
    phases = _series_phases(f, dim)
    initial = coherent_vector(alpha, dim) * phases
    levels = np.arange(dim) + 0.5
    for t in map(float, times):
        if not within_time_bound(t, dim):
            raise ValueError(f"t: {t:g} at dim {dim}: need t finite and |t|*(dim - 1/2) <= 2**40")
        yield (t, np.exp(-1j * t * levels) * initial,
               coherent_vector(cmath.exp(-1j * t) * alpha, dim) * phases)


def time_evolution_residual(alpha: complex, f: CoprimeFraction, times: Iterable[float],
                            dim: int) -> list[float]:
    """Residuals of exp(-i*t*L)|alpha> = exp(-i*t/2)|exp(-i*t)*alpha> for the
    kitten series vector, with L acting as n + 1/2, one per t of the grid."""
    return [float(np.linalg.norm(evolved - cmath.exp(-0.5j * t) * rotated))
            for t, evolved, rotated in _evolved_pairs(alpha, f, times, dim)]


def kerr_identity_residual(f: CoprimeFraction, dim: int) -> int:
    """Number of n < dim where |alpha>_phi = G(phi)^{-1} |alpha> fails, for every alpha at once
    (the coherent entries multiply both sides): exactly 0.  ValueError naming dim below 1."""
    _dimension("dim", dim, 1)
    return int(np.count_nonzero(kerr_diagonal(f, dim).conj() != _series_phases(f, dim)))


def kerr_conjugation_residual(f: CoprimeFraction, dim: int) -> float:
    """Largest |conj(g[n-1]) g[n] - conj(u[n-1])|, 0 < n < D, g the Kerr and u the rotation
    diagonal: G^{-1} a G = U^{-1} a on the band a[n-1, n] = sqrt(n), off which both sides are
    zero, without the magnitude both share; flat in D, and a wrong phase reads at full size."""
    g = kerr_diagonal(f, _dimension("dim", dim, 2))
    return float(np.abs(g.conj()[:-1] * g[1:] - rotation_diagonal(f, dim).conj()[:-1]).max())


def evolution_fidelity(alpha: complex, f: CoprimeFraction, times: Iterable[float],
                       dim: int) -> list[float]:
    """|<kitten(e^{-it} alpha) | e^{-itL} | kitten(alpha)>| for each t of the
    grid; identically 1 up to truncation error."""
    return [float(abs(np.vdot(rotated, evolved)))
            for _, evolved, rotated in _evolved_pairs(alpha, f, times, dim)]
