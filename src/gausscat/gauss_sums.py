"""Quadratic Gauss sums and their closed-form evaluation.

The coefficients of the coherent-state superpositions built in this package
are normalized quadratic Gauss sums

    c_k = (1/N) sum_{l=0}^{N-1} exp(-i*pi*(M*l*(l-1) + 2*k*l)/N)   (N odd)
    c_k = (1/N) sum_{l=0}^{N-1} exp(-i*pi*(M*l^2     + 2*k*l)/N)   (N even)

for coprime 0 < M < N.  Completing the square with the modular inverse
d = M^{-1} mod N collapses each sum to a single root of unity of magnitude
1/sqrt(N), with the residual sign given by a Legendre-Jacobi symbol.  This
module provides the integer number theory (modular inverse, Jacobi symbol),
an exact carrier for rational multiples of pi, the one primitive that turns
integer phase numerators into roots of unity, and two of the three
coefficient routes: plain summation and the closed forms (the third, the
inverse DFT, is in :mod:`gausscat.superposition`).

Every phase that is known exactly is kept as a reduced rational multiple
of pi (:class:`RationalAngle`) and converted to a complex number only at
the boundary, so root-of-unity identities can be tested as integer
equalities instead of float comparisons.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "CoprimeFraction",
    "ExactCoefficient",
    "RationalAngle",
    "closed_coefficients",
    "direct_coefficients",
    "jacobi_symbol",
    "mod_inverse",
    "unit_phase",
]


def mod_inverse(m: int, n: int) -> int:
    """The unique d with 1 <= d <= n and m*d = 1 (mod n).

    Requires gcd(m, n) = 1.  For n = 1 the inverse is taken to be 1.
    """
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    if n == 1:
        return 1
    g = math.gcd(m % n, n)
    if g != 1:
        raise ValueError(f"{m} has no inverse mod {n} (gcd = {g})")
    return pow(m, -1, n)


def jacobi_symbol(a: int, b: int) -> int:
    """Legendre-Jacobi symbol (a/b) for odd positive b.

    Multiplicative in both arguments; equals the product of Legendre
    symbols over the prime factorization of b, but is computed here by
    quadratic-reciprocity reduction so no factorization is needed.
    Returns 0 exactly when gcd(a, b) > 1, and (a/1) = 1 by convention.
    """
    if b <= 0 or b % 2 == 0:
        raise ValueError("Jacobi symbol needs an odd positive denominator")
    a %= b
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


@dataclass(frozen=True, slots=True)
class RationalAngle:
    """An exact phase exp(i*pi*num/den).

    Canonical form: den >= 1, gcd(num, den) = 1, and 0 <= num < 2*den
    (phases are identified mod 2*pi); the zero angle is stored as (0, 1).
    Construction normalizes any integer pair, so ``RationalAngle(-1, 4)``
    becomes ``RationalAngle(7, 4)``.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        num = self.num % (2 * self.den)
        g = math.gcd(num, self.den) if num else self.den
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", self.den // g)

    def __add__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle(self.num * other.den + other.num * self.den,
                             self.den * other.den)

    def to_complex(self) -> complex:
        """exp(i*pi*num/den), exact at quarter-turn multiples.

        After reduction den == 1 means the angle is 0 or pi and den == 2
        means +-pi/2; those four values are returned as exact units so
        that identities landing on them incur no rounding at all.
        """
        if self.den == 1:
            return 1.0 + 0.0j if self.num == 0 else -1.0 + 0.0j
        if self.den == 2:
            return 1.0j if self.num == 1 else -1.0j
        return cmath.exp(1j * math.pi * self.num / self.den)

    def __str__(self) -> str:
        if self.num == 0:
            return "0"
        if self.den == 1:
            return "π"  # num can only be 1 here
        if self.num == 1:
            return f"π/{self.den}"
        return f"{self.num}π/{self.den}"


@dataclass(frozen=True, slots=True)
class CoprimeFraction:
    """A reduced fraction M/N with 0 < M < N, encoding the angle 2*pi*M/N."""

    M: int
    N: int

    def __post_init__(self) -> None:
        if not isinstance(self.M, int) or not isinstance(self.N, int):
            raise TypeError("M and N must be integers")
        if not 0 < self.M < self.N:
            raise ValueError(f"need 0 < M < N, got M={self.M}, N={self.N}")
        g = math.gcd(self.M, self.N)
        if g != 1:
            raise ValueError(f"M and N must be coprime (gcd = {g})")

    @property
    def n_even(self) -> bool:
        return self.N % 2 == 0

    @property
    def angle_radians(self) -> float:
        return 2.0 * math.pi * self.M / self.N


@dataclass(frozen=True, slots=True)
class ExactCoefficient:
    """An exact superposition coefficient exp(i*pi*phase) / sqrt(n).

    The phase is a canonical ``RationalAngle``, so a -1 is the phase pi and
    equality of coefficients is plain field equality.  ``inv_sqrt_n``
    stores the integer n whose inverse square root is the magnitude, and
    ``value`` the complex number, evaluated once here (not compared).
    """

    inv_sqrt_n: int
    phase: RationalAngle
    value: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.inv_sqrt_n < 1:
            raise ValueError("inv_sqrt_n must be a positive integer")
        object.__setattr__(self, "value",
                           self.phase.to_complex() / math.sqrt(self.inv_sqrt_n))

    def __str__(self) -> str:
        root = f"√{self.inv_sqrt_n}"
        if self.phase.num == 0:
            return f"1/{root}"
        if self.phase.den == 1:
            return f"-1/{root}"
        return f"exp(i·{self.phase})/{root}"


def unit_phase(nums: np.typing.ArrayLike, den: int) -> np.ndarray:
    """exp(i*pi*nums/den) for an array of integer numerators.

    The numerators are reduced mod 2*den as exact integers before the single
    complex evaluation, so the phase error does not grow with their size.
    A table of negative angles is the ``.conj()`` of the positive one, which
    is bit-identical to evaluating exp(-i*pi*nums/den) directly.
    """
    nums = np.asarray(nums, dtype=np.int64) % (2 * den)
    return np.exp(1j * np.pi * nums / den)


def _closed_numerators(f: CoprimeFraction) -> np.ndarray:
    """Phase numerators over 4N, reduced mod 8N, of all N closed-form
    coefficients: c_k = exp(i*pi*num_k/(4N)) / sqrt(N).

    Completing the square with d = M^{-1} mod N leaves, with j the shifted
    index and the Jacobi sign (N/M) or (M/N) folded in as a half turn:

        N even        num = M*(4 d^2 k^2 - N)
        N odd, M even num = 4 M d^2 j^2 + N(N-1),  j = k - M/2
        N odd, M odd  num = 4 M d^2 j^2 + N(N-1),  j = k + (N-M)/2,
                      times the extra sign (-1)^(d j)

    d*j is reduced mod 2N before squaring (4 M (d j)^2 mod 8N depends only
    on d j mod 2N), and its square mod 2N again, so every intermediate stays
    below 10 N^2 and int64 is exact for N up to about 10^9.
    """
    m, n = f.M, f.N
    d = mod_inverse(m, n)
    k = np.arange(n, dtype=np.int64)
    if f.n_even:
        sign0, j, base = jacobi_symbol(n, m), k, -m * n
    else:
        sign0, base = jacobi_symbol(m, n), n * (n - 1)
        j = k - m // 2 if m % 2 == 0 else k + (n - m) // 2
    dj = (d * j) % (2 * n)
    num = 4 * m * (dj * dj % (2 * n)) + base
    if sign0 == -1:
        num += 4 * n
    if not f.n_even and m % 2 == 1:
        num += 4 * n * (dj % 2)
    return num % (8 * n)


def _one_denominator(fractions: tuple[CoprimeFraction, ...]) -> int:
    """The one denominator N of the fractions passed to a coefficient route."""
    if len(dens := {f.N for f in fractions}) != 1:
        raise ValueError(f"need fractions of one denominator, got {sorted(dens)}")
    return dens.pop()


def closed_coefficients(*fractions: CoprimeFraction) -> list[ExactCoefficient]:
    """All N closed-form coefficients c_0 .. c_{N-1} of each fraction as exact
    values, for fractions of one denominator N: one flat list, in which
    fraction r holds items r*N .. r*N + N - 1.

    The phase arithmetic is exact: the quarter-integer terms N/4 and
    (N-1)/4 are carried over the common denominator 4N and reduced as
    integers.  Within one call equal coefficients are one frozen object
    (there are only 8N distinct values); nothing is kept between calls.
    """
    n = _one_denominator(fractions)
    nums, at = np.unique(np.concatenate([_closed_numerators(f) for f in fractions]),
                         return_inverse=True)
    shared = [ExactCoefficient(n, RationalAngle(num, 4 * n)) for num in nums.tolist()]
    return np.array(shared, dtype=object)[at].tolist()


def _quadratic_numerators(fractions: tuple[CoprimeFraction, ...]) -> tuple[int, np.ndarray]:
    """The one denominator N of the fractions, and per fraction the numerators
    over N of its quadratic phases, M*j^2 (N even) or M*j*(j-1) (N odd) mod 2N."""
    n = _one_denominator(fractions)
    m = np.array([f.M for f in fractions], dtype=np.int64)[:, None]
    j = np.arange(n, dtype=np.int64)
    return n, m * j * (j if n % 2 == 0 else j - 1) % (2 * n)


# Table entries per block of output indices k (``_k_blocks``) in the O(N^2)
# routes, so that a call holds O(2^20 + phi(N)*N) values whatever N is; N <= 1024
# takes one block.
_BLOCK_ENTRIES = 1 << 20


def _k_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices covering k = 0 .. N-1, each of at most
    max(1, _BLOCK_ENTRIES // N) indices; the last may be shorter."""
    rows = max(1, _BLOCK_ENTRIES // n)
    return (slice(k, min(k + rows, n)) for k in range(0, n, rows))


def direct_coefficients(*fractions: CoprimeFraction) -> np.ndarray:
    """All N coefficients of each fraction by plain summation of the defining
    Gauss sums: one row per fraction, for fractions of one denominator N.

    Every exponent is an exact integer multiple of pi/N: its quadratic and
    cross terms are each reduced mod 2N, and their sum indexes one table of
    the 2N-th roots of unity, stored twice over, so the only floating-point
    error is the final N-term accumulation.  The cross terms are built for
    one block of output indices k at a time (``_k_blocks``), and within a
    block the fractions are summed one at a time.
    """
    n, quad = _quadratic_numerators(fractions)
    ell = np.arange(n, dtype=np.int64)
    roots = unit_phase(np.arange(4 * n), n).conj()
    rows = np.empty(quad.shape, dtype=complex)
    for block in _k_blocks(n):
        cross = (2 * np.outer(ell[block], ell)) % (2 * n)
        for row, q in zip(rows, quad):
            row[block] = roots[q + cross].sum(axis=1) / n
    return rows
