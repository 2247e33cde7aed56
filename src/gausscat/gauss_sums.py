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
coefficient routes: plain summation, one matrix-vector product per fraction
against a block of exact roots shared by all fractions of one N, and the
closed forms, one integer phase table per N that the verify sweep evaluates
whole (the inverse DFT is in :mod:`gausscat.superposition`).

Every phase that is known exactly is kept as a reduced rational multiple
of pi (:class:`RationalAngle`) and converted to a complex number only at
the boundary, so root-of-unity identities can be tested as integer
equalities instead of float comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    becomes ``RationalAngle(7, 4)``; it holds no float (``unit_phase`` evaluates it).
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

    The phase is a canonical ``RationalAngle``, so a -1 is the phase pi and equality is
    plain field equality.  ``inv_sqrt_n`` stores the integer n whose inverse square root
    is the magnitude; ``_coefficient_values`` evaluates a list of them.
    """

    inv_sqrt_n: int
    phase: RationalAngle

    def __post_init__(self) -> None:
        if self.inv_sqrt_n < 1:
            raise ValueError("inv_sqrt_n must be a positive integer")

    def __str__(self) -> str:
        root = f"√{self.inv_sqrt_n}"
        if self.phase.num == 0:
            return f"1/{root}"
        if self.phase.den == 1:
            return f"-1/{root}"
        return f"exp(i·{self.phase})/{root}"


def unit_phase(nums: np.typing.ArrayLike, den: np.typing.ArrayLike) -> np.ndarray:
    """exp(i*pi*nums/den) for integer nums and 1 <= den <= 2**60 (int64-exact) that broadcast.

    Exact integer range reduction (Muller, *Elementary Functions*, ch. 11): r = nums
    mod 2*den, r > den is the conjugate of 2*den - r, and a = min(r, 2*den - r) is
    the nearest quarter turn q plus theta = (pi/2)*off/den in [-pi/4, pi/4]; the
    value is exp(i*theta) times i**q, an exact product.  So 1, -1 and +-i are exact,
    unit_phase(-r, d) == unit_phase(r, d).conj(), and unit_phase(k*r, k*d) == unit_phase(r, d).
    A den below 1 or above 2**60 raises ``ValueError`` naming den, and a den without an integer
    dtype, or nums without one (unless empty), ``TypeError`` naming it, not a truncated angle.
    """
    if not np.issubdtype((den := np.asarray(den)).dtype, np.integer):
        raise TypeError(f"den: must be an integer, got dtype {den.dtype}")
    if ((den := den.astype(np.int64, copy=False)) < 1).any():
        raise ValueError(f"den: must be at least 1, got {den.min()}")
    if (den > 2**60).any():
        raise ValueError(f"den: must be at most 2**60 for the int64 reduction, got {den.max()}")
    if (nums := np.asarray(nums)).size and not np.issubdtype(nums.dtype, np.integer):
        raise TypeError(f"nums: must be an integer, got dtype {nums.dtype}")
    r = nums.astype(np.int64, copy=False) % (2 * den)
    a = np.minimum(r, 2 * den - r)
    q = (4 * a + den) // (2 * den)
    z = np.exp(1j * (np.pi / 2 * ((2 * a - q * den) / den))) * np.array([1, 1j, -1])[q]
    return np.where(r > den, z.conj(), z)


def _coefficient_values(coeffs: list[ExactCoefficient]) -> np.ndarray:
    """exp(i*pi*phase) / sqrt(inv_sqrt_n) of many exact coefficients by one ``unit_phase`` call."""
    num, den, inv_sqrt = np.array([(c.phase.num, c.phase.den, c.inv_sqrt_n) for c in coeffs]).T
    return unit_phase(num, den) / np.sqrt(inv_sqrt)


def _closed_numerators(*fractions: CoprimeFraction) -> np.ndarray:
    """Phase numerators over 4N, reduced mod 8N, of the closed forms c_k =
    exp(i*pi*num_k/(4N)) / sqrt(N): one row of N per fraction of one N.

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
    n = _one_denominator(fractions)
    m = np.array([f.M for f in fractions], dtype=np.int64)[:, None]
    d = np.array([mod_inverse(f.M, n) for f in fractions], dtype=np.int64)[:, None]
    half_turn = np.array([(jacobi_symbol(f.M, n) if n % 2 else jacobi_symbol(n, f.M)) == -1
                          for f in fractions])[:, None]
    shift = np.where(m % 2 == 0, -(m // 2), (n - m) // 2) if n % 2 else 0
    dj = d * (np.arange(n, dtype=np.int64) + shift) % (2 * n)
    num = 4 * m * (dj * dj % (2 * n)) + ((n * (n - 1) if n % 2 else -m * n) + 4 * n * half_turn)
    if n % 2:
        num += 4 * n * (m % 2) * (dj & 1)
    return num % (8 * n)


def _one_denominator(fractions: tuple[CoprimeFraction, ...]) -> int:
    """The one denominator N of the fractions passed to a coefficient route."""
    if len(dens := {f.N for f in fractions}) != 1:
        raise ValueError(f"need fractions of one denominator, got {sorted(dens)}")
    return dens.pop()


def closed_coefficients(f: CoprimeFraction) -> list[ExactCoefficient]:
    """All N closed-form coefficients c_0 .. c_{N-1} of one fraction as exact values.

    It is a view of the fraction's row of the numerator table, exact: the
    quarter-integer terms N/4 and (N-1)/4 are carried over 4N as integers.
    Equal values are one frozen object per call; nothing is kept between calls.
    """
    (row,), n = _closed_numerators(f), f.N
    present = np.zeros(8 * n, dtype=bool)
    present[row] = True
    values = np.flatnonzero(present)
    shared = [ExactCoefficient(n, RationalAngle(v, 4 * n)) for v in values.tolist()]
    return np.array(shared, dtype=object)[np.searchsorted(values, row)].tolist()


def _targets(fractions: tuple[CoprimeFraction, ...]) -> tuple[int, np.ndarray, np.ndarray]:
    """The one denominator N of the fractions, the table exp(i*pi*r/N), r < 2N, and per
    fraction the targets exp(-i*pi*q_j/N), gathered from it at -q_j mod 2N, of the
    quadratic numerators q_j = M*j^2 (N even) or M*j*(j-1) (N odd)."""
    n = _one_denominator(fractions)
    m = np.array([f.M for f in fractions], dtype=np.int64)[:, None]
    j = np.arange(n, dtype=np.int64)
    roots = unit_phase(np.arange(2 * n), n)
    return n, roots, roots[-m * j * (j if n % 2 == 0 else j - 1) % (2 * n)]


# Entries of the direct route's block of exact roots W[k, l] per block of output
# indices k (``_k_blocks``): a call holds one such block and its int64 exponents,
# so O(2^20 + phi(N)*N) values whatever N is; N <= 1024 takes one block.
_BLOCK_ENTRIES = 1 << 20


def _k_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices covering k = 0 .. N-1, each of at most
    max(1, _BLOCK_ENTRIES // N) indices; the last may be shorter."""
    rows = max(1, _BLOCK_ENTRIES // n)
    return (slice(k, min(k + rows, n)) for k in range(0, n, rows))


def direct_coefficients(*fractions: CoprimeFraction) -> np.ndarray:
    """All N coefficients of each fraction by plain summation of the defining
    Gauss sums: one row per fraction, for fractions of one denominator N.

    Each term splits exactly as zeta^(2kl) * zeta^(q_l), zeta = exp(-i*pi/N):
    the cross and quadratic exponents are each negated mod 2N and index the
    one table of 2N-th roots of unity that ``_targets`` shares with the FFT
    routes, so the block W[k, l] = zeta^(2kl) and the term vector
    t_l = zeta^(q_l) (the targets) are exact roots, and the only
    floating-point error is one product per term and the N-term sum of the
    matrix-vector product W @ t.  W is built for one block of output indices
    k at a time (``_k_blocks``) and shared by all fractions, each of which
    takes one product per block: unlike one matrix-matrix product for all
    fractions, it gives the same bits under 1 or 2 BLAS threads.
    """
    n, roots, terms = _targets(fractions)
    ell = np.arange(n, dtype=np.int64)
    rows = np.empty(terms.shape, dtype=complex)
    for block in _k_blocks(n):
        cross = np.multiply.outer(-2 * ell[block], ell)
        cross %= 2 * n  # in place: one int64 table per block, no temporaries
        w = roots[cross]
        for row, t in zip(rows, terms):
            row[block] = w @ t / n
        del w, cross  # before the next block is built, so a call holds one block
    return rows
