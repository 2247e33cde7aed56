"""Kitten-state descriptors: which rotated coherent states are superposed,
with which exact coefficients.

For a fraction M/N the state is a sum of N coherent states whose amplitudes
are alpha rotated by

    2*pi*k/N              (N odd)
    2*pi*k/N + pi*M/N     (N even)

for k = 0 .. N-1, with coefficients given by the closed-form Gauss sums.
The same coefficients are recovered here by an independent O(N^2) inverse
discrete Fourier transform of the quadratic phase sequence, and the forward
transform identity can be checked for any candidate coefficient list.

A small table of hand-derived reference states (N = 2, 3, 4, 5) is kept
as golden data; ``build_descriptor`` must reproduce it exactly at the
rational-phase level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .gauss_sums import (
    CoprimeFraction,
    ExactCoefficient,
    RationalAngle,
    _k_blocks,
    _quadratic_numerators,
    closed_coefficients,
    unit_phase,
)

__all__ = [
    "KittenComponent",
    "KittenDescriptor",
    "build_descriptor",
    "coefficient_to_dict",
    "coefficients_by_inverse_dft",
    "descriptor_from_json",
    "descriptor_to_json",
    "reference_state_table",
    "verify_forward_dft",
]


@dataclass(frozen=True, slots=True)
class KittenComponent:
    """One branch of the superposition: coefficient * |exp(i*rotation)*alpha>."""

    k: int
    coefficient: ExactCoefficient
    rotation: RationalAngle


@dataclass(frozen=True)
class KittenDescriptor:
    """The full finite superposition for a fraction M/N.

    Exactly N components ordered by the derivation index k (not by angle);
    every coefficient has magnitude 1/sqrt(N) so the weights sum to one by
    construction, and the rotations are pairwise distinct mod 2*pi.
    """

    fraction: CoprimeFraction
    parity: str  # "even" | "odd" (parity of N)
    components: tuple[KittenComponent, ...]

    def __post_init__(self) -> None:
        n = self.fraction.N
        if self.parity != ("even" if n % 2 == 0 else "odd"):
            raise ValueError(f"parity {self.parity!r} does not match N = {n}")
        if len(self.components) != n:
            raise ValueError(f"expected {n} components, got {len(self.components)}")
        if [c.k for c in self.components] != list(range(n)):
            raise ValueError("components must be ordered k = 0 .. N-1")
        if any(c.coefficient.inv_sqrt_n != n for c in self.components):
            raise ValueError("every coefficient must have magnitude 1/sqrt(N)")
        rotations = {(c.rotation.num, c.rotation.den) for c in self.components}
        if len(rotations) != n:
            raise ValueError("rotations must be distinct mod 2*pi")

    def coefficient_values(self) -> np.ndarray:
        return np.array([c.coefficient.value for c in self.components])


def component_rotation(f: CoprimeFraction, k: int) -> RationalAngle:
    """Rotation of alpha for branch k: 2*pi*k/N, shifted by pi*M/N for even N."""
    if f.n_even:
        return RationalAngle(2 * k + f.M, f.N)
    return RationalAngle(2 * k, f.N)


def build_descriptor(f: CoprimeFraction) -> KittenDescriptor:
    """Descriptor with closed-form coefficients and parity-correct rotations."""
    coeffs = closed_coefficients(f)
    components = tuple(
        KittenComponent(k, coeffs[k], component_rotation(f, k))
        for k in range(f.N)
    )
    return KittenDescriptor(f, "even" if f.n_even else "odd", components)


def _dft_tables(fractions: tuple[CoprimeFraction, ...]) -> tuple[int, np.ndarray, np.ndarray]:
    """N, the target phases exp(-i*pi*q/N) of the quadratic numerators q, one row per
    fraction, and the twiddle row exp(-2*pi*i*l/N), l = 0 .. N-1, from one table of roots."""
    n, quad = _quadratic_numerators(fractions)
    roots = unit_phase(np.arange(2 * n), n)
    return n, roots[-quad % (2 * n)], roots[::2].conj()


def _dft_rows(twiddle: np.ndarray, block: slice) -> np.ndarray:
    """Rows k in ``block`` of the inverse-DFT matrix exp(-2*pi*i*k*l/N), gathered
    from the twiddle row at the exact indices k*l mod N."""
    n = len(twiddle)
    k = np.arange(block.start, block.stop, dtype=np.int64)
    kl = np.outer(k, np.arange(n, dtype=np.int64))
    kl %= n  # in place: one block-sized index table
    return twiddle[kl]


def coefficients_by_inverse_dft(*fractions: CoprimeFraction) -> np.ndarray:
    """Coefficients c_k = (1/N) sum_j t_j exp(-2*pi*i*k*j/N), the inverse DFT of
    the target phases t_j = exp(-i*pi*M*j^2/N) (N even) or exp(-i*pi*M*j*(j-1)/N)
    (N odd): one row per fraction, for fractions of one denominator N.

    Deliberately the naive O(N^2) transform with target and twiddle kept as
    separate complex factors; this is an independent cross-check of both the
    direct summation and the closed forms.  Each block of output indices k
    (``_k_blocks``) is one matrix product over all rows.
    """
    n, targets, twiddle = _dft_tables(fractions)
    return np.hstack([targets @ _dft_rows(twiddle, block).T for block in _k_blocks(n)]) / n


def verify_forward_dft(*fractions: CoprimeFraction, coefficients: np.ndarray) -> np.ndarray:
    """Per fraction of one denominator N, max over j of |sum_k c_k exp(2*pi*i*k*j/N)
    - t_j| for its row c of ``coefficients`` and t as in ``coefficients_by_inverse_dft``.

    Zero (up to rounding) exactly when the coefficient row solves the
    defining linear system; a perturbed row produces an O(1) error.  The
    forward matrix is built one block of indices j at a time.
    """
    n, targets, twiddle = _dft_tables(fractions)
    c = np.asarray(coefficients, dtype=complex)
    if c.shape != (len(fractions), n):
        raise ValueError(f"expected {len(fractions)} rows of {n} values, got {c.shape}")

    def block_residual(block: slice) -> np.ndarray:
        forward = _dft_rows(twiddle, block)
        return np.abs(c @ np.conj(forward, out=forward).T  # no block-sized copy
                      - targets[:, block]).max(axis=1)

    return np.max([block_residual(block) for block in _k_blocks(n)], axis=0)


# pentagonal rotations: 1, e^{2 pi i/5}, ..., e^{8 pi i/5}
_PENTAGON_ROTS = [(0, 1), (2, 5), (4, 5), (6, 5), (8, 5)]


def _reference_state(m: int, n: int,
                     phases: Iterable[tuple[int, int]],
                     rotations: Iterable[tuple[int, int]],
                     signs: Iterable[int] | None = None) -> tuple[CoprimeFraction, KittenDescriptor]:
    f = CoprimeFraction(m, n)
    signs = list(signs) if signs is not None else [1] * n
    components = tuple(
        KittenComponent(k, ExactCoefficient(signs[k], n, RationalAngle(pn, pd)),
                        RationalAngle(rn, rd))
        for k, ((pn, pd), (rn, rd)) in enumerate(zip(phases, rotations))
    )
    return f, KittenDescriptor(f, "even" if n % 2 == 0 else "odd", components)


def reference_state_table() -> list[tuple[CoprimeFraction, KittenDescriptor]]:
    """Hand-checked reference states, frozen as golden data.

    Each entry was worked out independently of ``build_descriptor`` (by
    completing the square in the defining sums by hand) and is stored
    literally; a bare -1 coefficient is kept as sign = -1 and folded into
    the phase by normalization.  Covered: the two-component parity cat
    (M=1, N=2), the four-component Fourier compass state (M=3, N=4) and
    its inverse-Fourier mirror (M=1, N=4), both triangular states (N=3),
    and the full pentagonal family (N=5).
    """
    return [
        # M=1, N=2: (e^{-i pi/4} |i a> + e^{+i pi/4} |-i a>)/sqrt 2
        _reference_state(1, 2, [(-1, 4), (1, 4)], [(1, 2), (3, 2)]),
        # M=1, N=3
        _reference_state(1, 3, [(-1, 6), (-1, 6), (1, 2)],
                         [(0, 1), (2, 3), (4, 3)]),
        # M=2, N=3
        _reference_state(2, 3, [(1, 6), (-1, 2), (1, 6)],
                         [(0, 1), (2, 3), (4, 3)]),
        # M=1, N=4: inverse-Fourier state (i -> -i mirror of M=3)
        _reference_state(1, 4, [(-1, 4), (0, 1), (3, 4), (0, 1)],
                         [(1, 4), (3, 4), (5, 4), (7, 4)]),
        # M=3, N=4: compass state, unit coefficients at rotations 5pi/4 and pi/4
        _reference_state(3, 4, [(5, 4), (0, 1), (1, 4), (0, 1)],
                         [(3, 4), (5, 4), (7, 4), (1, 4)]),
        # N=5 pentagonal family
        _reference_state(1, 5, [(-1, 5), (-1, 5), (1, 5), (0, 1), (1, 5)],
                         _PENTAGON_ROTS, signs=[1, 1, 1, -1, 1]),
        _reference_state(2, 5, [(-2, 5), (0, 1), (-2, 5), (2, 5), (2, 5)],
                         _PENTAGON_ROTS),
        _reference_state(3, 5, [(2, 5), (-2, 5), (-2, 5), (2, 5), (0, 1)],
                         _PENTAGON_ROTS),
        _reference_state(4, 5, [(1, 5), (-1, 5), (0, 1), (-1, 5), (1, 5)],
                         _PENTAGON_ROTS, signs=[1, 1, -1, 1, 1]),
    ]


def coefficient_to_dict(c: ExactCoefficient) -> dict:
    """The wire form of one exact coefficient: sign * exp(i*pi*num/den) / sqrt(inv_sqrt)."""
    return {
        "sign": c.sign,
        "phase_num": c.phase.num,
        "phase_den": c.phase.den,
        "inv_sqrt": c.inv_sqrt_n,
    }


def descriptor_to_json(desc: KittenDescriptor) -> str:
    """Serialize a descriptor to the stable JSON wire format.

    Phases mean exp(i*pi*num/den); rotations are the multiplier of alpha in
    the same convention.
    """
    obj = {
        "M": desc.fraction.M,
        "N": desc.fraction.N,
        "parity": desc.parity,
        "components": [
            {
                "k": c.k,
                "coeff": coefficient_to_dict(c.coefficient),
                "rotation": {"num": c.rotation.num, "den": c.rotation.den},
            }
            for c in desc.components
        ],
    }
    return json.dumps(obj, indent=2)


def descriptor_from_json(text: str) -> KittenDescriptor:
    obj = json.loads(text)
    f = CoprimeFraction(obj["M"], obj["N"])
    components = tuple(
        KittenComponent(
            entry["k"],
            ExactCoefficient(entry["coeff"]["sign"], entry["coeff"]["inv_sqrt"],
                             RationalAngle(entry["coeff"]["phase_num"],
                                           entry["coeff"]["phase_den"])),
            RationalAngle(entry["rotation"]["num"], entry["rotation"]["den"]),
        )
        for entry in obj["components"]
    )
    return KittenDescriptor(f, obj["parity"], components)
