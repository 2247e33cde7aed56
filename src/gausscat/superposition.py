"""Kitten-state descriptors: which rotated coherent states are superposed,
with which exact coefficients.

For a fraction M/N the state is a sum of N coherent states whose amplitudes
are alpha rotated by

    2*pi*k/N              (N odd)
    2*pi*k/N + pi*M/N     (N even)

for k = 0 .. N-1, with coefficients given by the closed-form Gauss sums.
The same coefficients are recovered here by an independent inverse discrete
Fourier transform of the quadratic phase sequence (numpy's FFT), and the
forward transform identity can be checked for any candidate coefficient list.

A small table of hand-derived reference states (N = 2, 3, 4, 5) is kept
as golden data; ``build_descriptor`` must reproduce it exactly at the
rational-phase level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .gauss_sums import (CoprimeFraction, ExactCoefficient, RationalAngle, _coefficient_values,
                         _quadratic_numerators, closed_coefficients, unit_phase)

__all__ = [
    "KittenComponent",
    "KittenDescriptor",
    "build_descriptor",
    "coefficient_to_dict",
    "coefficients_by_inverse_dft",
    "descriptor_to_json",
    "reference_state_table",
    "verify_forward_dft",
]


@dataclass(frozen=True, slots=True)
class KittenComponent:
    """One branch of the superposition: coefficient * |exp(i*rotation)*alpha>;
    its index k is its position in the descriptor's components."""

    coefficient: ExactCoefficient
    rotation: RationalAngle


@dataclass(frozen=True)
class KittenDescriptor:
    """The full finite superposition for a fraction M/N.

    Exactly N components, component k at position k (the derivation index,
    not the angle); every coefficient has magnitude 1/sqrt(N) so the weights
    sum to one by construction, and the rotations are pairwise distinct mod
    2*pi.  ``parity`` ("even" or "odd") is that of N.
    """

    fraction: CoprimeFraction
    components: tuple[KittenComponent, ...]

    def __post_init__(self) -> None:
        n = self.fraction.N
        if len(self.components) != n:
            raise ValueError(f"expected {n} components, got {len(self.components)}")
        if any(c.coefficient.inv_sqrt_n != n for c in self.components):
            raise ValueError("every coefficient must have magnitude 1/sqrt(N)")
        rotations = {(c.rotation.num, c.rotation.den) for c in self.components}
        if len(rotations) != n:
            raise ValueError("rotations must be distinct mod 2*pi")

    @property
    def parity(self) -> str:
        return "even" if self.fraction.n_even else "odd"


def component_rotation(f: CoprimeFraction, k: int) -> RationalAngle:
    """Rotation of alpha for branch k: 2*pi*k/N, shifted by pi*M/N for even N."""
    if f.n_even:
        return RationalAngle(2 * k + f.M, f.N)
    return RationalAngle(2 * k, f.N)


def build_descriptor(f: CoprimeFraction) -> KittenDescriptor:
    """Descriptor with closed-form coefficients and parity-correct rotations."""
    coeffs = closed_coefficients(f)
    return KittenDescriptor(f, tuple(KittenComponent(coeffs[k], component_rotation(f, k))
                                     for k in range(f.N)))


def _branches(desc: KittenDescriptor, alpha: complex) -> zip:
    """(c_k, exp(i*rotation_k)*alpha) per component, each factor from one vector call."""
    rotations = np.array([(c.rotation.num, c.rotation.den) for c in desc.components]).T
    return zip(_coefficient_values([c.coefficient for c in desc.components]),
               unit_phase(*rotations) * alpha)


def _targets(fractions: tuple[CoprimeFraction, ...]) -> tuple[int, np.ndarray]:
    """N and the target phases exp(-i*pi*q/N) of the quadratic numerators q, one row
    per fraction, gathered from one table of the 2N-th roots of unity."""
    n, quad = _quadratic_numerators(fractions)
    return n, unit_phase(np.arange(2 * n), n)[-quad % (2 * n)]


def coefficients_by_inverse_dft(*fractions: CoprimeFraction) -> np.ndarray:
    """Coefficients c_k = (1/N) sum_j t_j exp(-2*pi*i*k*j/N), the inverse DFT of
    the target phases t_j = exp(-i*pi*M*j^2/N) (N even) or exp(-i*pi*M*j*(j-1)/N)
    (N odd): one row per fraction, for fractions of one denominator N.

    numpy's FFT of each row, with its float twiddles kept as separate factors
    from the targets; this is an independent cross-check of both the direct
    summation (exact integer exponents) and the closed forms.
    """
    n, targets = _targets(fractions)
    return np.fft.fft(targets, axis=1) / n


def verify_forward_dft(*fractions: CoprimeFraction, coefficients: np.ndarray) -> np.ndarray:
    """Per fraction of one denominator N, max over j of |sum_k c_k exp(2*pi*i*k*j/N)
    - t_j| for its row c of ``coefficients`` and t as in ``coefficients_by_inverse_dft``.

    Zero (up to rounding) exactly when the coefficient row solves the
    defining linear system; a perturbed row produces an O(1) error.  The
    forward sums are N times numpy's inverse FFT of each row.
    """
    n, targets = _targets(fractions)
    c = np.asarray(coefficients, dtype=complex)
    if c.shape != (len(fractions), n):
        raise ValueError(f"expected {len(fractions)} rows of {n} values, got {c.shape}")
    return np.abs(n * np.fft.ifft(c, axis=1) - targets).max(axis=1)


# pentagonal rotations: 1, e^{2 pi i/5}, ..., e^{8 pi i/5}
_PENTAGON_ROTS = [(0, 1), (2, 5), (4, 5), (6, 5), (8, 5)]


def _reference_state(m: int, n: int,
                     phases: Iterable[tuple[int, int]],
                     rotations: Iterable[tuple[int, int]]) -> tuple[CoprimeFraction, KittenDescriptor]:
    f = CoprimeFraction(m, n)
    components = tuple(
        KittenComponent(ExactCoefficient(n, RationalAngle(pn, pd)), RationalAngle(rn, rd))
        for (pn, pd), (rn, rd) in zip(phases, rotations)
    )
    return f, KittenDescriptor(f, components)


def reference_state_table() -> list[tuple[CoprimeFraction, KittenDescriptor]]:
    """Hand-checked reference states, frozen as golden data.

    Each entry was worked out independently of ``build_descriptor`` (by
    completing the square in the defining sums by hand) and is stored
    literally; a bare -1 coefficient is written as the phase pi, (1, 1).
    Covered: the two-component parity cat (M=1, N=2), the four-component
    Fourier compass state (M=3, N=4) and its inverse-Fourier mirror (M=1,
    N=4), both triangular states (N=3), and the full pentagonal family (N=5).
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
        _reference_state(1, 5, [(-1, 5), (-1, 5), (1, 5), (1, 1), (1, 5)],
                         _PENTAGON_ROTS),
        _reference_state(2, 5, [(-2, 5), (0, 1), (-2, 5), (2, 5), (2, 5)],
                         _PENTAGON_ROTS),
        _reference_state(3, 5, [(2, 5), (-2, 5), (-2, 5), (2, 5), (0, 1)],
                         _PENTAGON_ROTS),
        _reference_state(4, 5, [(1, 5), (-1, 5), (1, 1), (-1, 5), (1, 5)],
                         _PENTAGON_ROTS),
    ]


def coefficient_to_dict(c: ExactCoefficient) -> dict:
    """The wire form of one exact coefficient, exp(i*pi*num/den) / sqrt(inv_sqrt).

    The phase carries any -1, so the format's ``"sign"`` is always 1.
    """
    return {
        "sign": 1,
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
                "k": k,
                "coeff": coefficient_to_dict(c.coefficient),
                "rotation": {"num": c.rotation.num, "den": c.rotation.den},
            }
            for k, c in enumerate(desc.components)
        ],
    }
    return json.dumps(obj, indent=2)

