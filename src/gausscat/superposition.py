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
as golden data; ``build_descriptor`` must reproduce it exactly, as equal
rational phases and equal integer rotation numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .gauss_sums import (CoprimeFraction, ExactCoefficient, RationalAngle, _coefficient_values,
                         _targets, closed_coefficients, unit_phase)

__all__ = [
    "KittenDescriptor",
    "build_descriptor",
    "coefficient_to_dict",
    "coefficients_by_inverse_dft",
    "descriptor_to_json",
    "reference_state_table",
    "verify_forward_dft",
]


@dataclass(frozen=True)
class KittenDescriptor:
    """The full finite superposition for a fraction M/N: the sum over k of
    components[k] * |exp(i*pi*rotations[k]/(2N))*alpha>, k the derivation index.

    Every coefficient has magnitude 1/sqrt(N) so the weights sum to one by
    construction; the rotations are N distinct integers in [0, 4N), so
    distinct mod 2*pi.  ``parity`` ("even" or "odd") is that of N.
    """

    fraction: CoprimeFraction
    components: tuple[ExactCoefficient, ...]
    rotations: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.fraction.N
        if len(self.components) != n or len(self.rotations) != n:
            raise ValueError(f"expected {n} components and rotations, got "
                             f"{len(self.components)} and {len(self.rotations)}")
        if any(c.inv_sqrt_n != n for c in self.components):
            raise ValueError("every coefficient must have magnitude 1/sqrt(N)")
        if len(set(self.rotations)) != n or not all(0 <= r < 4 * n for r in self.rotations):
            raise ValueError("rotations must be distinct numerators over 2N in [0, 4N)")

    @property
    def parity(self) -> str:
        return "even" if self.fraction.n_even else "odd"


def build_descriptor(f: CoprimeFraction) -> KittenDescriptor:
    """Descriptor with the closed-form coefficients, the objects that
    ``closed_coefficients`` returns, and the rotations 2*pi*k/N, shifted by
    pi*M/N for even N: numerators (4k + 2M*[N even]) mod 4N over 2N."""
    n, shift = f.N, 2 * f.M if f.n_even else 0
    return KittenDescriptor(f, tuple(closed_coefficients(f)),
                            tuple((4 * k + shift) % (4 * n) for k in range(n)))


def _branches(desc: KittenDescriptor, alpha: complex) -> tuple[np.ndarray, np.ndarray]:
    """The arrays c_k and exp(i*pi*r_k/(2N))*alpha over k, each from one vector call."""
    return (_coefficient_values(desc.components),
            unit_phase(desc.rotations, 2 * desc.fraction.N) * alpha)


def coefficients_by_inverse_dft(*fractions: CoprimeFraction) -> np.ndarray:
    """Coefficients c_k = (1/N) sum_j t_j exp(-2*pi*i*k*j/N), the inverse DFT of
    the target phases t_j = exp(-i*pi*M*j^2/N) (N even) or exp(-i*pi*M*j*(j-1)/N)
    (N odd): one row per fraction, for fractions of one denominator N.

    numpy's FFT of each row, with its float twiddles kept as separate factors
    from the targets; this is an independent cross-check of both the direct
    summation (exact integer exponents) and the closed forms.
    """
    n, _, targets = _targets(fractions)
    return np.fft.fft(targets, axis=1) / n


def verify_forward_dft(*fractions: CoprimeFraction, coefficients: np.ndarray) -> np.ndarray:
    """Per fraction of one denominator N, max over j of |sum_k c_k exp(2*pi*i*k*j/N)
    - t_j| for its row c of ``coefficients`` and t as in ``coefficients_by_inverse_dft``.

    Zero (up to rounding) exactly when the coefficient row solves the
    defining linear system; a perturbed row produces an O(1) error.  The
    forward sums are N times numpy's inverse FFT of each row.
    """
    n, _, targets = _targets(fractions)
    c = np.asarray(coefficients, dtype=complex)
    if c.shape != (len(fractions), n):
        raise ValueError(f"expected {len(fractions)} rows of {n} values, got {c.shape}")
    return np.abs(n * np.fft.ifft(c, axis=1) - targets).max(axis=1)


# pentagonal rotations: 1, e^{2 pi i/5}, ..., e^{8 pi i/5}
_PENTAGON_ROTS = [(0, 1), (2, 5), (4, 5), (6, 5), (8, 5)]


def _reference_state(m: int, n: int,
                     phases: Iterable[tuple[int, int]],
                     rotations: Iterable[tuple[int, int]]) -> tuple[CoprimeFraction, KittenDescriptor]:
    """Coefficients exp(i*pi*pn/pd)/sqrt(N); rotations pi*rn/rd, as numerators over 2N."""
    f = CoprimeFraction(m, n)
    coefficients = tuple(ExactCoefficient(n, RationalAngle(pn, pd)) for pn, pd in phases)
    return f, KittenDescriptor(f, coefficients, tuple(rn * 2 * n // rd for rn, rd in rotations))


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

    The phase carries any -1, so the format's ``"sign"`` is always 1.  The writers
    print this block from ``_COEFF_JSON``; this dict is the reference they are tested on.
    """
    return {
        "sign": 1,
        "phase_num": c.phase.num,
        "phase_den": c.phase.den,
        "inv_sqrt": c.inv_sqrt_n,
    }


# As json.dumps(indent=2) lays them out: the coefficient block of both JSON writers
# (``coefficient_to_dict`` as a component's or row's value), and one component.
_COEFF_JSON = ('{\n        "sign": 1,\n        "phase_num": %d,\n        "phase_den": %d,'
               '\n        "inv_sqrt": %d\n      }')
_COMPONENT_JSON = ('    {\n      "k": %d,\n      "coeff": ' + _COEFF_JSON + ',\n      "rotation": {'
                   '\n        "num": %d,\n        "den": %d\n      }\n    }')


def _reduced_rotations(desc: KittenDescriptor) -> Iterator[tuple[int, int]]:
    """Each rotation r over 2N as the reduced fraction (r/g, 2N/g) by one ``np.gcd`` column."""
    two_n = 2 * desc.fraction.N
    gcd = np.gcd(np.array(desc.rotations, dtype=np.int64), two_n).tolist()
    return ((r // g, two_n // g) for r, g in zip(desc.rotations, gcd))


def descriptor_to_json(desc: KittenDescriptor) -> str:
    """The stable JSON wire format, the text of ``json.dumps(obj, indent=2)``: one template
    per component, joined once.  Phases mean exp(i*pi*num/den); rotations are the multiplier
    of alpha in the same convention, reduced over 2N (``_reduced_rotations``)."""
    n = desc.fraction.N
    rows = [_COMPONENT_JSON % (k, c.phase.num, c.phase.den, c.inv_sqrt_n, *rotation)
            for k, (c, rotation) in enumerate(zip(desc.components, _reduced_rotations(desc)))]
    rows[0] = (f'{{\n  "M": {desc.fraction.M},\n  "N": {n},\n  "parity": "{desc.parity}",'
               f'\n  "components": [\n' + rows[0])
    rows[-1] += "\n  ]\n}"
    return ",\n".join(rows)
