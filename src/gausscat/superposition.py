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
integer phase numerators over 4N and rotation numerators over 2N.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from .gauss_sums import (CoprimeFraction, ExactCoefficient, RationalAngle, _angle_text,
                         _closed_numerators, _coefficient_text, _distinct, _targets, unit_phase)

__all__ = [
    "KittenDescriptor",
    "build_descriptor",
    "coefficient_to_dict",
    "coefficients_by_inverse_dft",
    "descriptor_to_json",
    "reference_state_table",
    "verify_forward_dft",
]


@dataclass(frozen=True, eq=False)
class KittenDescriptor:
    """The full finite superposition for a fraction M/N: the sum over k of
    exp(i*pi*phases[k]/(4N))/sqrt(N) * |exp(i*pi*rotations[k]/(2N))*alpha>, k the derivation index.

    Two read-only int64 columns of N integers: ``phases``, the closed numerators over 4N in
    [0, 8N), and ``rotations``, distinct numerators over 2N in [0, 4N), so distinct mod 2*pi.
    Every coefficient has magnitude 1/sqrt(N), so the weights sum to one by construction.
    Each column is copied and checked once, vectorized: TypeError naming it without an integer
    dtype, ValueError naming it for a wrong shape, a value out of range or a repeated rotation.
    Descriptors are equal when their fractions and columns are.  ``parity`` ("even" or "odd")
    is that of N.
    """

    fraction: CoprimeFraction
    phases: np.ndarray
    rotations: np.ndarray

    def __post_init__(self) -> None:
        n = self.fraction.N
        for name, bound in (("phases", 8 * n), ("rotations", 4 * n)):
            try:
                column = np.array(getattr(self, name))
            except ValueError as exc:  # a ragged sequence
                raise ValueError(f"{name}: {exc}") from None
            if not np.issubdtype(column.dtype, np.integer):
                raise TypeError(f"{name}: must be integers, got dtype {column.dtype}")
            if column.shape != (n,):
                raise ValueError(f"{name}: expected shape ({n},), got {column.shape}")
            if (outside := column[(column < 0) | (column >= bound)]).size:
                raise ValueError(f"{name}: must lie in [0, {bound}), got {outside[0]}")
            column = column.astype(np.int64, copy=False)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        seen = np.zeros(4 * n, dtype=bool)
        seen[self.rotations] = True
        if (repeated := n - np.count_nonzero(seen)):
            raise ValueError(f"rotations: must be distinct, got {repeated} repeated")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KittenDescriptor):
            return NotImplemented
        return (self.fraction == other.fraction and np.array_equal(self.phases, other.phases)
                and np.array_equal(self.rotations, other.rotations))

    @property
    def parity(self) -> str:
        return "even" if self.fraction.n_even else "odd"

    @property
    def components(self) -> Sequence[ExactCoefficient]:
        """The coefficients as exact objects, each built when it is read: for printing a few.
        Its length is N; the writers and ``_branches`` read the columns instead."""
        return _ExactCoefficients(self.phases, self.fraction.N)


class _ExactCoefficients(Sequence):
    """``ExactCoefficient(N, RationalAngle(phases[k], 4N))`` for k read one at a time."""

    def __init__(self, phases: np.ndarray, n: int) -> None:
        self._phases, self._n = phases, n

    def __len__(self) -> int:
        return len(self._phases)

    def __getitem__(self, k: int) -> ExactCoefficient:
        return ExactCoefficient(self._n, RationalAngle(int(self._phases[k]), 4 * self._n))


def build_descriptor(f: CoprimeFraction) -> KittenDescriptor:
    """Descriptor with the closed numerators over 4N of ``_closed_numerators`` and the rotations
    2*pi*k/N, shifted by pi*M/N for even N: numerators (4k + 2M*[N even]) mod 4N over 2N.
    Both columns are array expressions; no Python object is made per component."""
    n, shift = f.N, 2 * f.M if f.n_even else 0
    return KittenDescriptor(f, _closed_numerators(f)[0], (4 * np.arange(n) + shift) % (4 * n))


def _branches(desc: KittenDescriptor, alpha: complex) -> tuple[np.ndarray, np.ndarray]:
    """The arrays c_k and exp(i*pi*r_k/(2N))*alpha over k, each from one ``unit_phase`` call."""
    n = desc.fraction.N
    return (unit_phase(desc.phases, 4 * n) / math.sqrt(n),
            unit_phase(desc.rotations, 2 * n) * alpha)


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
    """Coefficients exp(i*pi*pn/pd)/sqrt(N) and rotations pi*rn/rd, with pd dividing 4N and rd
    dividing 2N: as numerators over 4N, mod 8N, and over 2N."""
    f = CoprimeFraction(m, n)
    return f, KittenDescriptor(f, [pn * 4 * n // pd % (8 * n) for pn, pd in phases],
                               [rn * 2 * n // rd for rn, rd in rotations])


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


# Components per block of the two state writers: each block is formatted from one ``.tolist()``
# of its slice of each column, so the Python ints and row texts of one block are held at a time.
# A JSON block is then about 1 MB of text; blocks of 1 << 14 peaked 5 MB higher at N = 400009.
_STATE_LINES = 1 << 12


def _reduced(nums: np.ndarray, den: int) -> tuple[np.ndarray, np.ndarray]:
    """Each numerator over den as the reduced fraction (num/g, den/g) by one ``np.gcd``, the
    canonical ``RationalAngle`` pair of a numerator in [0, 2*den): zero is (0, 1)."""
    g = np.gcd(nums, den)
    return nums // g, den // g


def _column_blocks(*columns: np.ndarray) -> Iterator[tuple[range, ...]]:
    """Per block of _STATE_LINES components: its indices k and the ``.tolist()`` of its slice
    of each column."""
    n = len(columns[0])
    for start in range(0, n, _STATE_LINES):
        block = slice(start, start + _STATE_LINES)
        yield range(start, min(start + _STATE_LINES, n)), *(c[block].tolist() for c in columns)


def descriptor_to_json(desc: KittenDescriptor) -> str:
    """The stable JSON wire format, the text of ``json.dumps(obj, indent=2)``: one template per
    component, joined per block (``_column_blocks``) with the head on its first row and the end
    on its last, and the blocks joined once.  Phases mean exp(i*pi*num/den) and rotations are
    the multiplier of alpha in the same convention, each reduced by one ``np.gcd`` per column."""
    n = desc.fraction.N
    blocks = []
    for ks, pn, pd, rn, rd in _column_blocks(*_reduced(desc.phases, 4 * n),
                                             *_reduced(desc.rotations, 2 * n)):
        rows = [_COMPONENT_JSON % row for row in zip(ks, pn, pd, repeat(n), rn, rd)]
        if ks.start == 0:
            rows[0] = (f'{{\n  "M": {desc.fraction.M},\n  "N": {n},\n  "parity": "{desc.parity}",'
                       f'\n  "components": [\n' + rows[0])
        if ks.stop == n:
            rows[-1] += "\n  ]\n}"
        blocks.append(",\n".join(rows))
    return ",\n".join(blocks)


def _descriptor_lines(desc: KittenDescriptor) -> Iterator[str]:
    """The component lines of the state text form, "k=K: c_k · |exp(i·rotation_k)·α⟩", one
    joined text per block (``_column_blocks``).  Each distinct coefficient is formatted once
    (``_distinct``, as in ``closed_coefficients``) and each row indexes the texts.  The
    rotations are reduced as in the JSON form."""
    n = desc.fraction.N
    values, index = _distinct(desc.phases, 8 * n)
    texts = [_coefficient_text(num, den, n)
             for num, den in zip(*(c.tolist() for c in _reduced(values, 4 * n)))]
    for ks, block_index, rn, rd in _column_blocks(index, *_reduced(desc.rotations, 2 * n)):
        yield "\n".join([f"k={k}: {texts[i]} · |exp(i·{_angle_text(r, d)})·α⟩"
                         for k, i, r, d in zip(ks, block_index, rn, rd)])
