"""Test helpers shared by several test files: an exact-phase reference evaluator and a
hypothesis strategy of coprime fractions."""

import cmath
import math

import hypothesis.strategies as st

from gausscat.gauss_sums import CoprimeFraction


def _cmath_phase(num, den):
    """exp(i*pi*num/den) by cmath.exp of the angle reduced exactly mod 2*pi:
    a reference evaluator that shares no code with unit_phase."""
    return cmath.exp(1j * math.pi * (num % (2 * den)) / den)


@st.composite
def coprime_fractions_st(draw, n_max=60):
    n = draw(st.integers(min_value=2, max_value=n_max))
    m = draw(st.sampled_from([m for m in range(1, n) if math.gcd(m, n) == 1]))
    return CoprimeFraction(m, n)
