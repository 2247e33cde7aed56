"""The one integer rule (``gauss_sums._integer``) over every integer argument of the package."""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gausscat import verify
from gausscat.fock import kerr_diagonal, rotation_diagonal, within_time_bound, within_truncation_guard
from gausscat.gauss_sums import (CoprimeFraction, ExactCoefficient, RationalAngle, jacobi_symbol,
                                 mod_inverse)
from gausscat.wavefunc import GridSpec, hermite_basis

_PRIME = 2**61 - 1  # a Mersenne prime: every M in (0, _PRIME) is coprime to it
_THIRD = CoprimeFraction(1, 3)

# argument name, a call that varies only that argument (the others fixed, so that any refusal
# is of it), and whether ints up to +-2**62 may go in: only where nothing is allocated by them;
# elsewhere the accepted sizes stay at most 64
_INTEGER_ARGUMENTS = {
    "CoprimeFraction-M": ("M", lambda v: CoprimeFraction(v, _PRIME), True),
    "CoprimeFraction-N": ("N", lambda v: CoprimeFraction(1, v), True),
    "mod_inverse-m": ("m", lambda v: mod_inverse(v, _PRIME), True),
    "mod_inverse-n": ("n", lambda v: mod_inverse(1, v), True),
    "jacobi_symbol-a": ("a", lambda v: jacobi_symbol(v, _PRIME), True),
    "jacobi_symbol-b": ("b", lambda v: jacobi_symbol(2, v), True),
    "RationalAngle-num": ("num", lambda v: RationalAngle(v, 12), True),
    "RationalAngle-den": ("den", lambda v: RationalAngle(5, v), True),
    "ExactCoefficient-inv_sqrt_n": ("inv_sqrt_n",
                                    lambda v: ExactCoefficient(v, RationalAngle(1, 4)), False),
    "coprime_fractions-n_max": ("n_max", lambda v: list(verify.coprime_fractions(v)), False),
    "rotation_diagonal-dim": ("dim", lambda v: rotation_diagonal(_THIRD, v), False),
    "kerr_diagonal-dim": ("dim", lambda v: kerr_diagonal(_THIRD, v), False),
    "hermite_basis-n_max": ("n_max", lambda v: hermite_basis(v, np.linspace(-1.0, 1.0, 3)), False),
    "GridSpec-points": ("points", lambda v: GridSpec(1.0, v), False),
    "within_truncation_guard-dim": ("dim", lambda v: within_truncation_guard(1.0, v), False),
    "within_time_bound-dim": ("dim", lambda v: within_time_bound(1.0, v), False),
}


def _arguments(wide: bool):
    """ints, bools and numpy ints; integral and other floats (nan and inf too); None and str."""
    ints = st.integers(-2**62, 2**62) if wide else st.integers(-64, 64)
    return st.one_of(ints, st.booleans(), ints.map(np.int64), ints.map(float), st.floats(),
                     st.none(), st.sampled_from(["", "3", "1.5", "x"]))


def _outcome(call, value):
    """("returned", a comparable form of the result) or (error type, message)."""
    try:
        result = call(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return "returned", (result.dtype.str, result.shape, result.tobytes())
    for obj in result if isinstance(result, list) else [result]:
        if dataclasses.is_dataclass(obj):  # an integer field holds a Python int, not the input
            assert all(type(getattr(obj, f.name)) is int
                       for f in dataclasses.fields(obj) if f.type == "int"), obj
    return "returned", result


@pytest.mark.parametrize("case", list(_INTEGER_ARGUMENTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_integer_argument_goes_through_the_one_rule(case, data):
    name, call, wide = _INTEGER_ARGUMENTS[case]
    value = data.draw(_arguments(wide))
    outcome = _outcome(call, value)
    if isinstance(value, (int, np.integer)):
        # a bool or numpy int is read as its Python int: the same result or the same refusal
        assert outcome == _outcome(call, int(value))
        assert outcome[0] in ("returned", ValueError)
    else:
        assert outcome[0] is TypeError
    if outcome[0] != "returned":
        assert outcome[1].startswith(f"{name}: "), outcome[1]
