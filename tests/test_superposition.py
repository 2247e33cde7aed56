"""Unit tests for kitten descriptors, the inverse-DFT route, and the golden
reference table."""

import cmath
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gausscat.gauss_sums import (
    CoprimeFraction,
    ExactCoefficient,
    RationalAngle,
    _targets,
)
from gausscat.superposition import (
    KittenDescriptor,
    build_descriptor,
    coefficients_by_inverse_dft,
    descriptor_to_json,
    reference_state_table,
    verify_forward_dft,
)
from references import _cmath_phase, coprime_fractions_st


def _phases(desc):
    return [(c.phase.num, c.phase.den) for c in desc.components]


def _rotations(desc):
    """The rotations as reduced (num, den) pairs of multiples of pi."""
    angles = [RationalAngle(r, 2 * desc.fraction.N) for r in desc.rotations]
    return [(a.num, a.den) for a in angles]


def _values(desc):
    return np.array([_cmath_phase(c.phase.num, c.phase.den) / math.sqrt(c.inv_sqrt_n)
                     for c in desc.components])


def _parse_descriptor(text):
    """The descriptor that a JSON text of ``descriptor_to_json`` describes."""
    obj = json.loads(text)
    assert [c["k"] for c in obj["components"]] == list(range(obj["N"]))
    assert all(c["coeff"]["sign"] == 1 for c in obj["components"])
    n = obj["N"]
    desc = KittenDescriptor(
        CoprimeFraction(obj["M"], n),
        tuple(ExactCoefficient(c["coeff"]["inv_sqrt"],
                               RationalAngle(c["coeff"]["phase_num"], c["coeff"]["phase_den"]))
              for c in obj["components"]),
        tuple(c["rotation"]["num"] * 2 * n // c["rotation"]["den"] for c in obj["components"]))
    assert obj["parity"] == desc.parity
    return desc


class TestBuildDescriptor:
    def test_parity_cat(self):
        desc = build_descriptor(CoprimeFraction(1, 2))
        assert desc.parity == "even"
        assert _phases(desc) == [(7, 4), (1, 4)]
        assert _rotations(desc) == [(1, 2), (3, 2)]

    def test_triangular(self):
        desc = build_descriptor(CoprimeFraction(1, 3))
        assert desc.parity == "odd"
        assert _phases(desc) == [(11, 6), (11, 6), (1, 2)]
        assert _rotations(desc) == [(0, 1), (2, 3), (4, 3)]

    def test_pentagonal(self):
        desc = build_descriptor(CoprimeFraction(1, 5))
        assert _phases(desc) == [(9, 5), (9, 5), (1, 5), (1, 1), (1, 5)]
        assert _rotations(desc) == [(0, 1), (2, 5), (4, 5), (6, 5), (8, 5)]

    def test_compass(self):
        desc = build_descriptor(CoprimeFraction(3, 4))
        assert _phases(desc) == [(5, 4), (0, 1), (1, 4), (0, 1)]
        assert _rotations(desc) == [(3, 4), (5, 4), (7, 4), (1, 4)]

    def test_weights_sum_to_one(self):
        desc = build_descriptor(CoprimeFraction(2, 7))
        assert all(c.inv_sqrt_n == 7 for c in desc.components)
        total = sum(abs(_values(desc)) ** 2)
        assert abs(total - 1.0) < 1e-14

    @pytest.mark.parametrize("m, n", [(1, 3), (2, 5), (1, 2), (3, 8), (5, 6)])
    def test_rotation_group_closure(self, m, n):
        # N-th power of every rotation is +1 for odd N and -1 for even N
        desc = build_descriptor(CoprimeFraction(m, n))
        closure = RationalAngle(0, 1) if n % 2 else RationalAngle(1, 1)
        for r in desc.rotations:
            assert RationalAngle(r * n, 2 * n) == closure


class TestGoldenTable:
    def test_every_reference_state_is_reproduced_exactly(self):
        for f, reference in reference_state_table():
            assert build_descriptor(f) == reference

    def test_table_contents(self):
        table = dict(reference_state_table())
        assert len(table) == 9
        assert _phases(table[CoprimeFraction(2, 3)]) == [(1, 6), (3, 2), (1, 6)]
        assert _phases(table[CoprimeFraction(3, 5)]) == [(2, 5), (8, 5), (8, 5), (2, 5), (0, 1)]
        # the bare -1 coefficient of the fourth pentagonal state sits at rotation 4*pi/5
        state45 = table[CoprimeFraction(4, 5)]
        assert state45.components[2] == ExactCoefficient(5, RationalAngle(1, 1))
        assert state45.rotations[2] == 8  # 8*pi/10
        assert _rotations(state45)[2] == (4, 5)


class TestInverseDft:
    def test_matches_closed_for_parity_cat(self):
        f = CoprimeFraction(1, 2)
        got = coefficients_by_inverse_dft(f)[0]
        want = _values(build_descriptor(f))
        assert np.abs(got - want).max() < 1e-12

    def test_matches_reference_pentagonal_state(self):
        got = coefficients_by_inverse_dft(CoprimeFraction(2, 5))[0]
        phases = [(-2, 5), (0, 1), (-2, 5), (2, 5), (2, 5)]
        want = np.array([cmath.exp(1j * math.pi * p / q) for p, q in phases]) / math.sqrt(5)
        assert np.abs(got - want).max() < 1e-12

    def test_matches_mirrored_compass_state(self):
        # i -> -i mirror of the compass state: coefficients for M=1, N=4
        got = coefficients_by_inverse_dft(CoprimeFraction(1, 4))[0]
        phases = [(-1, 4), (0, 1), (3, 4), (0, 1)]
        want = np.array([cmath.exp(1j * math.pi * p / q) for p, q in phases]) / 2.0
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("n", [12, 101, 200])
    def test_rows_of_one_denominator_match_single_calls(self, n):
        fractions = [CoprimeFraction(m, n) for m in range(1, n) if math.gcd(m, n) == 1]
        rows = coefficients_by_inverse_dft(*fractions)
        assert rows.shape == (len(fractions), n)
        single = np.array([coefficients_by_inverse_dft(f)[0] for f in fractions])
        assert np.abs(rows - single).max() < 1e-15

    def test_mixed_or_no_denominator_rejected(self):
        with pytest.raises(ValueError):
            coefficients_by_inverse_dft(CoprimeFraction(1, 3), CoprimeFraction(1, 4))
        with pytest.raises(ValueError):
            coefficients_by_inverse_dft()

    @settings(max_examples=60)
    @given(coprime_fractions_st(n_max=40))
    def test_matches_closed_route(self, f):
        got = coefficients_by_inverse_dft(f)[0]
        want = _values(build_descriptor(f))
        assert np.abs(got - want).max() < 1e-12


class TestForwardDft:
    def test_reference_parity_coefficients_solve_the_system(self):
        f = CoprimeFraction(1, 2)
        c = np.array([cmath.exp(-0.25j * math.pi), cmath.exp(0.25j * math.pi)]) / math.sqrt(2)
        assert verify_forward_dft(f, coefficients=[c])[0] < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8, 25, 50])
    def test_round_trip(self, n):
        fractions = [CoprimeFraction(m, n) for m in range(1, n) if math.gcd(m, n) == 1]
        residuals = verify_forward_dft(
            *fractions, coefficients=coefficients_by_inverse_dft(*fractions))
        assert residuals.shape == (len(fractions),)
        assert residuals.max() < 1e-12

    def test_perturbed_coefficients_fail(self):
        f = CoprimeFraction(1, 3)
        c = coefficients_by_inverse_dft(f)[0]
        c[0] += 0.1
        assert verify_forward_dft(f, coefficients=[c])[0] >= 0.05

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_forward_dft(CoprimeFraction(1, 3), coefficients=np.ones((1, 4), dtype=complex))

    def test_one_row_per_fraction_required(self):
        with pytest.raises(ValueError):
            verify_forward_dft(CoprimeFraction(1, 3), CoprimeFraction(2, 3),
                               coefficients=np.ones((1, 3), dtype=complex))


def _exact_phase_sequence(f):
    """exp(-i*pi*M*n*(n-1)/N) (N odd) or exp(-i*pi*M*n^2/N) (N even) as exact angles."""
    m, n = f.M, f.N
    if f.n_even:
        return [RationalAngle(-m * j * j, n) for j in range(n)]
    return [RationalAngle(-m * j * (j - 1), n) for j in range(n)]


def _target_values(f):
    """The target phases of the inverse-DFT route, as it evaluates them."""
    return _targets((f,))[2][0]


class TestPhaseSequence:
    def test_odd_quadratic_phases(self):
        # exp(-i pi n(n-1) / 3) for n = 0, 1, 2: 1, 1, exp(4 pi i / 3)
        want = np.array([1.0, 1.0, complex(-0.5, -math.sqrt(3) / 2)])
        assert np.abs(_target_values(CoprimeFraction(1, 3)) - want).max() < 5e-16

    def test_even_quadratic_phases(self):
        # exp(-i pi n^2 / 2) for n = 0, 1: 1 and -i
        assert np.abs(_target_values(CoprimeFraction(1, 2)) - [1.0, -1.0j]).max() < 5e-16

    @settings(max_examples=60)
    @given(coprime_fractions_st(n_max=40))
    def test_vectorized_targets_match_exact_sequence(self, f):
        exact = np.array([_cmath_phase(t.num, t.den) for t in _exact_phase_sequence(f)])
        assert np.abs(_target_values(f) - exact).max() < 5e-15


class TestDescriptorValidation:
    def test_wrong_component_count(self):
        f = CoprimeFraction(1, 3)
        good = build_descriptor(f)
        with pytest.raises(ValueError):
            KittenDescriptor(f, good.components[:2], good.rotations)
        with pytest.raises(ValueError):
            KittenDescriptor(f, good.components, good.rotations[:2])

    def test_duplicate_rotations_rejected(self):
        f = CoprimeFraction(1, 2)
        c = ExactCoefficient(2, RationalAngle(0, 1))
        KittenDescriptor(f, (c, c), (2, 6))
        with pytest.raises(ValueError):
            KittenDescriptor(f, (c, c), (2, 2))

    def test_wrong_magnitude_rejected(self):
        f = CoprimeFraction(1, 2)
        c = ExactCoefficient(3, RationalAngle(0, 1))
        with pytest.raises(ValueError):
            KittenDescriptor(f, (c, c), (2, 6))

    def test_rotation_outside_one_turn_rejected(self):
        # numerators over 2N must lie in [0, 4N): -2, 8 and 10 are the distinct
        # rotations 6, 0 and 2 only after reduction mod 8
        f = CoprimeFraction(1, 2)
        c = ExactCoefficient(2, RationalAngle(0, 1))
        for rotations in [(-2, 2), (2, 8), (6, 10)]:
            with pytest.raises(ValueError):
                KittenDescriptor(f, (c, c), rotations)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (3, 4), (4, 5), (5, 12)])
    def test_round_trip_is_identity(self, m, n):
        desc = build_descriptor(CoprimeFraction(m, n))
        assert _parse_descriptor(descriptor_to_json(desc)) == desc

    def test_parse_then_reemit_is_textually_identity(self):
        text = descriptor_to_json(build_descriptor(CoprimeFraction(2, 7)))
        assert descriptor_to_json(_parse_descriptor(text)) == text

    def test_schema_fields(self):
        obj = json.loads(descriptor_to_json(build_descriptor(CoprimeFraction(1, 2))))
        assert obj["M"] == 1 and obj["N"] == 2 and obj["parity"] == "even"
        first = obj["components"][0]
        assert first["coeff"] == {"sign": 1, "phase_num": 7, "phase_den": 4, "inv_sqrt": 2}
        assert first["rotation"] == {"num": 1, "den": 2}
