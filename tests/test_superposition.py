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
    _quadratic_numerators,
    unit_phase,
)
from gausscat.superposition import (
    KittenComponent,
    KittenDescriptor,
    build_descriptor,
    coefficients_by_inverse_dft,
    descriptor_to_json,
    reference_state_table,
    verify_forward_dft,
)


@st.composite
def coprime_fractions_st(draw, n_max=40):
    n = draw(st.integers(min_value=2, max_value=n_max))
    m = draw(st.sampled_from([m for m in range(1, n) if math.gcd(m, n) == 1]))
    return CoprimeFraction(m, n)


def _phases(desc):
    return [(c.coefficient.phase.num, c.coefficient.phase.den) for c in desc.components]


def _rotations(desc):
    return [(c.rotation.num, c.rotation.den) for c in desc.components]


def _values(desc):
    return np.array([c.coefficient.value for c in desc.components])


def _parse_descriptor(text):
    """The descriptor that a JSON text of ``descriptor_to_json`` describes."""
    obj = json.loads(text)
    assert [c["k"] for c in obj["components"]] == list(range(obj["N"]))
    assert all(c["coeff"]["sign"] == 1 for c in obj["components"])
    desc = KittenDescriptor(CoprimeFraction(obj["M"], obj["N"]), tuple(
        KittenComponent(
            ExactCoefficient(c["coeff"]["inv_sqrt"],
                             RationalAngle(c["coeff"]["phase_num"], c["coeff"]["phase_den"])),
            RationalAngle(c["rotation"]["num"], c["rotation"]["den"]))
        for c in obj["components"]))
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
        assert all(c.coefficient.inv_sqrt_n == 7 for c in desc.components)
        total = sum(abs(c.coefficient.value) ** 2 for c in desc.components)
        assert abs(total - 1.0) < 1e-14

    @pytest.mark.parametrize("m, n", [(1, 3), (2, 5), (1, 2), (3, 8), (5, 6)])
    def test_rotation_group_closure(self, m, n):
        # N-th power of every rotation is +1 for odd N and -1 for even N
        desc = build_descriptor(CoprimeFraction(m, n))
        closure = RationalAngle(0, 1) if n % 2 else RationalAngle(1, 1)
        for c in desc.components:
            assert RationalAngle(c.rotation.num * n, c.rotation.den) == closure


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
        assert state45.components[2].coefficient == ExactCoefficient(5, RationalAngle(1, 1))
        assert state45.components[2].rotation == RationalAngle(4, 5)


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
    @given(coprime_fractions_st())
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
    n, quad = _quadratic_numerators((f,))
    return unit_phase(-quad[0], n)


class TestPhaseSequence:
    def test_odd_quadratic_phases(self):
        # exp(-i pi n(n-1) / 3) for n = 0, 1, 2: 1, 1, exp(4 pi i / 3)
        want = np.array([1.0, 1.0, cmath.exp(4j * math.pi / 3)])
        assert np.abs(_target_values(CoprimeFraction(1, 3)) - want).max() < 5e-16

    def test_even_quadratic_phases(self):
        # exp(-i pi n^2 / 2) for n = 0, 1: 1 and -i
        assert np.abs(_target_values(CoprimeFraction(1, 2)) - [1.0, -1.0j]).max() < 5e-16

    @settings(max_examples=60)
    @given(coprime_fractions_st())
    def test_vectorized_targets_match_exact_sequence(self, f):
        exact = np.array([t.to_complex() for t in _exact_phase_sequence(f)])
        assert np.abs(_target_values(f) - exact).max() < 5e-15


class TestDescriptorValidation:
    def test_wrong_component_count(self):
        f = CoprimeFraction(1, 3)
        good = build_descriptor(f)
        with pytest.raises(ValueError):
            KittenDescriptor(f, good.components[:2])

    def test_duplicate_rotations_rejected(self):
        f = CoprimeFraction(1, 2)
        c = ExactCoefficient(2, RationalAngle(0, 1))
        components = (KittenComponent(c, RationalAngle(1, 2)),
                      KittenComponent(c, RationalAngle(1, 2)))
        with pytest.raises(ValueError):
            KittenDescriptor(f, components)

    def test_wrong_magnitude_rejected(self):
        f = CoprimeFraction(1, 2)
        c = ExactCoefficient(3, RationalAngle(0, 1))
        components = (KittenComponent(c, RationalAngle(1, 2)),
                      KittenComponent(c, RationalAngle(3, 2)))
        with pytest.raises(ValueError):
            KittenDescriptor(f, components)


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
