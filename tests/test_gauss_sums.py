"""Unit tests for the exact phase carrier and the Gauss-sum routes."""

import cmath
import contextlib
import dataclasses
import io
import math
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from gausscat import cli, gauss_sums
from gausscat.gauss_sums import (
    CoprimeFraction,
    ExactCoefficient,
    RationalAngle,
    _closed_numerators,
    _coefficient_values,
    _k_blocks,
    _targets,
    closed_coefficients,
    direct_coefficients,
    jacobi_symbol,
    mod_inverse,
    unit_phase,
)
from gausscat.superposition import coefficients_by_inverse_dft, verify_forward_dft
from gausscat.verify import coprime_fractions
from references import _cmath_phase, coprime_fractions_st


class TestGcd:
    """The gcd that mod_inverse and CoprimeFraction check and report."""

    def test_small_cases(self):
        with pytest.raises(ValueError, match="gcd = 2"):
            mod_inverse(6, 4)
        with pytest.raises(ValueError, match="gcd = 7"):
            CoprimeFraction(21, 35)

    @pytest.mark.parametrize("n", [1, 2, 7, 101])
    def test_one_is_coprime_to_everything(self, n):
        assert mod_inverse(1, n) == 1

    def test_zero_zero_rejected(self):
        with pytest.raises(ValueError):
            mod_inverse(0, 0)

    def test_negative_rejected(self):
        # a negative numerator is reduced mod n first, so its common factor shows
        with pytest.raises(ValueError, match="gcd = 2"):
            mod_inverse(-4, 6)


class TestModInverse:
    @pytest.mark.parametrize("m, n, d", [(1, 2, 1), (3, 4, 3), (2, 5, 3), (7, 1, 1)])
    def test_known_inverses(self, m, n, d):
        assert mod_inverse(m, n) == d

    def test_non_coprime_rejected_with_gcd(self):
        with pytest.raises(ValueError, match="gcd = 2"):
            mod_inverse(2, 4)

    @given(st.integers(min_value=2, max_value=500), st.data())
    def test_inverse_property(self, n, data):
        m = data.draw(st.sampled_from([m for m in range(1, n) if math.gcd(m, n) == 1]))
        d = mod_inverse(m, n)
        assert 1 <= d <= n
        assert (m * d) % n == 1


def _legendre_brute(a, p):
    """Definition-level Legendre symbol for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    squares = {(x * x) % p for x in range(1, p)}
    return 1 if a in squares else -1


def _odd_primes(bound):
    return [p for p in range(3, bound, 2)
            if all(p % q for q in range(3, int(p ** 0.5) + 1, 2))]


class TestJacobiSymbol:
    @pytest.mark.parametrize("a, b, value", [(1, 3, 1), (2, 3, -1), (4, 3, 1)])
    def test_small_cases(self, a, b, value):
        assert jacobi_symbol(a, b) == value

    @pytest.mark.parametrize("b", [0, -3, 4, 10])
    def test_bad_denominator_rejected(self, b):
        with pytest.raises(ValueError):
            jacobi_symbol(2, b)

    def test_denominator_one(self):
        assert jacobi_symbol(5, 1) == 1

    def test_matches_legendre_on_primes(self):
        for p in _odd_primes(120):
            for a in range(p):
                assert jacobi_symbol(a, p) == _legendre_brute(a, p)

    def test_matches_prime_factor_product(self):
        # definition for composite odd b: product over its prime factors
        primes = _odd_primes(30)
        for p in primes:
            for q in primes:
                b = p * q
                for a in range(1, b, 7):
                    want = _legendre_brute(a, p) * _legendre_brute(a, q)
                    assert jacobi_symbol(a, b) == want

    def test_zero_iff_common_factor(self):
        for b in range(1, 46, 2):
            for a in range(2 * b):
                assert (jacobi_symbol(a, b) == 0) == (math.gcd(a, b) > 1)

    @given(st.integers(-300, 300), st.integers(-300, 300),
           st.integers(0, 150).map(lambda k: 2 * k + 1))
    def test_multiplicative(self, a1, a2, b):
        assert jacobi_symbol(a1 * a2, b) == jacobi_symbol(a1, b) * jacobi_symbol(a2, b)

    @given(st.integers(-10**6, 10**6), st.integers(1, 500).map(lambda k: 2 * k + 1))
    def test_reduction_mod_b(self, a, b):
        assert jacobi_symbol(a, b) == jacobi_symbol(a % b, b)


class TestRationalAngle:
    @pytest.mark.parametrize("num, den, cnum, cden", [
        (-1, 4, 7, 4),
        (6, 4, 3, 2),
        (0, 17, 0, 1),
        (4, 2, 0, 1),
        (9, 4, 1, 4),
        (5, 1, 1, 1),
    ])
    def test_canonicalization(self, num, den, cnum, cden):
        angle = RationalAngle(num, den)
        assert (angle.num, angle.den) == (cnum, cden)

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalAngle(1, 0)

    @given(st.integers(-2000, 2000), st.integers(1, 300))
    def test_canonical_invariants(self, num, den):
        angle = RationalAngle(num, den)
        assert angle.den >= 1
        assert 0 <= angle.num < 2 * angle.den
        if angle.num == 0:
            assert angle.den == 1
        else:
            assert math.gcd(angle.num, angle.den) == 1

    @given(st.integers(-200, 200), st.integers(1, 40),
           st.integers(-200, 200), st.integers(1, 40))
    def test_addition_is_phase_multiplication(self, n1, d1, n2, d2):
        # angles added as exact fractions of pi, then canonicalized
        a, b = RationalAngle(n1, d1), RationalAngle(n2, d2)
        total = Fraction(n1, d1) + Fraction(n2, d2)
        added = RationalAngle(total.numerator, total.denominator)
        values = unit_phase([added.num, a.num, b.num], [added.den, a.den, b.den])
        assert abs(values[0] - values[1] * values[2]) < 1e-12

    def test_quarter_turns_are_exact(self):
        angles = [RationalAngle(0, 1), RationalAngle(1, 1), RationalAngle(1, 2), RationalAngle(3, 2)]
        values = unit_phase([a.num for a in angles], [a.den for a in angles])
        assert values.tolist() == [1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j]

    def test_scaled_and_negated(self):
        # integer multiples and negatives are built from the numerator
        a, b = RationalAngle(1, 4), RationalAngle(1, 3)
        assert RationalAngle(a.num * 3, a.den) == RationalAngle(3, 4)
        assert RationalAngle(-a.num, a.den) == RationalAngle(7, 4)
        total = Fraction(b.num, b.den) + Fraction(-b.num, b.den)
        assert RationalAngle(total.numerator, total.denominator) == RationalAngle(0, 1)

    def test_str(self):
        assert str(RationalAngle(0, 1)) == "0"
        assert str(RationalAngle(1, 1)) == "π"
        assert str(RationalAngle(1, 2)) == "π/2"
        assert str(RationalAngle(-1, 4)) == "7π/4"


class TestExactCoefficient:
    def test_magnitude_and_value(self):
        (value,) = _coefficient_values([ExactCoefficient(2, RationalAngle(7, 4))])
        assert abs(abs(value) - 1 / math.sqrt(2)) < 1e-15
        assert abs(value - cmath.exp(-0.25j * math.pi) / math.sqrt(2)) < 1e-15

    def test_value_takes_no_part_in_equality_or_hash(self):
        folded = ExactCoefficient(5, RationalAngle(-1, 1))
        plain = ExactCoefficient(5, RationalAngle(1, 1))
        assert folded == plain and hash(folded) == hash(plain)
        assert "value" not in repr(folded)
        with pytest.raises(TypeError):
            ExactCoefficient(5, RationalAngle(0, 1), value=1.0)

    def test_replace_recomputes_value(self):
        c = ExactCoefficient(3, RationalAngle(1, 6))
        moved = dataclasses.replace(c, phase=RationalAngle(3, 2))
        assert moved == ExactCoefficient(3, RationalAngle(3, 2)) != c
        values = _coefficient_values([moved, dataclasses.replace(moved, inv_sqrt_n=4)])
        assert values.tolist() == [-1j / math.sqrt(3), -0.5j]

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            ExactCoefficient(0, RationalAngle(0, 1))
        with pytest.raises(ValueError):
            ExactCoefficient(-3, RationalAngle(0, 1))


class TestCoprimeFraction:
    def test_valid(self):
        f = CoprimeFraction(3, 4)
        assert f.n_even and abs(f.angle_radians - 1.5 * math.pi) < 1e-15

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 3), (4, 3), (2, 4), (1, 1)])
    def test_invalid_rejected(self, m, n):
        with pytest.raises(ValueError):
            CoprimeFraction(m, n)


# each refusal of the integer number theory and the exact carriers, by the argument's name;
# they read "need 0 < M < N", "modulus must be ...", "Jacobi symbol needs ..." and such
_REFUSALS = {
    "CoprimeFraction-M-type": (TypeError, "M", lambda: CoprimeFraction(1.0, 3)),
    "CoprimeFraction-N-type": (TypeError, "N", lambda: CoprimeFraction(1, 3.0)),
    "CoprimeFraction-N-small": (ValueError, "N", lambda: CoprimeFraction(1, 1)),
    "CoprimeFraction-M-range": (ValueError, "M", lambda: CoprimeFraction(4, 3)),
    "CoprimeFraction-M-coprime": (ValueError, "M", lambda: CoprimeFraction(2, 4)),
    "mod_inverse-n": (ValueError, "n", lambda: mod_inverse(1, 0)),
    "mod_inverse-m": (ValueError, "m", lambda: mod_inverse(6, 4)),
    "RationalAngle-den": (ValueError, "den", lambda: RationalAngle(1, 0)),
    "jacobi_symbol-b": (ValueError, "b", lambda: jacobi_symbol(2, 4)),
    "ExactCoefficient-inv_sqrt_n": (ValueError, "inv_sqrt_n",
                                    lambda: ExactCoefficient(0, RationalAngle(0, 1))),
    # a float, integral or not, is no integer anywhere (``gauss_sums._integer``)
    "jacobi_symbol-a-type": (TypeError, "a", lambda: jacobi_symbol(3.5, 9)),
    "jacobi_symbol-b-type": (TypeError, "b", lambda: jacobi_symbol(2, 9.0)),
    "mod_inverse-m-type": (TypeError, "m", lambda: mod_inverse(2.0, 5)),
    "mod_inverse-n-type": (TypeError, "n", lambda: mod_inverse(2, None)),
    "RationalAngle-num-type": (TypeError, "num", lambda: RationalAngle(1.5, 4)),
    "RationalAngle-den-type": (TypeError, "den", lambda: RationalAngle(1, 2.5)),
    "ExactCoefficient-inv_sqrt_n-type": (TypeError, "inv_sqrt_n",
                                         lambda: ExactCoefficient(2.5, RationalAngle(1, 4))),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_refusal_names_its_argument(case):
    error, name, call = _REFUSALS[case]
    with pytest.raises(error, match=f"^{name}: "):
        call()


def test_jacobi_symbol_below_one_is_refused_by_the_integer_rule():
    with pytest.raises(ValueError, match=r"^b: must be at least 1, got 0$"):
        jacobi_symbol(2, 0)


def test_numpy_integers_are_read_as_python_ints():
    assert mod_inverse(np.int64(2), 5) == 3
    f = CoprimeFraction(np.int64(2), np.int32(5))
    assert f == CoprimeFraction(2, 5) and type(f.M) is int and type(f.N) is int
    angle = RationalAngle(np.int64(-1), np.uint8(4))
    assert angle == RationalAngle(7, 4) and type(angle.num) is type(angle.den) is int
    assert type(ExactCoefficient(np.int16(3), angle).inv_sqrt_n) is int


class TestUnitPhase:
    @given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=40),
           st.integers(1, 500))
    @example([0, 1, 2**59, 2**60, 2**61 - 1], 2**60)  # the largest den it accepts
    def test_matches_exact_scalar_phase(self, nums, den):
        # numerators far outside [0, 2*den), negative ones included, against
        # cmath.exp of the exactly reduced angle, an evaluator independent of unit_phase
        want = np.array([_cmath_phase(num, den) for num in nums])
        assert np.abs(unit_phase(nums, den) - want).max() < 5e-15

    @pytest.mark.parametrize("den", [2**60 + 1, 2**61, 2**62 + 1, [3, 2**62 + 1]])
    def test_den_beyond_int64_reduction_raises(self, den):
        # the int64 reduction is exact only up to 2**60 (4*a + den wraps from
        # about 2**61 on), so a larger den raises instead of returning a wrong phase
        with pytest.raises(ValueError, match="2\\*\\*60"):
            unit_phase(1, den)

    @pytest.mark.parametrize("den", [0, -4, [3, 0]])
    def test_den_below_one_is_a_value_error_naming_den(self, den):
        # den 0 has no angle, and a negative den indexes outside the quarter turns
        with pytest.raises(ValueError, match="den"):
            unit_phase(1, den)

    @pytest.mark.parametrize("nums", [1.5, [1.0, 2.0], np.array([3.5]), [1, 2**64]])
    def test_non_integer_nums_is_a_type_error_naming_nums(self, nums):
        # a float numerator would be truncated: 1.5 over 4 would read as 1 over 4
        with pytest.raises(TypeError, match="nums"):
            unit_phase(nums, 4)

    @pytest.mark.parametrize("den", [2.5, 2.0, [3, 4.0], np.array([2.5]), True])
    def test_non_integer_den_is_a_type_error_naming_den(self, den):
        # a float den would be truncated: 1 over 2.5 would read as 1 over 2, i.e. 1j
        with pytest.raises(TypeError, match="^den: "):
            unit_phase(1, den)

    @pytest.mark.parametrize("nums", [[], np.array([], dtype=float), np.zeros((2, 0))])
    def test_empty_nums_give_an_empty_array(self, nums):
        assert unit_phase(nums, 4).shape == np.shape(nums)

    @given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=40),
           st.integers(1, 5000), st.integers(1, 1000))
    def test_conjugate_symmetric_and_scale_free(self, nums, den, k):
        nums = np.array(nums, dtype=np.int64)
        got = unit_phase(nums, den)
        # a negated angle is the conjugate bit for bit; a real value (angle 0
        # or pi) is its own mirror and keeps its +0 imaginary part
        assert np.array_equal(_bits(unit_phase(-nums, den)),
                              _bits(np.where(got.imag == 0, got, got.conj())))
        assert not np.signbit(got.imag[got.imag == 0]).any()
        # the value depends only on the rational nums/den
        assert np.array_equal(_bits(unit_phase(k * nums, k * den)), _bits(got))

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_quarter_turns_are_exact(self, turns, den):
        # angles 0, pi/2, pi and 3*pi/2, written over 2*den, with no zero of either sign
        got = unit_phase(den * (np.arange(4) + 4 * turns), 2 * den)
        want = np.array([complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1)])
        assert np.array_equal(_bits(got), _bits(want))

    @given(st.lists(st.tuples(st.integers(-10**9, 10**9), st.integers(1, 5000),
                              st.integers(1, 5000)), min_size=1, max_size=30))
    def test_scalar_views_equal_the_vector_form(self, rows):
        nums, dens, inv_sqrt = (list(col) for col in zip(*rows))
        # den as an array, or a Python list, broadcasts against the numerators
        got = unit_phase(nums, dens)
        assert np.array_equal(_bits(got), _bits(unit_phase(np.array(nums), np.array(dens))))
        scalar = [complex(unit_phase(r, d)) for r, d in zip(nums, dens)]
        assert np.array_equal(_bits(got), _bits(np.array(scalar)))
        # the exact objects hold the reduced angles; their evaluator gives the same bits
        values = _coefficient_values([ExactCoefficient(n, RationalAngle(r, d)) for r, d, n in rows])
        assert np.array_equal(_bits(got / np.sqrt(inv_sqrt)), _bits(values))


def _bits(z):
    """The bit patterns of a complex array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(z, dtype=complex).view(np.int64)


def _direct_reference(f, k):
    """The defining sum term by term, each exponent reduced exactly mod 2N
    before its cmath evaluation."""
    m, n = f.M, f.N
    total = 0.0 + 0.0j
    for ell in range(n):
        quad = m * ell * ell if f.n_even else m * ell * (ell - 1)
        total += _cmath_phase(-(quad + 2 * k * ell), n)
    return total / n


def _closed_reference(m, n):
    """Closed-form phase numerators over 4n, reduced mod 8n, in unbounded
    Python integers: the square completed with d = m^{-1} mod n, and the
    Jacobi sign added as a half turn."""
    d = mod_inverse(m, n)
    out = []
    for k in range(n):
        if n % 2 == 0:
            num = m * (4 * d * d * k * k - n)
            sign = jacobi_symbol(n, m)
        else:
            j = k - m // 2 if m % 2 == 0 else k + (n - m) // 2
            num = 4 * m * d * d * j * j + n * (n - 1)
            sign = jacobi_symbol(m, n)
            if m % 2 == 1 and (d * j) % 2 == 1:
                sign = -sign
        out.append((num + (4 * n if sign == -1 else 0)) % (8 * n))
    return out


def _jacobi_of(m, n):
    """The Jacobi sign that the closed form of M/N folds in: (N/M) for N even,
    (M/N) for N odd."""
    return jacobi_symbol(n, m) if n % 2 == 0 else jacobi_symbol(m, n)


def _direct_modulo_reference(f, wrong_last_exponent=False):
    """The direct sum as first vectorized: exponents reduced mod 2N once more
    after adding the quadratic and cross terms, and one period of roots.  A
    wrong last exponent plants a fault: the term of k = l = N - 1 is off by
    one step of pi/N."""
    m, n = f.M, f.N
    ell = np.arange(n, dtype=np.int64)
    quad = (m * ell * ell) % (2 * n) if f.n_even else (m * ell * (ell - 1)) % (2 * n)
    cross = (2 * np.outer(ell, ell)) % (2 * n)
    cross[-1, -1] += wrong_last_exponent
    roots = unit_phase(np.arange(2 * n), n).conj()
    return roots[(quad[None, :] + cross) % (2 * n)].sum(axis=1) / n


def _assert_direct_matches_modulo_formula(f):
    """The direct route is the exact-root sum up to one product per term and
    the order of the sum: within 2e-16 of the modulo formula (at most 9.7e-17
    measured up to N = 4001), which one wrong exponent is not."""
    got = direct_coefficients(f)[0]
    assert np.abs(got - _direct_modulo_reference(f)).max() <= 2e-16
    assert np.abs(got - _direct_modulo_reference(f, wrong_last_exponent=True)).max() > 2e-16


class TestDirectRoute:
    def test_parity_cat_coefficients(self):
        c = direct_coefficients(CoprimeFraction(1, 2))[0]
        root2 = math.sqrt(2)
        assert abs(c[0] - cmath.exp(-0.25j * math.pi) / root2) < 1e-15
        assert abs(c[1] - cmath.exp(0.25j * math.pi) / root2) < 1e-15

    def test_triangular_coefficient(self):
        assert abs(direct_coefficients(CoprimeFraction(1, 3))[0][2] - 1j / math.sqrt(3)) < 1e-15

    @given(coprime_fractions_st(n_max=40))
    def test_magnitude_law(self, f):
        assert np.abs(np.abs(direct_coefficients(f)[0]) - 1 / math.sqrt(f.N)).max() < 1e-10

    @given(coprime_fractions_st(n_max=40))
    def test_vectorized_matches_scalar(self, f):
        vec = direct_coefficients(f)[0]
        scalar = np.array([_direct_reference(f, k) for k in range(f.N)])
        assert np.abs(vec - scalar).max() < 1e-14

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 4), (7, 101), (199, 200),
                                      (100, 201), (5, 256), (250, 499), (499, 500)])
    def test_matches_modulo_formula(self, m, n):
        _assert_direct_matches_modulo_formula(CoprimeFraction(m, n))

    @pytest.mark.parametrize("n, count", [(12, None), (101, None), (200, None), (1031, 2)],
                             ids=["12", "101", "200", "1031"])
    def test_rows_of_one_denominator_match_single_calls(self, n, count):
        # 1031 takes two blocks of output indices
        fractions = [CoprimeFraction(m, n) for m in range(1, n) if math.gcd(m, n) == 1][:count]
        rows = direct_coefficients(*fractions)
        assert rows.shape == (len(fractions), n)
        for row, f in zip(rows, fractions):
            assert np.array_equal(row, direct_coefficients(f)[0])

    def test_block_split_moves_no_row_beyond_rounding(self, monkeypatch):
        # 15 blocks of output indices, the last of 3, against the one block
        # that N = 101 takes by default
        fractions = [CoprimeFraction(m, 101) for m in range(1, 101)]
        whole = direct_coefficients(*fractions)
        monkeypatch.setattr(gauss_sums, "_BLOCK_ENTRIES", 7 * 101)
        assert [s.stop - s.start for s in _k_blocks(101)] == [7] * 14 + [3]
        assert np.abs(direct_coefficients(*fractions) - whole).max() <= 2e-16

    @pytest.mark.parametrize("n, entries, blocks", [(101, None, 1), (101, 7 * 101, 15),
                                                    (1031, None, 2)])
    def test_products_in_place_keep_the_bits(self, monkeypatch, n, entries, blocks):
        # each block's product written into its row and one division at the end,
        # against w @ t / n per fraction and block
        if entries:
            monkeypatch.setattr(gauss_sums, "_BLOCK_ENTRIES", entries)
        assert len(list(_k_blocks(n))) == blocks
        fractions = [CoprimeFraction(m, n) for m in range(1, n) if math.gcd(m, n) == 1][:12]
        n, roots, terms = _targets(fractions)
        ell = np.arange(n, dtype=np.int64)
        want = np.empty(terms.shape, dtype=complex)
        for block in _k_blocks(n):
            w = roots[np.multiply.outer(-2 * ell[block], ell) % (2 * n)]
            for row, t in zip(want, terms):
                row[block] = w @ t / n
        assert direct_coefficients(*fractions).tobytes() == want.tobytes()

    def test_mixed_or_no_denominator_rejected(self):
        with pytest.raises(ValueError):
            direct_coefficients(CoprimeFraction(1, 3), CoprimeFraction(1, 4))
        with pytest.raises(ValueError):
            direct_coefficients()


class TestClosedRoute:
    def test_parity_cat_exact_phase(self):
        c = closed_coefficients(CoprimeFraction(1, 2))[0]
        assert c == ExactCoefficient(2, RationalAngle(7, 4))

    def test_compass_unit_coefficient(self):
        c = closed_coefficients(CoprimeFraction(3, 4))[3]
        assert c == ExactCoefficient(4, RationalAngle(0, 1))

    def test_even_numerator_branch(self):
        c = closed_coefficients(CoprimeFraction(2, 3))[1]
        assert c == ExactCoefficient(3, RationalAngle(3, 2))

    def test_odd_odd_branch(self):
        c = closed_coefficients(CoprimeFraction(1, 3))[0]
        assert c == ExactCoefficient(3, RationalAngle(11, 6))

    def test_closed_coefficients_matches_per_k(self):
        # every fraction in order, so most calls reuse the values of one N
        for f in coprime_fractions(60):
            want = [ExactCoefficient(f.N, RationalAngle(num, 4 * f.N))
                    for num in _closed_reference(f.M, f.N)]
            assert closed_coefficients(f) == want, f

    def test_values_shared_within_one_order(self):
        # 1/8 has 8 coefficients but 4 distinct values, each one object
        one = closed_coefficients(CoprimeFraction(1, 8))
        assert len(one) == 8 and len(set(one)) == len({id(c) for c in one}) == 4
        # nothing outlives a call: equal values, new objects
        again = closed_coefficients(CoprimeFraction(1, 8))
        assert again == one
        assert not any(a is b for a, b in zip(again, one))

    def test_one_fraction_per_call(self):
        with pytest.raises(TypeError):
            closed_coefficients(CoprimeFraction(1, 7), CoprimeFraction(2, 7))

    def test_one_call_builds_at_most_n_values(self, monkeypatch):
        # the closed route is exact: it evaluates no phase at all, and a value
        # is evaluated only when it is read
        evaluated = []
        original = gauss_sums.unit_phase

        def counted(nums, den):
            out = original(nums, den)
            evaluated.append(out.size)
            return out

        monkeypatch.setattr(gauss_sums, "unit_phase", counted)
        coeffs = closed_coefficients(CoprimeFraction(1, 4001))
        assert sum(evaluated) == 0
        assert abs(_coefficient_values(coeffs[:1])[0]) == pytest.approx(1 / math.sqrt(4001))
        assert sum(evaluated) == 1

    @given(coprime_fractions_st(n_max=60), st.integers(0, 59))
    def test_closed_matches_direct(self, f, k):
        k %= f.N
        want = direct_coefficients(f)[0][k]
        c = closed_coefficients(f)[k]
        got = _cmath_phase(c.phase.num, c.phase.den) / math.sqrt(c.inv_sqrt_n)
        assert abs(want - got) < 1e-12

    @pytest.mark.parametrize("m, n", [
        (12347, 20000),     # N even
        (99999, 100000),    # N even, M = N - 1
        (40000, 50021),     # N odd, M even
        (2, 99999),         # N odd, M even
        (3, 49999),         # N odd, M odd
        (77777, 99991),     # N odd, M odd
    ])
    def test_int64_numerators_match_python_integers(self, m, n):
        # 4*M*(d*k)^2 alone would overflow int64 near N = 5,000 without the
        # mod-2N reduction of d*k; compare every k against unbounded integers,
        # in one call with a partner of the other Jacobi sign and, for odd N,
        # the other parity of M, so that every row takes its own branch
        partner = next(p for p in range(1, n) if math.gcd(p, n) == 1
                       and _jacobi_of(p, n) != _jacobi_of(m, n) and (n % 2 == 0 or p % 2 != m % 2))
        got = _closed_numerators(CoprimeFraction(m, n), CoprimeFraction(partner, n)).tolist()
        assert got == [_closed_reference(m, n), _closed_reference(partner, n)]

    def test_batched_rows_match_python_integers(self):
        for n in range(2, 61):
            ms = [m for m in range(1, n) if math.gcd(m, n) == 1]
            got = _closed_numerators(*(CoprimeFraction(m, n) for m in ms))
            assert got.shape == (len(ms), n) and got.dtype == np.int64
            assert got.tolist() == [_closed_reference(m, n) for m in ms], n


def _numerator_rows(n):
    """The closed numerators of every M/N of one N, by M."""
    ms = [m for m in range(1, n) if math.gcd(m, n) == 1]
    return dict(zip(ms, _closed_numerators(*(CoprimeFraction(m, n) for m in ms))))


class TestClosedNumeratorRelations:
    """Exact relations between rows of the numerator table, from substitutions in the
    defining sum; they are integer equalities and do not go through its branches.

    M -> N-M conjugates the sum and re-indexes k, so num_k(N-M) = -num_k'(M) mod 8N with
    k' = (-k - [N even]*N/2) mod N; for even N, l -> s*l with s a unit mod N gives
    c_k(M) = c_k''(Ms^2 mod N), k'' = (ks + floor(Ms^2/N)*N/2) mod N.  A +1 in the odd-N
    shift of j breaks the first at 1,302 fractions and a dropped (-1)^(dj) term at 686.
    Neither relation sees a global half turn, nor so a Jacobi sign flipped for every
    fraction: both add 4N to every numerator.  Only a comparison with the defining sum in
    exact cyclotomic arithmetic would see those.
    """

    def test_mirror_fraction_is_the_conjugate_reindexed(self):
        count = 0
        for n in range(2, 80):
            rows = _numerator_rows(n)
            mirror = (-np.arange(n) - (0 if n % 2 else n // 2)) % n
            for m, row in rows.items():
                assert np.array_equal(rows[n - m], -row[mirror] % (8 * n)), (m, n)
                count += 1
        assert count == 1933

    def test_even_n_unit_substitution_permutes_the_row(self):
        count = 0
        for n in range(2, 80, 2):
            rows, k = _numerator_rows(n), np.arange(n)
            for m, row in rows.items():
                for s in rows:
                    q, r = divmod(m * s * s, n)
                    assert np.array_equal(row, rows[r][(k * s + q * (n // 2)) % n]), (m, s, n)
                    count += 1
        assert count == 13877


@pytest.mark.parametrize("route", [
    _closed_numerators, direct_coefficients, coefficients_by_inverse_dft,
    lambda *fractions: verify_forward_dft(*fractions, coefficients=np.zeros((2, 3)))])
def test_every_route_rejects_mixed_or_no_denominator(route):
    with pytest.raises(ValueError, match=r"^need fractions of one denominator, got \[3, 4\]$"):
        route(CoprimeFraction(1, 3), CoprimeFraction(1, 4))
    with pytest.raises(ValueError, match=r"^need fractions of one denominator, got \[\]$"):
        route()


def _dense_dft(n):
    """The whole N x N inverse-DFT matrix exp(-2*pi*i*k*l/N): the dense
    formula that the FFT routes must reproduce."""
    ell = np.arange(n, dtype=np.int64)
    return unit_phase(2 * (np.outer(ell, ell) % n), n).conj()


@pytest.mark.parametrize("m, n, blocks", [(1, 1031, 2), (3, 2048, 4), (2, 1725, 3)])
class TestMultiBlockRoutes:
    """Above N = 1024 the direct route takes several blocks of output indices k
    (the last one short at 1031 and 1725) and must equal its dense formula to
    within 2e-16; the FFT routes (a prime, a power of two and a composite N)
    must equal theirs to within 1e-15."""

    def test_block_count(self, m, n, blocks):
        slices = list(_k_blocks(n))
        assert len(slices) == blocks
        assert np.array_equal(np.concatenate([np.arange(n)[s] for s in slices]), np.arange(n))

    def test_direct(self, m, n, blocks):
        _assert_direct_matches_modulo_formula(CoprimeFraction(m, n))

    def test_inverse_dft(self, m, n, blocks):
        f = CoprimeFraction(m, n)
        _, _, targets = _targets((f,))
        want = (targets @ _dense_dft(n).T) / n
        assert np.abs(coefficients_by_inverse_dft(f) - want).max() <= 1e-15

    def test_forward_dft(self, m, n, blocks):
        # a unit row c = e_k sums to one row of the dense formula, exp(2*pi*i*k*j/N),
        # with no accumulated rounding, so the O(1) residuals compare well; the
        # ~1e-15 residual of the true coefficients would compare noise with noise
        f = CoprimeFraction(m, n)
        _, _, targets = _targets((f,))
        for k in (0, 1, n // 2, n - 1):
            c = np.zeros((1, n), dtype=complex)
            c[0, k] = 1.0
            want = np.abs(unit_phase(2 * k * np.arange(n), n) - targets).max(axis=1)
            assert np.abs(verify_forward_dft(f, coefficients=c) - want).max() <= 1e-15
        c = direct_coefficients(f)
        c[0, -1] += 0.1  # a fault in the last coefficient shows at every j
        assert verify_forward_dft(f, coefficients=c)[0] >= 0.05


def test_rows_of_one_denominator_across_blocks():
    # several fractions and several blocks: the direct rows are the single-call
    # rows exactly; the inverse-DFT rows to within rounding
    fractions = [CoprimeFraction(m, 1155) for m in range(1, 40) if math.gcd(m, 1155) == 1]
    direct = direct_coefficients(*fractions)
    idft = coefficients_by_inverse_dft(*fractions)
    for r, f in enumerate(fractions):
        assert np.array_equal(direct[r], direct_coefficients(f)[0])
        assert np.abs(idft[r] - coefficients_by_inverse_dft(f)[0]).max() < 1e-15


def _coeffs_json_2001():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["coeffs", "1", "2001", "--format", "json"]) == 0


def _traced_peak(call):
    """Peak traced allocation, in bytes, of one call at N = 2003."""
    tracemalloc.start()
    try:
        call(CoprimeFraction(1, 2003))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", [
    direct_coefficients,
    coefficients_by_inverse_dft,
    lambda f: verify_forward_dft(f, coefficients=np.ones((1, f.N), dtype=complex)),
    lambda f: _coeffs_json_2001(),
], ids=["direct", "inverse-dft", "forward-dft", "cli-coeffs"])
def test_one_call_stays_within_48_mb(call):
    # whole N x N tables at N = 2003 take 92-123 MB of traced allocations;
    # blocks of about 2^20 entries take about 24 MB whatever N is
    assert _traced_peak(call) < 48 * 2**20


def test_one_direct_call_stays_within_28_mb():
    # a block of 523 x 2003 exact roots (16.8 MB) and its int64 exponents
    # (8.4 MB), one block at a time: about 24 MB; one more int64 table per
    # block, such as the quadratic exponents added to the cross ones, or a
    # second block alive while the next is built, takes 32-40 MB
    assert _traced_peak(direct_coefficients) < 28 * 2**20


@pytest.mark.parametrize("call", [
    coefficients_by_inverse_dft,
    lambda f: verify_forward_dft(f, coefficients=np.ones((1, f.N), dtype=complex)),
], ids=["inverse-dft", "forward-dft"])
def test_one_dft_call_stays_within_2_mb(call):
    # an FFT holds a few rows of N complex numbers, about 0.2 MB at N = 2003
    assert _traced_peak(call) <= 2 * 2**20


class TestAlternatingSum:
    """The sum over l of (-1)^l exp(-i*pi*m*l^2/n) for coprime odd m, n, the
    sum behind the odd-odd closed form, evaluated through unit_phase with
    the sign folded into the numerator as n*l."""

    @staticmethod
    def _alternating(m, n):
        ell = np.arange(n, dtype=np.int64)
        return unit_phase(-(m * ell * ell + n * ell), n).sum()

    def test_single_term(self):
        assert self._alternating(1, 1) == 1.0 + 0.0j

    @pytest.mark.parametrize("m, n", [(1, 3), (3, 5), (5, 9), (7, 11)])
    def test_modulus_is_sqrt_n(self, m, n):
        assert abs(abs(self._alternating(m, n)) - math.sqrt(n)) < 1e-12
