"""Unit tests for the exact phase carrier and the Gauss-sum routes."""

import cmath
import contextlib
import dataclasses
import io
import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from gausscat import cli
from gausscat.gauss_sums import (
    CoprimeFraction,
    ExactCoefficient,
    RationalAngle,
    _closed_numerators,
    _k_blocks,
    _quadratic_numerators,
    closed_coefficients,
    direct_coefficients,
    jacobi_symbol,
    mod_inverse,
    unit_phase,
)
from gausscat.superposition import coefficients_by_inverse_dft, verify_forward_dft
from gausscat.verify import coprime_fractions


@st.composite
def coprime_fractions_st(draw, n_max=60):
    n = draw(st.integers(min_value=2, max_value=n_max))
    m = draw(st.sampled_from([m for m in range(1, n) if math.gcd(m, n) == 1]))
    return CoprimeFraction(m, n)


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
        a, b = RationalAngle(n1, d1), RationalAngle(n2, d2)
        assert abs((a + b).to_complex() - a.to_complex() * b.to_complex()) < 1e-12

    def test_quarter_turns_are_exact(self):
        assert RationalAngle(0, 1).to_complex() == 1.0 + 0.0j
        assert RationalAngle(1, 1).to_complex() == -1.0 + 0.0j
        assert RationalAngle(1, 2).to_complex() == 1.0j
        assert RationalAngle(3, 2).to_complex() == -1.0j

    def test_scaled_and_negated(self):
        # integer multiples and negatives are built from the numerator
        a, b = RationalAngle(1, 4), RationalAngle(1, 3)
        assert RationalAngle(a.num * 3, a.den) == RationalAngle(3, 4)
        assert RationalAngle(-a.num, a.den) == RationalAngle(7, 4)
        assert b + RationalAngle(-b.num, b.den) == RationalAngle(0, 1)

    def test_str(self):
        assert str(RationalAngle(0, 1)) == "0"
        assert str(RationalAngle(1, 1)) == "π"
        assert str(RationalAngle(1, 2)) == "π/2"
        assert str(RationalAngle(-1, 4)) == "7π/4"


class TestExactCoefficient:
    def test_magnitude_and_value(self):
        c = ExactCoefficient(2, RationalAngle(7, 4))
        assert abs(abs(c.value) - 1 / math.sqrt(2)) < 1e-15
        assert abs(c.value - cmath.exp(-0.25j * math.pi) / math.sqrt(2)) < 1e-15

    def test_value_takes_no_part_in_equality_or_hash(self):
        folded = ExactCoefficient(5, RationalAngle(-1, 1))
        plain = ExactCoefficient(5, RationalAngle(1, 1))
        assert folded == plain and hash(folded) == hash(plain)
        assert folded.value == plain.value == -1 / math.sqrt(5)
        assert "value" not in repr(folded)
        with pytest.raises(TypeError):
            ExactCoefficient(5, RationalAngle(0, 1), value=1.0)

    def test_replace_recomputes_value(self):
        c = ExactCoefficient(3, RationalAngle(1, 6))
        moved = dataclasses.replace(c, phase=RationalAngle(3, 2))
        assert moved.value == -1j / math.sqrt(3)
        assert moved.value != c.value
        assert dataclasses.replace(moved, inv_sqrt_n=4).value == -0.5j

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


class TestUnitPhase:
    @given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=40),
           st.integers(1, 500))
    def test_matches_exact_scalar_phase(self, nums, den):
        # numerators far outside [0, 2*den), negative ones included
        want = np.array([RationalAngle(num, den).to_complex() for num in nums])
        assert np.abs(unit_phase(nums, den) - want).max() < 5e-15


def _direct_reference(f, k):
    """The defining sum term by term, each exponent reduced exactly as a
    RationalAngle before its complex evaluation."""
    m, n = f.M, f.N
    total = 0.0 + 0.0j
    for ell in range(n):
        quad = m * ell * ell if f.n_even else m * ell * (ell - 1)
        total += RationalAngle(-(quad + 2 * k * ell), n).to_complex()
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


def _direct_modulo_reference(f):
    """The direct sum as first vectorized: exponents reduced mod 2N once more
    after adding the quadratic and cross terms, and one period of roots."""
    m, n = f.M, f.N
    ell = np.arange(n, dtype=np.int64)
    quad = (m * ell * ell) % (2 * n) if f.n_even else (m * ell * (ell - 1)) % (2 * n)
    cross = (2 * np.outer(ell, ell)) % (2 * n)
    roots = unit_phase(np.arange(2 * n), n).conj()
    return roots[(quad[None, :] + cross) % (2 * n)].sum(axis=1) / n


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
    def test_bit_identical_to_modulo_formula(self, m, n):
        f = CoprimeFraction(m, n)
        assert np.array_equal(direct_coefficients(f)[0], _direct_modulo_reference(f))


    @pytest.mark.parametrize("n", [12, 101, 200])
    def test_rows_of_one_denominator_match_single_calls(self, n):
        fractions = [CoprimeFraction(m, n) for m in range(1, n) if math.gcd(m, n) == 1]
        rows = direct_coefficients(*fractions)
        assert rows.shape == (len(fractions), n)
        for row, f in zip(rows, fractions):
            assert np.array_equal(row, direct_coefficients(f)[0])

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
        one, two = CoprimeFraction(1, 7), CoprimeFraction(2, 7)
        both = closed_coefficients(one, two)
        pairs = [(a, b) for a in both[:7] for b in both[7:] if a == b]
        assert pairs and all(a is b for a, b in pairs)
        # nothing outlives a call: equal values, new objects
        again = closed_coefficients(one)
        assert again == both[:7]
        assert not any(a is b for a, b in zip(again, both))

    def test_one_call_builds_at_most_n_values(self, monkeypatch):
        calls = []
        original = RationalAngle.to_complex

        def counted(self):
            calls.append(None)
            return original(self)

        monkeypatch.setattr(RationalAngle, "to_complex", counted)
        f = CoprimeFraction(1, 4001)
        closed_coefficients(f)
        assert 0 < len(calls) <= f.N

    @pytest.mark.parametrize("n", [12, 101, 200])
    def test_rows_of_one_denominator_match_single_calls(self, n):
        fractions = [CoprimeFraction(m, n) for m in range(1, n) if math.gcd(m, n) == 1]
        flat = closed_coefficients(*fractions)
        assert len(flat) == len(fractions) * n
        for r, f in enumerate(fractions):
            assert flat[r * n:(r + 1) * n] == closed_coefficients(f)

    @given(coprime_fractions_st(n_max=60), st.integers(0, 59))
    def test_closed_matches_direct(self, f, k):
        k %= f.N
        want = direct_coefficients(f)[0][k]
        got = closed_coefficients(f)[k].value
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
        # mod-2N reduction of d*k; compare every k against unbounded integers
        f = CoprimeFraction(m, n)
        got = _closed_numerators(f).tolist()
        assert got == _closed_reference(m, n)


@pytest.mark.parametrize("route", [
    closed_coefficients, direct_coefficients, coefficients_by_inverse_dft,
    lambda *fractions: verify_forward_dft(*fractions, coefficients=np.zeros((2, 3)))])
def test_every_route_rejects_mixed_or_no_denominator(route):
    with pytest.raises(ValueError, match=r"^need fractions of one denominator, got \[3, 4\]$"):
        route(CoprimeFraction(1, 3), CoprimeFraction(1, 4))
    with pytest.raises(ValueError, match=r"^need fractions of one denominator, got \[\]$"):
        route()


def _dense_dft(n):
    """The whole N x N inverse-DFT matrix exp(-2*pi*i*k*l/N): the dense
    formula that the blocked routes must reproduce."""
    ell = np.arange(n, dtype=np.int64)
    return unit_phase(2 * (np.outer(ell, ell) % n), n).conj()


@pytest.mark.parametrize("m, n, blocks", [(1, 1031, 2), (3, 2048, 4), (2, 1725, 3)])
class TestMultiBlockRoutes:
    """Above N = 1024 the O(N^2) routes take several blocks of output indices k
    (the last one short at 1031 and 1725); each must equal its dense formula
    bit for bit."""

    def test_block_count(self, m, n, blocks):
        slices = list(_k_blocks(n))
        assert len(slices) == blocks
        assert np.array_equal(np.concatenate([np.arange(n)[s] for s in slices]), np.arange(n))

    def test_direct(self, m, n, blocks):
        f = CoprimeFraction(m, n)
        assert np.array_equal(direct_coefficients(f)[0], _direct_modulo_reference(f))

    def test_inverse_dft(self, m, n, blocks):
        f = CoprimeFraction(m, n)
        _, quad = _quadratic_numerators((f,))
        targets = unit_phase(-quad, n)
        assert np.array_equal(coefficients_by_inverse_dft(f), (targets @ _dense_dft(n).T) / n)

    def test_forward_dft(self, m, n, blocks):
        f = CoprimeFraction(m, n)
        _, quad = _quadratic_numerators((f,))
        targets = unit_phase(-quad, n)
        c = direct_coefficients(f)
        want = np.abs(c @ _dense_dft(n).conj().T - targets).max(axis=1)
        assert np.array_equal(verify_forward_dft(f, coefficients=c), want)
        c[0, -1] += 0.1  # a fault in the last block's coefficient shows at every j
        assert verify_forward_dft(f, coefficients=c)[0] >= 0.05


def test_rows_of_one_denominator_across_blocks():
    # several fractions and several blocks: the direct rows are the single-call
    # rows exactly; the inverse-DFT matrix product may round its columns differently
    fractions = [CoprimeFraction(m, 1155) for m in range(1, 40) if math.gcd(m, 1155) == 1]
    direct = direct_coefficients(*fractions)
    idft = coefficients_by_inverse_dft(*fractions)
    for r, f in enumerate(fractions):
        assert np.array_equal(direct[r], direct_coefficients(f)[0])
        assert np.abs(idft[r] - coefficients_by_inverse_dft(f)[0]).max() < 1e-15


def _coeffs_json_2001():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["coeffs", "1", "2001", "--format", "json"]) == 0


@pytest.mark.parametrize("call", [
    direct_coefficients,
    coefficients_by_inverse_dft,
    lambda f: verify_forward_dft(f, coefficients=np.ones((1, f.N), dtype=complex)),
    lambda f: _coeffs_json_2001(),
], ids=["direct", "inverse-dft", "forward-dft", "cli-coeffs"])
def test_one_call_stays_within_48_mb(call):
    # whole N x N tables at N = 2003 take 92-123 MB of traced allocations;
    # blocks of about 2^20 entries take about 32 MB whatever N is
    f = CoprimeFraction(1, 2003)
    tracemalloc.start()
    try:
        call(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


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
