"""The verify harness itself: every check is reduced by one sweep, which
must fail on a NaN residual and on a sweep that covers no case."""

import dataclasses
import math

import numpy as np
import pytest

import gausscat
from gausscat import fock, gauss_sums, superposition, verify, wavefunc
from gausscat.gauss_sums import CoprimeFraction, RationalAngle
from gausscat.verify import VerifyConfig, run_checks

SMALL = VerifyConfig(coeff_n_max=12, fock_n_max=4)


class TestSweep:
    def test_worst_of_each_column_and_case_count(self):
        rows = [(1e-16, 0), (3e-16, 0), (2e-16, 0)]
        direct, magnitude = verify._sweep(
            "gauss", ["closed-vs-direct", "closed-magnitude-exact"], rows,
            "{cases} fractions, N <= 3")
        assert (direct.value, magnitude.value) == (3e-16, 0.0)
        assert direct.passed and magnitude.passed
        assert direct.detail == "3 fractions, N <= 3"

    def test_blocks_of_rows_count_each_row(self):
        rows = [np.array([[1e-16, 0], [3e-16, 0]]), (2e-16, 1), np.empty((0, 2))]
        direct, magnitude = verify._sweep(
            "gauss", ["closed-vs-direct", "closed-magnitude-exact"], rows, "{cases} fractions")
        assert (direct.value, magnitude.value) == (3e-16, 1.0)
        assert direct.passed and not magnitude.passed
        assert direct.detail == "3 fractions"

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_nan_in_any_case_fails(self, row):
        rows = [[1e-16], [1e-16], [1e-16]]
        rows[row][0] = math.nan
        (result,) = verify._sweep("fock", ["eigen-equation"], rows, "")
        assert math.isnan(result.value) and not result.passed

    def test_no_cases_fails(self):
        (result,) = verify._sweep("fock", ["eigen-equation"], [], "{cases} cases")
        assert result.value == math.inf and not result.passed
        assert result.detail == "0 cases"


def _nan_at_call(monkeypatch, module, name, call, corrupt):
    """Replace module.name so that its call-th call returns corrupt(result)."""
    original = getattr(module, name)
    calls = []

    def planted(*args, **kwargs):
        calls.append(None)
        out = original(*args, **kwargs)
        return corrupt(out) if len(calls) == call else out

    monkeypatch.setattr(module, name, planted)
    return calls


class TestNanFails:
    def test_nan_eigen_residual_fails_eigen_equation(self, monkeypatch):
        calls = _nan_at_call(monkeypatch, fock, "eigen_residual", 5, lambda _: math.nan)
        (result,) = [r for r in run_checks(SMALL, ["fock"]) if r.name == "eigen-equation"]
        assert len(calls) > 5
        assert not result.passed

    def test_nan_direct_row_fails_closed_vs_direct(self, monkeypatch):
        def corrupt(values):
            values = values.copy()
            values[1] = complex(math.nan, 0.0)
            return values

        _nan_at_call(monkeypatch, verify, "direct_coefficients", 7, corrupt)
        results = {r.name: r for r in run_checks(SMALL, ["gauss"])}
        assert not results["closed-vs-direct"].passed
        assert results["closed-vs-inverse-dft"].passed


class TestWrongClosedValueFails:
    def test_one_phase_beyond_the_golden_table(self, monkeypatch):
        # the closed values are shared per N; a wrong one in the list the
        # sweep gets must still turn the check red
        target = CoprimeFraction(7, 101)
        original = verify.closed_coefficients

        def planted(f):
            coeffs = original(f)
            if f == target:
                c = coeffs[3]
                coeffs[3] = dataclasses.replace(
                    c, phase=RationalAngle(c.phase.num + 1, c.phase.den))
            return coeffs

        monkeypatch.setattr(verify, "closed_coefficients", planted)
        results = {r.name: r for r in run_checks(VerifyConfig(coeff_n_max=101), ["gauss"])}
        assert not results["closed-vs-direct"].passed
        assert results["closed-magnitude-exact"].passed
        assert results["golden-states-exact"].passed


def _gauss_results(monkeypatch, name, planted):
    """The gauss group at N <= 12 with verify.name replaced by planted(original)."""
    monkeypatch.setattr(verify, name, planted(getattr(verify, name)))
    return {r.name: r for r in run_checks(VerifyConfig(coeff_n_max=12), ["gauss"])}


class TestRouteFaultsFail:
    """One semantic fault per route check; each must turn its check red."""

    def test_unnormalised_inverse_dft_fails_closed_vs_inverse_dft(self, monkeypatch):
        def planted(original):
            return lambda *fractions: original(*fractions) * fractions[0].N

        results = _gauss_results(monkeypatch, "coefficients_by_inverse_dft", planted)
        assert not results["closed-vs-inverse-dft"].passed
        assert results["closed-vs-direct"].passed

    def test_flipped_twiddle_sign_fails_forward_dft_identity(self, monkeypatch):
        # sum_k c_k exp(-2 pi i k n/N) is the forward sum over c_{-k mod N}
        def flip(c):
            if not isinstance(c, np.ndarray):
                return c
            return c[..., -np.arange(c.shape[-1]) % c.shape[-1]]

        def planted(original):
            return lambda *args, **kwargs: original(
                *map(flip, args), **{k: flip(v) for k, v in kwargs.items()})

        results = _gauss_results(monkeypatch, "verify_forward_dft", planted)
        assert not results["forward-dft-identity"].passed
        assert results["closed-vs-inverse-dft"].passed

    def test_wrong_magnitude_fails_closed_magnitude_exact(self, monkeypatch):
        target = CoprimeFraction(5, 11)

        def planted(original):
            def closed(f):
                coeffs = original(f)
                if f == target:
                    coeffs[3] = dataclasses.replace(coeffs[3], inv_sqrt_n=f.N + 1)
                return coeffs
            return closed

        results = _gauss_results(monkeypatch, "closed_coefficients", planted)
        assert results["closed-magnitude-exact"].value == 1.0
        assert not results["closed-magnitude-exact"].passed
        assert results["golden-states-exact"].passed


class TestValuesEvaluatedOnce:
    def test_gauss_sweep_evaluates_each_shared_value_once(self, monkeypatch):
        # one complex evaluation per distinct closed value of each N, plus at
        # most two per golden coefficient (the reference and the built one)
        cfg = VerifyConfig(coeff_n_max=60)
        distinct = sum(
            len(set().union(*(gauss_sums._closed_numerators(CoprimeFraction(m, n)).tolist()
                              for m in range(1, n) if math.gcd(m, n) == 1)))
            for n in range(2, cfg.coeff_n_max + 1))
        golden = sum(2 * f.N for f, _ in superposition.reference_state_table())
        calls = []
        original = RationalAngle.to_complex

        def counted(self):
            calls.append(None)
            return original(self)

        monkeypatch.setattr(RationalAngle, "to_complex", counted)
        assert all(r.passed for r in run_checks(cfg, ["gauss"]))
        assert 0 < len(calls) <= distinct + golden


class TestNoCasesFails:
    def test_coefficient_sweep_over_no_fraction(self):
        results = {r.name: r for r in run_checks(VerifyConfig(coeff_n_max=1), ["gauss"])}
        assert results.pop("golden-states-exact").passed
        assert len(results) == 4
        for r in results.values():
            assert r.value == math.inf and not r.passed, r
            assert r.detail == "0 fractions, N <= 1"

    def test_fock_sweeps_over_no_fraction(self):
        results = {r.name: r for r in run_checks(VerifyConfig(fock_n_max=1), ["fock"])}
        # the lowering-power sweep runs to power_n_max instead
        assert results.pop("lowering-power-identity").passed
        assert len(results) == 5
        assert not any(r.passed for r in results.values())


@pytest.mark.parametrize("module", [gauss_sums, superposition, fock, wavefunc, verify])
def test_package_exports_every_public_name(module):
    for name in module.__all__:
        assert getattr(gausscat, name) is getattr(module, name), name
    assert set(module.__all__) <= set(gausscat.__all__)

