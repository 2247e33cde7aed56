"""The verify harness itself: every check is reduced by one sweep, which
must fail on a NaN residual and on a sweep that covers no case."""

import math

import pytest

import gausscat
from gausscat import fock, gauss_sums, superposition, verify, wavefunc
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

