"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one pass/fail line per criterion (visible with ``pytest -s``)
and asserts the measured value.  The same checks back ``gausscat verify``.

  1. exact reproduction of the hand-derived reference states
  2. triple-route coefficient agreement over all coprime M/N, N <= 200,
     and the magnitude law N*|c_k|^2 = 1 on the direct sums
  3. forward DFT identity over the same sweep
  4. Fock eigen-equation residual, N <= 12, three amplitudes, dim 64
  5. series vs. superposition equivalence over the same sweep
  6. operator identities: lowering-power, Kerr (vector and matrix), and
     time evolution
  7. kernel spectral property of the fractional Fourier transform
  8. integro-differential residual, including the parity functional equation
  9. closed-form cat wavefunctions against their superpositions
"""

import pytest

from gausscat.verify import (
    TOLERANCES,
    CheckResult,
    VerifyConfig,
    check_cat_wavefunctions,
    check_coefficient_routes,
    check_eigen_equation,
    check_golden_states,
    check_integro_differential,
    check_kernel_spectral,
    check_kerr,
    check_lowering_power,
    check_series_vs_superposition,
    check_time_evolution,
)

CFG = VerifyConfig()

# The value of each default check as measured (CI's "Verify report" step prints
# them the same way, as float.hex).  A value may rise to 100 times its floor,
# since the residuals sit orders below their tolerances; so the exact zeros
# must stay 0.
FLOORS = {
    "golden-states-exact": "0x0.0p+0",
    "closed-vs-direct": "0x1.11687a8ae14a3p-53",
    "closed-vs-inverse-dft": "0x1.94c583ada5b53p-53",
    "closed-magnitude-exact": "0x0.0p+0",
    "forward-dft-identity": "0x1.0b5f559265fd0p-49",
    "eigen-equation": "0x1.f6760be45a3f9p-52",
    "series-vs-superposition": "0x1.2e63cd885bd61p-51",
    "lowering-power-identity": "0x0.0p+0",
    "kerr-vector-identity": "0x0.0p+0",
    "kerr-matrix-identity": "0x1.6a09e667f3bcdp-52",
    "time-evolution": "0x1.6414f28c8c61bp-50",
    "kernel-spectral": "0x1.dbd2f298503a0p-49",
    "integro-differential": "0x1.0a4b06be193b8p-49",
    "integro-differential-parity": "0x1.1800000000000p-48",
    "cat-wavefunction-parity": "0x1.99ccc999fff00p-52",
    "cat-wavefunction-fourier": "0x1.060dad910e74dp-51",
}
FLOOR_FACTOR = 100


def _assert_and_report(criterion: int, results: list) -> None:
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[acceptance] criterion {criterion}: {status} {r.name} "
              f"value={r.value:.3e} tolerance={r.tolerance:.1e} ({r.detail})")
    failed = [r for r in results if not r.passed]
    assert not failed, f"criterion {criterion} failed: " + ", ".join(
        f"{r.name}: {r.value:.3e} > {r.tolerance:.1e}" for r in failed)
    risen = [r for r in results if not r.value <= FLOOR_FACTOR * float.fromhex(FLOORS[r.name])]
    assert not risen, f"criterion {criterion} rose above {FLOOR_FACTOR}x its floor: " + ", ".join(
        f"{r.name}: {r.value:.3e} > {FLOOR_FACTOR} x {float.fromhex(FLOORS[r.name]):.3e}"
        for r in risen)


def test_floor_table_names_every_check():
    assert FLOORS.keys() == TOLERANCES.keys()


@pytest.mark.parametrize("name, value", [
    ("closed-vs-direct", 101 * float.fromhex(FLOORS["closed-vs-direct"])),
    ("lowering-power-identity", 5e-324),
], ids=["101x-floor", "nonzero-exact-zero"])
def test_a_value_within_tolerance_above_its_floor_fails(name, value):
    result = CheckResult("gauss", name, value, TOLERANCES[name], value <= TOLERANCES[name])
    with pytest.raises(AssertionError, match=f"100x its floor: {name}"):
        _assert_and_report(0, [result])


@pytest.fixture(scope="module")
def coefficient_sweep():
    """The N <= 200 sweep backing criteria 2 and 3 (run once)."""
    return {r.name: r for r in check_coefficient_routes(CFG)}


def test_criterion_1_golden_states():
    _assert_and_report(1, check_golden_states(CFG))


def test_criterion_2_triple_route_agreement(coefficient_sweep):
    _assert_and_report(2, [
        coefficient_sweep["closed-vs-direct"],
        coefficient_sweep["closed-vs-inverse-dft"],
        coefficient_sweep["closed-magnitude-exact"],
    ])


def test_criterion_3_forward_dft_identity(coefficient_sweep):
    _assert_and_report(3, [coefficient_sweep["forward-dft-identity"]])


def test_criterion_4_fock_eigen_equation():
    _assert_and_report(4, check_eigen_equation(CFG))


def test_criterion_5_series_vs_superposition():
    _assert_and_report(5, check_series_vs_superposition(CFG))


def test_criterion_6_operator_identities():
    _assert_and_report(6, check_lowering_power(CFG) + check_kerr(CFG) + check_time_evolution(CFG))


def test_criterion_7_kernel_spectral():
    _assert_and_report(7, check_kernel_spectral(CFG))


def test_criterion_8_integro_differential():
    _assert_and_report(8, check_integro_differential(CFG))


def test_criterion_9_cat_wavefunction_oracles():
    _assert_and_report(9, check_cat_wavefunctions(CFG))
