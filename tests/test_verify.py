"""The verify harness itself: every check is reduced by one sweep, which
must fail on a NaN residual and on a sweep that covers no case."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

import gausscat
from gausscat import fock, gauss_sums, superposition, verify, wavefunc
from gausscat.gauss_sums import CoprimeFraction
from gausscat.verify import VerifyConfig, run_checks
from gausscat.wavefunc import GridSpec

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
        # one numerator wrong, of 7/101 at k = 3, in the table the sweep reads;
        # the golden descriptors read their own rows and stay right
        original, target = verify._closed_numerators, CoprimeFraction(7, 101)

        def planted(*fractions):
            table = original(*fractions)
            if target in fractions:
                table[fractions.index(target), 3] += 1
            return table

        monkeypatch.setattr(verify, "_closed_numerators", planted)
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
        # the direct row of 5/11 scaled by sqrt(2): N*|c_k|^2 = 2 at all 11 k
        target = CoprimeFraction(5, 11)

        def planted(original):
            def scaled(*fractions):
                rows = original(*fractions)
                if target in fractions:
                    rows[fractions.index(target)] *= math.sqrt(2.0)
                return rows
            return scaled

        results = _gauss_results(monkeypatch, "direct_coefficients", planted)
        assert results["closed-magnitude-exact"].value == 11.0
        assert not results["closed-magnitude-exact"].passed
        assert results["golden-states-exact"].passed


WAVE_SMALL = dataclasses.replace(SMALL, grid=GridSpec(10.0, 401), spectral_n_max=6,
                                 cat_x_points=121, dim=32)
HALF, QUARTER = CoprimeFraction(1, 2), CoprimeFraction(1, 4)


def _no_even_shift(original):
    # build_descriptor's rotation row 4k, without the pi*M/N shift of even N
    return lambda f: dataclasses.replace(original(f), rotations=tuple(range(0, 4 * f.N, 4)))


def _flipped_rotation(original):
    # unit_phase(+2Mn, N) in place of unit_phase(-2Mn, N)
    return lambda f, dim: original(f, dim).conj()


def _odd_levels(original):
    # e^{-itn} instead of e^{-it(n + 1/2)}
    def pairs(alpha, f, times, dim):
        return ((t, evolved * cmath.exp(0.5j * t), rotated)
                for t, evolved, rotated in original(alpha, f, times, dim))
    return pairs


def _kerr_plus(original):
    def diagonal(f, dim):
        n = np.arange(dim, dtype=np.int64)
        return gauss_sums.unit_phase(f.M * n * (n + 1), f.N)
    return diagonal


# One semantic fault per check that the route faults above leave out:
# (check, group, module, function, fault(original) -> replacement).
MUTATIONS = [
    ("golden-states-exact", "gauss", verify, "build_descriptor", _no_even_shift),
    ("eigen-equation", "fock", fock, "rotation_diagonal", _flipped_rotation),
    ("series-vs-superposition", "fock", verify, "build_descriptor", _no_even_shift),
    ("lowering-power-identity", "fock", fock, "mu_factor",
     lambda original: lambda f: -original(f)),
    ("kerr-vector-identity", "fock", fock, "kerr_diagonal", _kerr_plus),
    ("kerr-matrix-identity", "fock", fock, "rotation_diagonal", _flipped_rotation),
    ("time-evolution", "fock", fock, "_evolved_pairs", _odd_levels),
    ("kernel-spectral", "wavefunc", wavefunc, "mehler_kernel",
     lambda original: lambda x, y, phi: -original(x, y, phi)),
    ("integro-differential", "wavefunc", wavefunc, "frac_fourier",
     lambda original: lambda ws, phi: original(ws, -phi)),
    # conjugating the 1/2 series is no fault: M = -1 is 1 mod 2
    ("integro-differential-parity", "wavefunc", wavefunc, "kitten_vector_series",
     lambda original: lambda alpha, f, dim: original(alpha, QUARTER if f == HALF else f, dim)),
    ("cat-wavefunction-parity", "wavefunc", wavefunc, "psi_cat_P",
     lambda original: lambda alpha, x: original(alpha, -np.asarray(x))),
    # the inverse-Fourier mirror, built on the captured original (the module's
    # own psi_cat_F_inverse would call the replacement)
    ("cat-wavefunction-fourier", "wavefunc", wavefunc, "psi_cat_F",
     lambda original: lambda alpha, x: np.conj(original(complex(alpha).conjugate(), x))),
]


class TestMutationMatrix:
    """With TestRouteFaultsFail, a planted semantic fault turns each of the
    16 checks red; without one, the small configurations pass."""

    @staticmethod
    def _results(group):
        cfg = WAVE_SMALL if group == "wavefunc" else SMALL
        return {r.name: r for r in run_checks(cfg, [group])}

    @pytest.mark.parametrize("group", verify.GROUPS)
    def test_small_configs_pass_without_a_fault(self, group):
        assert all(r.passed for r in self._results(group).values())

    @pytest.mark.parametrize("check, group, module, name, fault", MUTATIONS,
                             ids=[m[0] for m in MUTATIONS])
    def test_planted_fault_turns_its_check_red(self, monkeypatch, check, group, module,
                                               name, fault):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        result = self._results(group)[check]
        assert not result.passed, result

    def test_one_ulp_on_one_series_phase_turns_kerr_vector_red(self, monkeypatch):
        # a norm of the two coherent-weighted vectors reads 1.27e-16 here and passes
        original = fock._series_phases

        def nudged(f, dim):
            phases = original(f, dim)
            phases[3] = complex(np.nextafter(phases[3].real, 2.0), phases[3].imag)
            return phases

        monkeypatch.setattr(fock, "_series_phases", nudged)
        results = self._results("fock")
        assert not results["kerr-vector-identity"].passed
        assert results["kerr-matrix-identity"].passed

    def _scaled_superposition(self, monkeypatch, fraction):
        """The wavefunc group with a factor 1 + 1e-9 on the superposition of
        ``fraction`` alone."""
        original = wavefunc.superposition_wavefunction

        def scaled(alpha, desc, x):
            out = original(alpha, desc, x)
            return out * (1 + 1e-9) if desc.fraction == fraction else out

        monkeypatch.setattr(wavefunc, "superposition_wavefunction", scaled)
        return self._results("wavefunc")

    def test_scaled_fourier_superposition_turns_cat_fourier_red(self, monkeypatch):
        # the 3/4 superposition, which a constant fitted at x = 0 would absorb;
        # the parity cat is untouched
        results = self._scaled_superposition(monkeypatch, CoprimeFraction(3, 4))
        assert not results["cat-wavefunction-fourier"].passed
        assert results["cat-wavefunction-parity"].passed

    def test_scaled_inverse_fourier_superposition_turns_cat_fourier_red(self, monkeypatch):
        # the 1/4 superposition, the one psi_cat_F_inverse closes
        results = self._scaled_superposition(monkeypatch, CoprimeFraction(1, 4))
        assert not results["cat-wavefunction-fourier"].passed
        assert results["cat-wavefunction-parity"].passed


class TestSharedTransform:
    """kernel-spectral and integro-differential measure one trapezoid transform,
    and only integro-differential goes through the public frac_fourier."""

    def test_fault_in_the_transform_fails_both_checks(self, monkeypatch):
        original = wavefunc._trapezoid_transform
        monkeypatch.setattr(wavefunc, "_trapezoid_transform",
                            lambda grid, values, phi: original(grid, values, -phi))
        results = {r.name: r for r in run_checks(WAVE_SMALL, ["wavefunc"])}
        assert not results["kernel-spectral"].passed
        assert not results["integro-differential"].passed

    def test_fault_in_the_first_frac_fourier_output_fails_integro_differential(
            self, monkeypatch):
        # the benchmark's frac-fourier-value fault: +1e-3 at the middle sample
        # of the first frac_fourier output only
        def corrupt(sample):
            values = sample.values.copy()
            values[values.size // 2] += 1e-3
            return dataclasses.replace(sample, values=values)

        _nan_at_call(monkeypatch, wavefunc, "frac_fourier", 1, corrupt)
        results = {r.name: r for r in run_checks(WAVE_SMALL, ["wavefunc"])}
        assert not results["integro-differential"].passed
        assert results["kernel-spectral"].passed

    def test_one_kernel_row_per_transform(self, monkeypatch):
        # the normalization comes from mehler_kernel on every transform, as one
        # row of P entries: 4 spectral angles and 3 fractions, the parity case
        # being a reversal.  perfbench/tracer.py reports mehler_kernel's
        # per-layer metrics only when it is called.
        original = wavefunc.mehler_kernel
        sizes = []

        def counted(x, y, phi):
            sizes.append(np.broadcast(x, y).size)
            return original(x, y, phi)

        monkeypatch.setattr(wavefunc, "mehler_kernel", counted)
        run_checks(WAVE_SMALL, ["wavefunc"])
        assert len(sizes) == len(verify.SPECTRAL_ANGLES) + len(verify.GENEQ_FRACTIONS) == 7
        assert max(sizes) <= WAVE_SMALL.grid.points


class TestValuesEvaluatedOnce:
    def test_gauss_sweep_evaluates_each_shared_value_once(self, monkeypatch):
        # the values passed to unit_phase: the whole closed table of each N,
        # phi(N) rows of N, and the one table of 2N roots that _targets builds
        # for each of the three other routes per N; the golden descriptors are
        # compared as exact phases and evaluate nothing
        cfg = VerifyConfig(coeff_n_max=60)
        closed = sum(sum(math.gcd(m, n) == 1 for m in range(1, n)) * n
                     for n in range(2, cfg.coeff_n_max + 1))
        roots = sum(3 * 2 * n for n in range(2, cfg.coeff_n_max + 1))
        evaluated = []
        original = gauss_sums.unit_phase

        def counted(nums, den):
            out = original(nums, den)
            evaluated.append(out.size)
            return out

        for module in (gauss_sums, verify):
            monkeypatch.setattr(module, "unit_phase", counted)
        assert all(r.passed for r in run_checks(cfg, ["gauss"]))
        assert sum(evaluated) == closed + roots


class TestClosedRouteBatched:
    def test_sweep_builds_no_flat_closed_list(self, monkeypatch):
        # the sweep evaluates the closed table itself; only the golden
        # descriptors still ask for exact objects
        original = gauss_sums.closed_coefficients
        items = []

        def counted(*fractions):
            out = original(*fractions)
            items.append(len(out))
            return out

        for module in (gauss_sums, superposition, verify):
            monkeypatch.setattr(module, "closed_coefficients", counted)
        golden = sum(f.N for f, _ in superposition.reference_state_table())
        assert golden == 36
        assert all(r.passed for r in run_checks(VerifyConfig(coeff_n_max=60), ["gauss"]))
        assert 0 < sum(items) <= golden

    @pytest.mark.parametrize("n", [12, 101, 200])
    def test_indexed_values_match_the_flat_list(self, n):
        # the sweep's closed rows, evaluated from the table, are bit for bit
        # the values of each fraction's exact coefficients
        fractions = [CoprimeFraction(m, n) for m in range(1, n) if math.gcd(m, n) == 1]
        rows = gauss_sums.unit_phase(verify._closed_numerators(*fractions), 4 * n) / math.sqrt(n)
        for row, f in zip(rows, fractions):
            want = gauss_sums._coefficient_values(gauss_sums.closed_coefficients(f))
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), f


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



class TestReportOrder:
    """The order of run_checks is the order of gausscat verify's lines: the
    order of TOLERANCES, group by group as GROUPS lists them."""

    @pytest.fixture(scope="class")
    def by_group(self):
        return {group: [r.name for r in run_checks(WAVE_SMALL, [group])]
                for group in verify.GROUPS}

    def test_full_run_follows_tolerances(self, by_group):
        names = [r.name for r in run_checks(WAVE_SMALL)]
        assert names == list(verify.TOLERANCES)
        assert names == [name for group in verify.GROUPS for name in by_group[group]]

    def test_each_group_keeps_the_order_of_tolerances(self, by_group):
        for group, names in by_group.items():
            assert names == [n for n in verify.TOLERANCES if n in names], group

    def test_groups_run_in_the_order_of_groups_not_of_the_request(self):
        results = run_checks(WAVE_SMALL, ["wavefunc", "gauss"])
        assert [r.group for r in results] == ["gauss"] * 5 + ["wavefunc"] * 5


@pytest.mark.parametrize("module", [gauss_sums, superposition, fock, wavefunc, verify])
def test_package_exports_every_public_name(module):
    for name in module.__all__:
        assert getattr(gausscat, name) is getattr(module, name), name
    assert set(module.__all__) <= set(gausscat.__all__)

