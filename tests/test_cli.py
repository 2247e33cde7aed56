"""CLI behavior: formats, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from gausscat.cli import main
from gausscat.gauss_sums import CoprimeFraction
from gausscat.superposition import build_descriptor, descriptor_to_json
from gausscat.wavefunc import psi_cat_P


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_parity_cat_text(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "1", "2")
        assert code == 0
        assert "exp(i·7π/4)/√2" in out
        assert "exp(i·π/4)/√2" in out

    def test_pentagonal_phases(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "1", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        phases = [(r["closed"]["phase_num"], r["closed"]["phase_den"]) for r in obj["rows"]]
        assert phases == [(9, 5), (9, 5), (1, 5), (1, 1), (1, 5)]
        assert obj["max_discrepancy"] < 1e-12

    def test_non_coprime_usage_error_names_gcd(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "2", "4"])
        assert exc.value.code == 2
        assert "gcd = 2" in capsys.readouterr().err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "1", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("k,phase_num,phase_den,inv_sqrt,direct_re,direct_im,"
                            "inverse_dft_re,inverse_dft_im,discrepancy")
        assert len(lines) == 4


class TestState:
    def test_json_round_trips_to_descriptor(self, capsys):
        code, out, _ = run_cli(capsys, "state", "1", "3", "--format", "json")
        assert code == 0
        # the descriptor's own wire form, which decodes back to it (test_superposition)
        assert out == descriptor_to_json(build_descriptor(CoprimeFraction(1, 3))) + "\n"

    def test_json_phases(self, capsys):
        _, out, _ = run_cli(capsys, "state", "1", "3", "--format", "json")
        obj = json.loads(out)
        phases = [(c["coeff"]["phase_num"], c["coeff"]["phase_den"])
                  for c in obj["components"]]
        assert phases == [(11, 6), (11, 6), (1, 2)]

    def test_yurke_stoler_rotations(self, capsys):
        _, out, _ = run_cli(capsys, "state", "1", "2", "--format", "json",
                            "--yurke-stoler")
        obj = json.loads(out)
        rotations = [(c["rotation"]["num"], c["rotation"]["den"])
                     for c in obj["components"]]
        # amplitudes land on +alpha and -alpha
        assert rotations == [(0, 1), (1, 1)]

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "state", "3", "4")
        assert code == 0
        assert "compass" not in out  # plain data, no prose
        assert out.count("|exp(i·") == 4


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("coeffs", "2", "5", "--format", "json"),
        ("state", "3", "4", "--format", "json"),
        ("wavefunction", "1", "3", "--alpha", "0.5,0.25", "--grid-points", "201",
         "--grid-half-width", "8"),
        ("evolve", "1", "2", "--alpha", "1,0", "--t-steps", "7"),
    ])
    def test_identical_runs_are_byte_identical(self, capsys, args):
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestWavefunction:
    def test_csv_matches_closed_form(self, capsys):
        code, out, err = run_cli(capsys, "wavefunction", "1", "2", "--alpha", "1,0",
                                 "--grid-points", "401")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,re_psi,im_psi,abs2"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        x = rows[:, 0]
        sampled = rows[:, 1] + 1j * rows[:, 2]
        assert np.abs(sampled - psi_cat_P(1.0, x)).max() < 1e-9
        assert "trapezoid norm" in err

    def test_norm_close_to_one(self, capsys):
        _, out, err = run_cli(capsys, "wavefunction", "2", "3", "--alpha", "1.5,0.5")
        norm = float(err.split("=")[1])
        assert abs(norm - 1.0) < 1e-6

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_that_misses_the_state_warns_norm_drift(self, capsys, fmt):
        # |alpha| = 5 puts the components near x = +-7, outside |x| <= 4
        code, out, err = run_cli(capsys, "wavefunction", "1", "3", "--alpha", "5,0", "--dim",
                                 "64", "--grid-half-width", "4", "--format", fmt)
        assert code == 0
        assert out
        lines = err.splitlines()
        assert lines[0] == "# trapezoid norm = 0.68859874697442292"
        assert len(lines) == 2 and lines[1].startswith("norm-drift: ")
        assert "0.68859874697442292" in lines[1] and "1e-06" in lines[1]

    def test_fock_tail_beyond_dim_is_named_as_a_cause(self, capsys):
        # dim 489 is the least that the truncation guard allows at |alpha| = 20; the
        # samples are right, and the norm misses the weight of the series beyond dim
        code, out, err = run_cli(capsys, "wavefunction", "1", "3", "--alpha", "20,0",
                                 "--dim", "489", "--grid-half-width", "80",
                                 "--grid-points", "4001")
        assert code == 0
        assert len(out.splitlines()) == 4002
        lines = err.splitlines()
        assert lines[0] == "# trapezoid norm = 0.99999539663435699"
        assert len(lines) == 2 and lines[1].startswith("norm-drift: ")
        assert "0.99999539663435699" in lines[1] and "1e-06" in lines[1]
        assert "Fock tail beyond --dim" in lines[1]

    def test_default_grid_at_alpha_five_is_silent(self, capsys):
        code, _, err = run_cli(capsys, "wavefunction", "1", "3", "--alpha", "5,0",
                               "--dim", "128")
        assert code == 0
        assert err.startswith("# trapezoid norm = ") and len(err.splitlines()) == 1

    def test_alpha_zero_gives_ground_state(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "1", "3", "--alpha", "0,0",
                               "--grid-points", "201")
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().splitlines()[1:]])
        gaussian = math.pi ** -0.25 * np.exp(-rows[:, 0] ** 2 / 2)
        assert np.abs(rows[:, 1] - gaussian).max() < 1e-12
        assert np.abs(rows[:, 2]).max() < 1e-15

    def test_truncation_guard_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wavefunction", "1", "3", "--alpha", "9,0", "--dim", "16"])
        assert exc.value.code == 2
        assert "--dim" in capsys.readouterr().err

    def test_bad_alpha_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wavefunction", "1", "3", "--alpha", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args, flag", [
        (("wavefunction", "1", "3", "--alpha", "0,0", "--dim", "0"), "--dim"),
        (("wavefunction", "1", "3", "--dim", "-3"), "--dim"),
        (("evolve", "1", "3", "--alpha", "0,0", "--dim", "0"), "--dim"),
        (("wavefunction", "1", "3", "--alpha", "nan,0"), "--alpha"),
        (("wavefunction", "1", "3", "--alpha", "0,nan"), "--alpha"),
        (("wavefunction", "1", "3", "--alpha", "inf,0"), "--alpha"),
        (("evolve", "1", "3", "--alpha", "-inf,0"), "--alpha"),
        (("evolve", "1", "3", "--t", "nan"), "--t"),
        (("evolve", "1", "3", "--t", "inf"), "--t"),
        (("wavefunction", "1", "3", "--grid-half-width", "nan"), "--grid-half-width"),
        (("wavefunction", "1", "3", "--grid-points", "4"), "--grid-points"),
        (("verify", "--coeff-nmax", "1"), "--coeff-nmax"),
        (("verify", "--fock-nmax", "1"), "--fock-nmax"),
        (("wavefunction", "1", "2", "--alpha", "40,0", "--dim", "1900",
          "--grid-half-width", "80", "--grid-points", "801"), "--alpha"),
        (("evolve", "1", "3", "--alpha", "40,0", "--dim", "1900"), "--alpha"),
    ])
    def test_bad_input_is_usage_error_naming_the_flag(self, capsys, args, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_alpha_zero_passes_the_guard_at_any_dimension(self, capsys):
        # the vacuum is exact at every dim >= 1, so the guard never fires at alpha = 0
        args = ("wavefunction", "1", "3", "--alpha", "0,0", "--grid-points", "201")
        _, default_dim, _ = run_cli(capsys, *args)
        code, small_dim, _ = run_cli(capsys, *args, "--dim", "8")
        assert code == 0
        assert small_dim == default_dim


class TestEvolve:
    def test_fidelity_is_unity(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "1", "3", "--alpha", "1,0",
                               "--t-steps", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,fidelity"
        fidelities = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(fidelities) == 9
        assert max(abs(f - 1.0) for f in fidelities) < 1e-9

    def test_starts_at_exactly_zero_time(self, capsys):
        _, out, _ = run_cli(capsys, "evolve", "1", "2", "--t-steps", "3")
        first = out.strip().splitlines()[1]
        assert first.split(",")[0] == "0"

    def test_initial_series_built_once(self, monkeypatch, capsys):
        # one coherent vector for the state at t = 0, one per rotated state
        from gausscat import fock

        calls = []
        original = fock.coherent_vector

        def counted(alpha, dim):
            calls.append(alpha)
            return original(alpha, dim)

        monkeypatch.setattr(fock, "coherent_vector", counted)
        code, out, _ = run_cli(capsys, "evolve", "1", "3", "--dim", "256")
        assert code == 0 and len(out.strip().splitlines()) == 1 + 49
        assert len(calls) == 50


def _flip_odd_odd_sign(monkeypatch):
    """Drop-in mutation: negate every odd-N, odd-M closed coefficient by
    adding a half turn (4N over the denominator 4N) to its phase numerator."""
    import gausscat.gauss_sums as gs

    original = gs._closed_numerators

    def mutated(f):
        nums = original(f)
        if f.N % 2 == 1 and f.M % 2 == 1:
            return (nums + 4 * f.N) % (8 * f.N)
        return nums

    monkeypatch.setattr(gs, "_closed_numerators", mutated)


class TestMutationDetection:
    def test_sign_flip_fails_coefficient_checks(self, monkeypatch, capsys):
        _flip_odd_odd_sign(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "--only", "gauss",
                               "--coeff-nmax", "9")
        assert code == 1
        assert "FAIL  gauss/closed-vs-direct" in out

    def test_sign_flip_fails_coeffs_exit_code(self, monkeypatch, capsys):
        _flip_odd_odd_sign(monkeypatch)
        code, out, _ = run_cli(capsys, "coeffs", "1", "3")
        assert code == 1

    @pytest.mark.parametrize("route", ["direct_coefficients", "coefficients_by_inverse_dft"])
    def test_route_off_by_1e_11_fails_coeffs_exit_code(self, monkeypatch, capsys, route):
        # coeffs exits 1 above the pinned 1e-12 of closed-vs-direct and
        # closed-vs-inverse-dft
        from gausscat import cli

        original = getattr(cli, route)

        def planted(*fractions):
            rows = original(*fractions).copy()
            rows[0, 2] += 1e-11
            return rows

        monkeypatch.setattr(cli, route, planted)
        code, out, _ = run_cli(capsys, "coeffs", "2", "7")
        assert code == 1
        assert "# max cross-route discrepancy: 1.000e-11" in out


class TestVerify:
    def test_gauss_group_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "gauss",
                               "--coeff-nmax", "25")
        assert code == 0
        assert "PASS  gauss/golden-states-exact" in out
        assert "PASS  gauss/closed-vs-direct" in out
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "fock",
                               "--fock-nmax", "5")
        assert code == 0
        # default text; now json
        code, out, _ = run_cli(capsys, "verify", "--only", "fock",
                               "--fock-nmax", "5", "--format", "json")
        assert code == 0
        results = json.loads(out)
        assert all(r["passed"] for r in results)
        assert {r["group"] for r in results} == {"fock"}

    def test_json_is_strict_on_a_nan_value(self, monkeypatch, capsys):
        from gausscat import fock

        monkeypatch.setattr(fock, "eigen_residual", lambda alpha, f, dim: math.nan)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        code, out, _ = run_cli(capsys, "verify", "--only", "fock", "--fock-nmax", "3",
                               "--format", "json")
        assert code == 1
        results = {r["name"]: r for r in json.loads(out, parse_constant=reject)}
        assert results["eigen-equation"]["value"] == "nan"
        assert not results["eigen-equation"]["passed"]
        assert isinstance(results["time-evolution"]["value"], float)
