"""CLI behavior: formats, determinism, exit codes."""

import cmath
import contextlib
import hashlib
import io
import json
import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from gausscat.cli import _coeffs_json, _print_columns, _yurke_stoler_view, main
from gausscat.fock import _amplitude_guard
from gausscat.gauss_sums import (CoprimeFraction, RationalAngle, _coefficient_values,
                                 closed_coefficients, direct_coefficients)
from gausscat.superposition import (build_descriptor, coefficient_to_dict,
                                    coefficients_by_inverse_dft, descriptor_to_json,
                                    reference_state_table)
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
        err = capsys.readouterr().err
        assert "gcd = 2" in err
        # the usage line and error prefix are the subcommand's, not the top level's
        assert err.startswith("usage: gausscat coeffs ")
        assert "gausscat coeffs: error:" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "1", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("k,phase_num,phase_den,inv_sqrt,direct_re,direct_im,"
                            "inverse_dft_re,inverse_dft_im,discrepancy")
        assert len(lines) == 4


# state M N --yurke-stoler: the text output, the JSON rotations as (num, den)
# multiples of pi, and the sha256 of the whole JSON output
YURKE_STOLER = [
    (1, 2, """\
# superposition for M/N = 1/2 (even N), amplitude -i·α
k=0: exp(i·7π/4)/√2 · |exp(i·0)·α⟩
k=1: exp(i·π/4)/√2 · |exp(i·π)·α⟩
""", [(0, 1), (1, 1)], "4f3ee7c91e5bbcba9ce1eac1dbab901752d73f7b3f95fd2f073c8a14bf72ffe2"),
    (3, 4, """\
# superposition for M/N = 3/4 (even N), amplitude -i·α
k=0: exp(i·5π/4)/√4 · |exp(i·π/4)·α⟩
k=1: 1/√4 · |exp(i·3π/4)·α⟩
k=2: exp(i·π/4)/√4 · |exp(i·5π/4)·α⟩
k=3: 1/√4 · |exp(i·7π/4)·α⟩
""", [(1, 4), (3, 4), (5, 4), (7, 4)],
     "4b34ac551461a02fa1a7b6041a32a435fc6189e2fe543023b86dfffe55489386"),
    (2, 5, """\
# superposition for M/N = 2/5 (odd N), amplitude -i·α
k=0: exp(i·8π/5)/√5 · |exp(i·3π/2)·α⟩
k=1: 1/√5 · |exp(i·19π/10)·α⟩
k=2: exp(i·8π/5)/√5 · |exp(i·3π/10)·α⟩
k=3: exp(i·2π/5)/√5 · |exp(i·7π/10)·α⟩
k=4: exp(i·2π/5)/√5 · |exp(i·11π/10)·α⟩
""", [(3, 2), (19, 10), (3, 10), (7, 10), (11, 10)],
     "b965c51e74b6314295d49931065938adc20af882fa03c97e8c1bad9a88c99d57"),
]


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

    @pytest.mark.parametrize("m, n, text, rotations, json_sha256", YURKE_STOLER)
    def test_yurke_stoler_output_is_pinned(self, capsys, m, n, text, rotations, json_sha256):
        _, out, _ = run_cli(capsys, "state", str(m), str(n), "--yurke-stoler")
        assert out == text
        _, out, _ = run_cli(capsys, "state", str(m), str(n), "--format", "json",
                            "--yurke-stoler")
        obj = json.loads(out)
        assert [(c["rotation"]["num"], c["rotation"]["den"]) for c in obj["components"]] \
            == rotations
        assert hashlib.sha256(out.encode()).hexdigest() == json_sha256

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "state", "3", "4")
        assert code == 0
        assert "compass" not in out  # plain data, no prose
        assert out.count("|exp(i·") == 4


def _descriptor_reference(desc):
    """The descriptor's JSON as ``json.dumps(indent=2)`` writes its dict."""
    n = desc.fraction.N
    rotations = [RationalAngle(r, 2 * n) for r in desc.rotations]
    return json.dumps({"M": desc.fraction.M, "N": n, "parity": desc.parity, "components": [
        {"k": k, "coeff": coefficient_to_dict(c), "rotation": {"num": a.num, "den": a.den}}
        for k, (c, a) in enumerate(zip(desc.components, rotations))]}, indent=2)


def _coeffs_reference(f, closed, direct, idft, discrepancies):
    """The coefficient table's JSON as ``json.dumps(indent=2)`` writes its dict."""
    return json.dumps({"M": f.M, "N": f.N, "rows": [
        {"k": k, "closed": coefficient_to_dict(closed[k]),
         "direct": [direct[k].real, direct[k].imag],
         "inverse_dft": [idft[k].real, idft[k].imag], "discrepancy": float(discrepancies[k])}
        for k in range(f.N)], "max_discrepancy": float(discrepancies.max())}, indent=2)


def _fractions_up_to(n_max):
    return [CoprimeFraction(m, n) for n in range(2, n_max + 1) for m in range(1, n)
            if math.gcd(m, n) == 1]


class TestJsonWriters:
    """Both JSON writers print the layout of ``json.dumps(indent=2)`` directly; they
    must give the encoder's text byte for byte."""

    @pytest.mark.parametrize("index", range(9))
    def test_golden_states(self, index):
        f, desc = reference_state_table()[index]
        assert descriptor_to_json(desc) == _descriptor_reference(desc)
        assert descriptor_to_json(build_descriptor(f)) == _descriptor_reference(desc)

    def test_every_descriptor_up_to_n_30(self):
        for f in _fractions_up_to(30):
            for desc in (build_descriptor(f), _yurke_stoler_view(build_descriptor(f))):
                assert descriptor_to_json(desc) == _descriptor_reference(desc), f

    def test_large_descriptor(self):
        desc = build_descriptor(CoprimeFraction(2, 3989))
        for view in (desc, _yurke_stoler_view(desc)):
            assert descriptor_to_json(view) == _descriptor_reference(view)

    def test_every_coefficient_table_up_to_n_30(self, capsys):
        for f in _fractions_up_to(30):
            closed = closed_coefficients(f)
            values = _coefficient_values(closed)
            direct, idft = direct_coefficients(f)[0], coefficients_by_inverse_dft(f)[0]
            discrepancies = np.maximum(np.abs(values - direct), np.abs(values - idft))
            _, out, _ = run_cli(capsys, "coeffs", str(f.M), str(f.N), "--format", "json")
            assert out == _coeffs_reference(f, closed, direct, idft, discrepancies) + "\n", f

    @pytest.mark.parametrize("peak", [math.nan, math.inf])
    def test_rows_of_special_floats(self, peak):
        # json writes NaN, Infinity and -Infinity, and repr for -0.0 and a subnormal
        f = CoprimeFraction(1, 4)
        closed = closed_coefficients(f)
        direct = np.array([complex(math.nan, math.inf), complex(-0.0, -math.inf),
                           complex(5e-324, -5e-324), complex(0.1, -1 / 3)])
        idft = direct[::-1].copy()
        discrepancies = np.array([-0.0, 5e-324, peak, 2.0 ** 53 + 2.0])
        text = _coeffs_json(f, closed, direct, idft, discrepancies)
        assert text == _coeffs_reference(f, closed, direct, idft, discrepancies)
        for token in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324"):
            assert token in text


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


class TestCsvJsonParity:
    @staticmethod
    def _json_columns(obj, names):
        if "rows" not in obj:
            return obj
        # coeffs: each JSON row flattened in the order of the CSV columns
        rows = [[r["k"], r["closed"]["phase_num"], r["closed"]["phase_den"],
                 r["closed"]["inv_sqrt"], *r["direct"], *r["inverse_dft"], r["discrepancy"]]
                for r in obj["rows"]]
        return dict(zip(names, zip(*rows)))

    @pytest.mark.parametrize("args", [
        ("wavefunction", "6", "11", "--alpha=0.042687,-0.12929", "--dim", "64"),
        ("evolve", "2", "5", "--alpha=1.5,-0.5", "--dim", "64", "--t-steps", "9"),
        ("coeffs", "3", "7"),
    ])
    def test_both_formats_print_bit_equal_floats(self, capsys, args):
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        header, *lines = csv_out.strip().splitlines()
        names = header.split(",")
        csv_columns = zip(*(map(float, line.split(",")) for line in lines))
        json_columns = self._json_columns(json.loads(json_out), names)
        assert len(lines) > 1
        for name, column in zip(names, csv_columns):
            assert [v.hex() for v in column] == \
                [float(v).hex() for v in json_columns[name]], name


class TestCsvRows:
    def test_one_format_per_row_prints_each_value_as_17g(self, capsys):
        # the row format against one f"{v:.17g}" per value, over the values that
        # print specially and the int columns of coeffs 1 16001 (phase_num < 8N)
        floats = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.0 ** 53 + 1.0,
                           0.1, -1 / 3])
        columns = {"k": range(floats.size), "phase_num": np.linspace(0, 8 * 16001, floats.size,
                                                                     dtype=np.int64),
                   "re": floats, "im": floats[::-1]}
        _print_columns("csv", columns)
        rows = zip(*(np.asarray(col).tolist() for col in columns.values()))
        want = ["k,phase_num,re,im", *(",".join(f"{v:.17g}" for v in row) for row in rows)]
        assert capsys.readouterr().out.splitlines() == want
        assert want[1] == "0,0,nan,-0.33333333333333331"
        assert want[4] == "3,54860,-0,4.9406564584124654e-324"


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
        assert lines[0] == "# trapezoid norm = 0.68859874697442247"
        assert len(lines) == 2 and lines[1].startswith("norm-drift: ")
        assert "0.68859874697442247" in lines[1] and "1e-06" in lines[1]

    def test_fock_tail_beyond_dim_is_named_as_a_cause(self, capsys):
        # dim 489 is the least that the truncation guard allows at |alpha| = 20; the
        # samples are right, and the norm misses the weight of the series beyond dim
        code, out, err = run_cli(capsys, "wavefunction", "1", "3", "--alpha", "20,0",
                                 "--dim", "489", "--grid-half-width", "80",
                                 "--grid-points", "4001")
        assert code == 0
        assert len(out.splitlines()) == 4002
        lines = err.splitlines()
        assert lines[0] == "# trapezoid norm = 0.99999539663435588"
        assert len(lines) == 2 and lines[1].startswith("norm-drift: ")
        assert "0.99999539663435588" in lines[1] and "1e-06" in lines[1]
        assert "Fock tail beyond --dim" in lines[1]

    def test_astronomical_grid_warns_only_norm_drift(self, capsys):
        # x*x overflows for |x| above ~1.3e154; psi_0 there is exactly 0 all the same
        code, out, err = run_cli(capsys, "wavefunction", "1", "2", "--grid-half-width",
                                 "8.98e307", "--grid-points", "5", "--format", "json")
        assert code == 0
        # psi_0(0)^2 = 1/sqrt(pi), exactly as math.pi ** -0.5 rounds it
        assert json.loads(out)["abs2"] == [0.0, 0.0, math.pi ** -0.5, 0.0, 0.0]
        lines = err.splitlines()
        assert lines[0].startswith("# trapezoid norm = ")
        assert len(lines) == 2 and lines[1].startswith("norm-drift: ")

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
        (("evolve", "1", "3", "--alpha=-inf,0"), "--alpha"),
        (("evolve", "1", "3", "--t", "nan"), "--t"),
        (("evolve", "1", "3", "--t", "inf"), "--t"),
        (("wavefunction", "1", "3", "--grid-half-width", "nan"), "--grid-half-width"),
        (("wavefunction", "1", "3", "--grid-points", "4"), "--grid-points"),
        (("verify", "--coeff-nmax", "1"), "--coeff-nmax"),
        (("verify", "--fock-nmax", "1"), "--fock-nmax"),
        (("wavefunction", "1", "2", "--alpha", "40,0", "--dim", "1900",
          "--grid-half-width", "80", "--grid-points", "801"), "--alpha"),
        (("evolve", "1", "3", "--alpha", "40,0", "--dim", "1900"), "--alpha"),
        (("wavefunction", "1", "2", "--grid-half-width", "1e308", "--grid-points", "5",
          "--format", "json"), "--grid-half-width"),
        (("evolve", "1", "3", "--t", "1e308"), "--t"),
        (("evolve", "1", "3", "--t", "1e15"), "--t"),
        # finite amplitudes whose |alpha|^2 overflows to inf
        (("wavefunction", "1", "2", "--alpha=1e200,0"), "--alpha"),
        (("wavefunction", "1", "2", "--alpha=0,1e160"), "--alpha"),
        (("evolve", "1", "2", "--alpha=1e200,0"), "--alpha"),
        (("evolve", "1", "2", "--alpha=0,1e160"), "--alpha"),
        (("evolve", "1", "3", "--t-steps", "1"), "--t-steps"),
        (("wavefunction", "1", "3", "--alpha", "nope"), "--alpha"),
    ])
    def test_bad_input_is_usage_error_naming_the_flag(self, capsys, args, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: gausscat {args[0]} ")
        # one flag, the library's argument name or the CLI's own rule, then a colon
        last = err.splitlines()[-1]
        assert last.startswith(f"gausscat {args[0]}: error: {flag}: "), last
        assert re.findall(r"--[a-z][-a-z]*", last) == [flag], last

    def test_alpha_zero_passes_the_guard_at_any_dimension(self, capsys):
        # the vacuum is exact at every dim >= 1, so the guard never fires at alpha = 0
        args = ("wavefunction", "1", "3", "--alpha", "0,0", "--grid-points", "201")
        _, default_dim, _ = run_cli(capsys, *args)
        code, small_dim, _ = run_cli(capsys, *args, "--dim", "8")
        assert code == 0
        assert small_dim == default_dim

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 45.0), st.floats(-math.pi, math.pi), st.integers(-2, 2000))
    @example(9.0, 0.0, 16)  # the truncation bound
    @example(40.0, 0.0, 1800)  # exp(-|alpha|^2/2) underflows
    @example(0.0, 0.0, 0)  # no dimension
    def test_alpha_and_dim_exit_2_exactly_where_the_guard_refuses(self, radius, angle, dim):
        # the CLI states no rule of its own: the library's guard decides, and the
        # usage error is "--" plus the guard's message, which names the flag
        alpha = cmath.rect(radius, angle)
        try:
            message = _amplitude_guard(alpha, dim)
            refusal = None if message is None else f"--dim: {message}"
        except ValueError as exc:
            refusal = f"--{exc}"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(["evolve", "1", "3", f"--alpha={alpha.real!r},{alpha.imag!r}",
                             "--dim", str(dim), "--t-steps", "2"])
            except SystemExit as exc:
                code = exc.code
        if refusal is None:
            assert code == 0
        else:
            assert code == 2
            assert err.getvalue().splitlines()[-1] == f"gausscat evolve: error: {refusal}"


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
    adding a half turn (4N over the denominator 4N) to its phase numerator,
    in the table that closed_coefficients and the verify sweep both read."""
    import gausscat.gauss_sums as gs
    from gausscat import verify

    original = gs._closed_numerators

    def mutated(*fractions):
        nums = original(*fractions)
        n = fractions[0].N
        odd_odd = np.array([n % 2 == 1 and f.M % 2 == 1 for f in fractions])
        return (nums + 4 * n * odd_odd[:, None]) % (8 * n)

    for module in (gs, verify):
        monkeypatch.setattr(module, "_closed_numerators", mutated)


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
