"""Command-line front-end.

Subcommands:

    coeffs        coefficient table for M/N by all three routes
    state         superposition descriptor (exact phases and rotations)
    wavefunction  sampled kitten wavefunction as CSV or JSON
    evolve        fidelity of the time-evolution identity over a time grid
    verify        run the verification suite and report pass/fail

Output is deterministic: the same arguments produce byte-identical output.
One column writer prints the tables of wavefunction, evolve and coeffs --format
csv, so their CSV and JSON forms carry the same numbers.  state and coeffs --format json
write json.dumps(indent=2)'s text from one template per component or row; verify
--format json and the column writer's one-line JSON go through json.dumps.
Exit codes: 0 success, 1 verification/discrepancy failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .fock import _amplitude_guard, evolution_fidelity, within_time_bound
from .gauss_sums import (
    CoprimeFraction,
    _coefficient_values,
    closed_coefficients,
    direct_coefficients,
)
from .superposition import (
    KittenDescriptor,
    _COEFF_JSON,
    _exact_components,
    build_descriptor,
    coefficients_by_inverse_dft,
    descriptor_to_json,
)
from .verify import GROUPS, TOLERANCES, VerifyConfig, run_checks
from .wavefunc import GridSpec, kitten_wave_sample


# Largest |trapezoid norm - 1| of a sampled wavefunction that passes silently;
# on the default grid |alpha| <= 5 kittens are off by less than 1e-12.
_NORM_DRIFT_BOUND = 1e-6


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _print_columns(fmt: str, columns: dict, head: dict | None = None,
                   tail: dict | None = None) -> None:
    """Print named columns as CSV rows under a header, or as JSON float lists after head;
    a CSV row is one ``%.17g`` format, the text of ``f"{v:.17g}"`` for each value."""
    if fmt == "json":
        floats = {name: np.asarray(col, dtype=float).tolist() for name, col in columns.items()}
        print(json.dumps({**(head or {}), **floats, **(tail or {})}))
        return
    print(",".join(columns))
    row_format = ",".join(["%.17g"] * len(columns))
    for row in zip(*(np.asarray(col).tolist() for col in columns.values())):
        print(row_format % row)


def _fraction(args: argparse.Namespace) -> CoprimeFraction:
    try:
        return CoprimeFraction(args.M, args.N)
    except ValueError as exc:
        args.error(str(exc))


# One row of ``coeffs --format json``, as ``json.dumps(indent=2)`` lays it out.
_ROW_JSON = ('    {\n      "k": %d,\n      "closed": ' + _COEFF_JSON + ',\n      "direct": [\n'
             '        %s,\n        %s\n      ],\n      "inverse_dft": [\n        %s,\n        %s\n'
             '      ],\n      "discrepancy": %s\n    }')


def _coeffs_json(f: CoprimeFraction, closed: list, direct: np.ndarray, idft: np.ndarray,
                 discrepancies: np.ndarray) -> str:
    """The table as the text of ``json.dumps(obj, indent=2)``, one template per row joined once;
    its floats are the C encoder's text of one flat list (repr, NaN, +-Infinity), split."""
    floats = np.column_stack([direct.real, direct.imag, idft.real, idft.imag, discrepancies])
    texts = json.dumps(floats.ravel().tolist() + [float(discrepancies.max())])[1:-1].split(", ")
    rows = [_ROW_JSON % (k, c.phase.num, c.phase.den, c.inv_sqrt_n, *texts[5 * k:5 * k + 5])
            for k, c in enumerate(closed)]
    rows[0] = f'{{\n  "M": {f.M},\n  "N": {f.N},\n  "rows": [\n' + rows[0]
    rows[-1] += f'\n  ],\n  "max_discrepancy": {texts[-1]}\n}}'
    return ",\n".join(rows)


def cmd_coeffs(args: argparse.Namespace) -> int:
    f = _fraction(args)
    closed = closed_coefficients(f)
    closed_vals = _coefficient_values(closed)
    direct = direct_coefficients(f)[0]
    idft = coefficients_by_inverse_dft(f)[0]
    direct_disc, idft_disc = np.abs(closed_vals - direct), np.abs(closed_vals - idft)
    discrepancies = np.maximum(direct_disc, idft_disc)

    if args.format == "json":
        print(_coeffs_json(f, closed, direct, idft, discrepancies))
    elif args.format == "csv":
        num, den, inv_sqrt = zip(*[(c.phase.num, c.phase.den, c.inv_sqrt_n) for c in closed])
        _print_columns("csv", {"k": range(f.N), "phase_num": num, "phase_den": den,
                               "inv_sqrt": inv_sqrt, "direct_re": direct.real,
                               "direct_im": direct.imag, "inverse_dft_re": idft.real,
                               "inverse_dft_im": idft.imag, "discrepancy": discrepancies})
    else:
        print(f"# coefficients for M/N = {f.M}/{f.N}")
        print(f"{'k':>3}  {'closed form':<18} {'direct':<42} "
              f"{'inverse dft':<42} discrepancy")
        for k in range(f.N):
            print(f"{k:>3}  {str(closed[k]):<18} {_fmt_complex(direct[k]):<42} "
                  f"{_fmt_complex(idft[k]):<42} {discrepancies[k]:.3e}")
        print(f"# max cross-route discrepancy: {discrepancies.max():.3e}")
    return 0 if (direct_disc.max() <= TOLERANCES["closed-vs-direct"]
                 and idft_disc.max() <= TOLERANCES["closed-vs-inverse-dft"]) else 1


def _yurke_stoler_view(desc: KittenDescriptor) -> KittenDescriptor:
    """Fold the substitution alpha -> -i*alpha into the rotations: -pi/2 is
    3N over 2N, mod 4N."""
    n = desc.fraction.N
    return replace(desc, rotations=tuple((r + 3 * n) % (4 * n) for r in desc.rotations))


def cmd_state(args: argparse.Namespace) -> int:
    f = _fraction(args)
    desc = build_descriptor(f)
    if args.yurke_stoler:
        desc = _yurke_stoler_view(desc)
    if args.format == "json":
        print(descriptor_to_json(desc))
    else:
        label = "-i·α" if args.yurke_stoler else "α"
        print(f"# superposition for M/N = {f.M}/{f.N} ({desc.parity} N), "
              f"amplitude {label}")
        for k, (c, rotation) in enumerate(_exact_components(desc)):
            print(f"k={k}: {c} · |exp(i·{rotation})·α⟩")
    return 0


def _alpha_within_guard(args: argparse.Namespace) -> complex:
    """--alpha as 're,im', once ``fock._amplitude_guard`` passes it with --dim: the guard's
    ValueError, which starts with the argument's name, is a usage error naming that flag,
    and its truncation message one naming --dim."""
    try:
        re_part, im_part = args.alpha.split(",")
        alpha = complex(float(re_part), float(im_part))
    except ValueError:
        args.error(f"--alpha: expects 're,im', got {args.alpha!r}")
    try:
        message = _amplitude_guard(alpha, args.dim)
    except ValueError as exc:
        args.error(f"--{exc}")
    if message is not None:
        args.error(f"--dim: {message}")
    return alpha


def cmd_wavefunction(args: argparse.Namespace) -> int:
    f = _fraction(args)
    alpha = _alpha_within_guard(args)
    try:
        grid = GridSpec(args.grid_half_width, args.grid_points)
    except ValueError as exc:
        name, message = str(exc).split(": ", 1)
        args.error(f"--grid-{name.replace('_', '-')}: {message}")
    sample = kitten_wave_sample(alpha, f, grid, args.dim)
    norm = sample.norm()
    print(f"# trapezoid norm = {norm:.17g}", file=sys.stderr)
    if not abs(norm - 1.0) <= _NORM_DRIFT_BOUND:
        print(f"norm-drift: trapezoid norm {norm:.17g} is off 1 by more than "
              f"{_NORM_DRIFT_BOUND:g}; the grid is too narrow or too coarse, the basis "
              f"underflowed, or the state's Fock tail beyond --dim is cut off", file=sys.stderr)
    values = sample.values
    _print_columns(args.format, {"x": grid.x(), "re_psi": values.real, "im_psi": values.imag,
                                 "abs2": np.abs(values) ** 2},
                   head={"M": f.M, "N": f.N, "alpha": [alpha.real, alpha.imag]},
                   tail={"norm": norm})
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    f = _fraction(args)
    alpha = _alpha_within_guard(args)
    if not within_time_bound(args.t, args.dim):
        args.error(f"--t: {args.t:g} at dim {args.dim}: need t finite, |t|*(dim - 1/2) <= 2**40")
    if args.t_steps < 2:
        args.error(f"--t-steps: must be at least 2, got {args.t_steps}")
    times = np.linspace(0.0, args.t, args.t_steps)
    _print_columns(args.format, {"t": times,
                                 "fidelity": evolution_fidelity(alpha, f, times, args.dim)},
                   head={"M": f.M, "N": f.N, "alpha": [alpha.real, alpha.imag]})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # below 2 a sweep covers no fraction M/N and its checks fail at inf: exit 2 here, not 1
    for flag, value in (("--coeff-nmax", args.coeff_nmax), ("--fock-nmax", args.fock_nmax)):
        if value < 2:
            args.error(f"{flag}: must be at least 2, got {value}")
    cfg = VerifyConfig(coeff_n_max=args.coeff_nmax, fock_n_max=args.fock_nmax)
    groups = args.only or None
    results = run_checks(cfg, groups)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        # strict JSON: a NaN or infinite check value is written as a string
        rows = [asdict(r) | {"value": r.value if math.isfinite(r.value) else str(r.value)}
                for r in results]
        print(json.dumps(rows, indent=2, allow_nan=False))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.group + '/' + r.name:<38} value={r.value:.3e}  "
                  f"tolerance={r.tolerance:.1e}  [{r.detail}]")
        if failed:
            print(f"# {len(failed)} of {len(results)} checks failed")
        else:
            print(f"# all {len(results)} checks passed")
    return 1 if failed else 0


def _add_fraction(p: argparse.ArgumentParser) -> None:
    p.add_argument("M", type=int, help="fraction numerator")
    p.add_argument("N", type=int, help="fraction denominator (angle is 2*pi*M/N)")


def _add_alpha_dim(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", default="1,0", metavar="RE,IM",
                   help="coherent amplitude as 're,im' (default 1,0); write a negative "
                        "one as --alpha=-1,0")
    p.add_argument("--dim", type=int, default=64,
                   help="Fock-space truncation (default 64)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausscat",
        description="Coherent-state superpositions with Gauss-sum coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="coefficient table by all three routes")
    _add_fraction(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(handler=cmd_coeffs, error=p.error)

    p = sub.add_parser("state", help="superposition descriptor")
    _add_fraction(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--yurke-stoler", action="store_true", dest="yurke_stoler",
                   help="fold the alpha -> -i*alpha substitution into the rotations")
    p.set_defaults(handler=cmd_state, error=p.error)

    p = sub.add_parser("wavefunction", help="sampled wavefunction as CSV")
    _add_fraction(p)
    _add_alpha_dim(p)
    p.add_argument("--grid-half-width", type=float, default=12.0)
    p.add_argument("--grid-points", type=int, default=2001)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_wavefunction, error=p.error)

    p = sub.add_parser("evolve", help="time-evolution fidelity series")
    _add_fraction(p)
    _add_alpha_dim(p)
    p.add_argument("--t", type=float, default=2.0 * math.pi,
                   help="end time of the series (default 2*pi); write a negative one "
                        "as --t=-1e1")
    p.add_argument("--t-steps", type=int, default=49, dest="t_steps",
                   help="number of samples from 0 to t (default 49)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_evolve, error=p.error)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", action="append", choices=GROUPS,
                   help="restrict to a check group (repeatable)")
    p.add_argument("--coeff-nmax", type=int, default=200, dest="coeff_nmax",
                   help="coefficient sweep bound (default 200)")
    p.add_argument("--fock-nmax", type=int, default=12, dest="fock_nmax",
                   help="Fock sweep bound (default 12)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_verify, error=p.error)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # the consumer of stdout went away (e.g. piped into head);
        # park stdout on devnull so the interpreter can flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
