"""Command-line front-end.

Subcommands:

    coeffs        coefficient table for M/N by all three routes
    state         superposition descriptor (exact phases and rotations)
    wavefunction  sampled kitten wavefunction as CSV
    evolve        fidelity of the time-evolution identity over a time grid
    verify        run the verification suite and report pass/fail

Output is deterministic: the same arguments produce byte-identical output.
Exit codes: 0 success, 1 verification/discrepancy failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .fock import (coherent_underflows, evolution_fidelity, required_dimension,
                   within_truncation_guard)
from .gauss_sums import (
    CoprimeFraction,
    RationalAngle,
    closed_coefficients,
    direct_coefficients,
)
from .superposition import (
    KittenDescriptor,
    build_descriptor,
    coefficient_to_dict,
    coefficients_by_inverse_dft,
    descriptor_to_json,
)
from .verify import GROUPS, TOLERANCES, VerifyConfig, run_checks
from .wavefunc import GridSpec, kitten_wave_sample


# Largest |trapezoid norm - 1| of a sampled wavefunction that passes silently;
# on the default grid |alpha| <= 5 kittens are off by less than 1e-12.
_NORM_DRIFT_BOUND = 1e-6


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _parse_alpha(parser: argparse.ArgumentParser, text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        alpha = complex(float(re_part), float(im_part))
    except ValueError:
        parser.error(f"--alpha expects 're,im', got {text!r}")
    if not cmath.isfinite(alpha):
        parser.error(f"--alpha must be finite, got {text!r}")
    return alpha


def _fraction(parser: argparse.ArgumentParser, args: argparse.Namespace) -> CoprimeFraction:
    try:
        return CoprimeFraction(args.M, args.N)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_coeffs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    f = _fraction(parser, args)
    closed = closed_coefficients(f)
    closed_vals = np.array([c.value for c in closed])
    direct = direct_coefficients(f)[0]
    idft = coefficients_by_inverse_dft(f)[0]
    direct_disc, idft_disc = np.abs(closed_vals - direct), np.abs(closed_vals - idft)
    discrepancies = np.maximum(direct_disc, idft_disc)
    max_disc = float(discrepancies.max())

    if args.format == "json":
        obj = {
            "M": f.M,
            "N": f.N,
            "rows": [
                {
                    "k": k,
                    "closed": coefficient_to_dict(closed[k]),
                    "direct": [direct[k].real, direct[k].imag],
                    "inverse_dft": [idft[k].real, idft[k].imag],
                    "discrepancy": float(discrepancies[k]),
                }
                for k in range(f.N)
            ],
            "max_discrepancy": max_disc,
        }
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        print("k,phase_num,phase_den,inv_sqrt,direct_re,direct_im,"
              "inverse_dft_re,inverse_dft_im,discrepancy")
        for k in range(f.N):
            c = closed[k]
            print(",".join([
                str(k), str(c.phase.num), str(c.phase.den), str(c.inv_sqrt_n),
                _fmt(direct[k].real), _fmt(direct[k].imag),
                _fmt(idft[k].real), _fmt(idft[k].imag),
                _fmt(float(discrepancies[k])),
            ]))
    else:
        print(f"# coefficients for M/N = {f.M}/{f.N}")
        print(f"{'k':>3}  {'closed form':<18} {'direct':<42} "
              f"{'inverse dft':<42} discrepancy")
        for k in range(f.N):
            print(f"{k:>3}  {str(closed[k]):<18} {_fmt_complex(direct[k]):<42} "
                  f"{_fmt_complex(idft[k]):<42} {discrepancies[k]:.3e}")
        print(f"# max cross-route discrepancy: {max_disc:.3e}")
    return 0 if (direct_disc.max() <= TOLERANCES["closed-vs-direct"]
                 and idft_disc.max() <= TOLERANCES["closed-vs-inverse-dft"]) else 1


def _yurke_stoler_view(desc: KittenDescriptor) -> KittenDescriptor:
    """Fold the substitution alpha -> -i*alpha into the rotations."""
    shift = RationalAngle(3, 2)  # -pi/2
    components = tuple(replace(c, rotation=c.rotation + shift) for c in desc.components)
    return replace(desc, components=components)


def cmd_state(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    f = _fraction(parser, args)
    desc = build_descriptor(f)
    if args.yurke_stoler:
        desc = _yurke_stoler_view(desc)
    if args.format == "json":
        print(descriptor_to_json(desc))
    else:
        label = "-i·α" if args.yurke_stoler else "α"
        print(f"# superposition for M/N = {f.M}/{f.N} ({desc.parity} N), "
              f"amplitude {label}")
        for k, c in enumerate(desc.components):
            print(f"k={k}: {c.coefficient} · |exp(i·{c.rotation})·α⟩")
    return 0


def _alpha_within_guard(parser: argparse.ArgumentParser,
                        args: argparse.Namespace) -> complex:
    """--alpha, once it is finite and does not underflow the vacuum amplitude,
    and --dim is positive and keeps the coherent-state tail negligible."""
    alpha = _parse_alpha(parser, args.alpha)
    if coherent_underflows(alpha):
        parser.error(f"--alpha: |alpha|^2 = {abs(alpha) ** 2:.6g} underflows exp(-|alpha|^2/2)")
    if args.dim < 1:
        parser.error(f"--dim must be a positive integer, got {args.dim}")
    if not within_truncation_guard(alpha, args.dim):
        parser.error(
            f"|alpha|^2 = {abs(alpha) ** 2:.6g} violates the truncation guard at "
            f"dim = {args.dim}; use --dim {required_dimension(alpha)} or larger")
    return alpha


def cmd_wavefunction(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    f = _fraction(parser, args)
    alpha = _alpha_within_guard(parser, args)
    try:
        grid = GridSpec(args.grid_half_width, args.grid_points)
    except ValueError as exc:
        parser.error(f"--grid-half-width/--grid-points: {exc}")
    sample = kitten_wave_sample(alpha, f, grid, args.dim)
    norm = sample.norm()
    print(f"# trapezoid norm = {_fmt(norm)}", file=sys.stderr)
    if not abs(norm - 1.0) <= _NORM_DRIFT_BOUND:
        print(f"norm-drift: trapezoid norm {_fmt(norm)} is off 1 by more than "
              f"{_NORM_DRIFT_BOUND:g}; the grid is too narrow or too coarse, the basis "
              f"underflowed, or the state's Fock tail beyond --dim is cut off", file=sys.stderr)
    x = grid.x()
    values = sample.values
    if args.format == "json":
        obj = {
            "M": f.M,
            "N": f.N,
            "alpha": [alpha.real, alpha.imag],
            "x": [float(v) for v in x],
            "re_psi": [float(v) for v in values.real],
            "im_psi": [float(v) for v in values.imag],
            "abs2": [float(v) for v in np.abs(values) ** 2],
            "norm": norm,
        }
        print(json.dumps(obj))
    else:
        print("x,re_psi,im_psi,abs2")
        for xi, vi in zip(x, values):
            print(f"{_fmt(xi)},{_fmt(vi.real)},{_fmt(vi.imag)},{_fmt(abs(vi) ** 2)}")
    return 0


def cmd_evolve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    f = _fraction(parser, args)
    alpha = _alpha_within_guard(parser, args)
    if not math.isfinite(args.t):
        parser.error(f"--t must be finite, got {args.t}")
    if args.t_steps < 2:
        parser.error("--t-steps must be at least 2")
    times = np.linspace(0.0, args.t, args.t_steps)
    fidelities = evolution_fidelity(alpha, f, times, args.dim)
    if args.format == "json":
        obj = {
            "M": f.M,
            "N": f.N,
            "alpha": [alpha.real, alpha.imag],
            "t": [float(t) for t in times],
            "fidelity": fidelities,
        }
        print(json.dumps(obj))
    else:
        print("t,fidelity")
        for t, fid in zip(times, fidelities):
            print(f"{_fmt(float(t))},{_fmt(fid)}")
    return 0


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    # below 2 the sweep has no fraction M/N to cover, and would pass vacuously
    for flag, value in (("--coeff-nmax", args.coeff_nmax), ("--fock-nmax", args.fock_nmax)):
        if value < 2:
            parser.error(f"{flag} must be at least 2, got {value}")
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
                   help="coherent amplitude as 're,im' (default 1,0)")
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
    p.set_defaults(handler=cmd_coeffs)

    p = sub.add_parser("state", help="superposition descriptor")
    _add_fraction(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--yurke-stoler", action="store_true", dest="yurke_stoler",
                   help="fold the alpha -> -i*alpha substitution into the rotations")
    p.set_defaults(handler=cmd_state)

    p = sub.add_parser("wavefunction", help="sampled wavefunction as CSV")
    _add_fraction(p)
    _add_alpha_dim(p)
    p.add_argument("--grid-half-width", type=float, default=12.0)
    p.add_argument("--grid-points", type=int, default=2001)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_wavefunction)

    p = sub.add_parser("evolve", help="time-evolution fidelity series")
    _add_fraction(p)
    _add_alpha_dim(p)
    p.add_argument("--t", type=float, default=2.0 * math.pi,
                   help="end time of the series (default 2*pi)")
    p.add_argument("--t-steps", type=int, default=49, dest="t_steps",
                   help="number of samples from 0 to t (default 49)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", action="append", choices=GROUPS,
                   help="restrict to a check group (repeatable)")
    p.add_argument("--coeff-nmax", type=int, default=200, dest="coeff_nmax",
                   help="coefficient sweep bound (default 200)")
    p.add_argument("--fock-nmax", type=int, default=12, dest="fock_nmax",
                   help="Fock sweep bound (default 12)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(parser, args)
    except BrokenPipeError:
        # the consumer of stdout went away (e.g. piped into head);
        # park stdout on devnull so the interpreter can flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
