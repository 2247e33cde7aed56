"""One pass of one workload, in a fresh interpreter, so the program's caches
start cold and the parent can read this process's own peak RSS.

    python3 perfbench/worker.py --workload W --seed S --mode plain|traced|probe
                                [--plant FAULT] [--spans PATH]

plain   one pass: time it, then gate every output
traced  the same pass with every public gausscat function wrapped in spans
probe   a small fixed tour of every layer, traced, plus tracemalloc peaks of
        single calls; it fills in the layers a workload never calls

Run from the root of a checkout with PYTHONPATH=src.  The last line of
stdout is ``PERFBENCH_RESULT <json>``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import platform
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import faults
import metrics
import workloads
from tracer import Tracer

MAX_FAILURES_SHOWN = 5


def import_gausscat():
    import gausscat

    src = (Path.cwd() / "src").resolve()
    origin = Path(gausscat.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"gausscat was imported from {origin}, not from {src}")
    from gausscat import cli, verify
    return cli, verify


def run_cli(cli, argv):
    """(exit code, stdout, stderr, seconds) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed operation; the pass goes on
        rc = "exception: " + traceback.format_exc(limit=3)
    return rc, out.getvalue(), err.getvalue(), perf_counter() - start


def run_pass(workload: str, seed: int) -> dict:
    cli, verify = import_gausscat()
    if workload in workloads.CHECK_GROUPS:
        cfg, groups = workloads.check_config(workload)
        start = perf_counter()
        try:
            results, error = verify.run_checks(cfg, groups), None
        except Exception:  # counted as every expected check failing
            results, error = [], traceback.format_exc(limit=3)
        wall = perf_counter() - start
        attempted, failures, values = workloads.gate_checks(
            workloads.CHECK_GROUPS[workload], results)
        if error:
            failures = [error] * attempted
        return {"wall_s": wall, "calls_ms": [wall * 1e3], "attempted": attempted,
                "failures": failures, "values": values}

    commands = workloads.cli_commands(seed)
    start = perf_counter()
    outputs = [run_cli(cli, c.argv) for c in commands]
    wall = perf_counter() - start
    digests = workloads.load_digests()
    failures = []
    for c, (rc, out, err, _) in zip(commands, outputs):
        why = workloads.gate_command(c, rc, out, err, digests)
        if why is not None:
            failures.append(f"{' '.join(c.argv)}: {why}")
    return {"wall_s": wall, "calls_ms": [o[3] * 1e3 for o in outputs],
            "attempted": len(commands), "failures": failures, "values": {}}


# ---------------------------------------------------------------- probe

PROBE_COMMANDS = (
    ["coeffs", "3", "7", "--format", "json"],
    ["state", "2", "5", "--format", "json"],
    ["wavefunction", "1", "3", "--alpha=1,0", "--dim", "48", "--grid-points", "401"],
    ["evolve", "1", "3", "--alpha=1,0", "--dim", "48", "--t-steps", "5"],
)


def probe_config():
    from gausscat.verify import VerifyConfig
    from gausscat.wavefunc import GridSpec

    return VerifyConfig(coeff_n_max=16, fock_n_max=5, power_n_max=5, dim=32, power_dim=24,
                        grid=GridSpec(10.0, 401), alphas=(0.5, 1.0 + 0.5j),
                        spectral_n_max=6, cat_x_points=121)


def run_probe() -> dict:
    cli, verify = import_gausscat()
    failures = []
    results = verify.run_checks(probe_config())
    values = {}
    attempted = 0
    for group in workloads.EXPECTED_CHECKS:
        n, f, v = workloads.gate_checks(group, [r for r in results if r.group == group])
        attempted += n
        failures += f
        values.update(v)
    for argv in PROBE_COMMANDS:
        rc = run_cli(cli, argv)[0]
        attempted += 1
        if rc != 0:
            failures.append(f"{' '.join(argv)}: exit code {rc!r}")
    return {"attempted": attempted, "failures": failures, "values": values}


def alloc_peaks() -> dict[str, float]:
    """tracemalloc peak (MB) of one cold call of each function, on fixed
    inputs chosen so that no call finds another's cached tables."""
    from gausscat import cli, gauss_sums, superposition, wavefunc

    grid = wavefunc.GridSpec(12.0, 2001)
    x = grid.x()
    sample = wavefunc.WaveSample(grid, np.pi ** -0.25 * np.exp(-0.5 * (x - 1.0) ** 2) + 0j)
    f = gauss_sums.CoprimeFraction
    cases = {
        "gauss_sums.direct_coefficients": (gauss_sums, "direct_coefficients", (f(1, 2003),)),
        "superposition.coefficients_by_inverse_dft":
            (superposition, "coefficients_by_inverse_dft", (f(2, 2003),)),
        "wavefunc.frac_fourier": (wavefunc, "frac_fourier", (sample, 2.0 * np.pi / 3.0)),
        "wavefunc.hermite_basis": (wavefunc, "hermite_basis", (63, x)),
        "cli.main": (cli, "main", (["coeffs", "1", "2001", "--format", "json"],)),
    }
    peaks = {}
    for key, (module, name, args) in cases.items():
        fn = getattr(module, name, None)
        if fn is None:
            continue
        tracemalloc.start()
        with contextlib.redirect_stdout(io.StringIO()):
            fn(*args)
        peaks[key] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return peaks


# ---------------------------------------------------------------- environment

def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, if one is loaded."""
    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line}) if maps.exists() else []
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads()}


# ---------------------------------------------------------------- main

def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=metrics.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "probe"), required=True)
    parser.add_argument("--plant", choices=sorted(faults.FAULTS))
    parser.add_argument("--spans")
    args = parser.parse_args()

    import_gausscat()
    if args.plant:
        faults.plant(args.plant)
    tracer = Tracer() if args.mode != "plain" else None
    if tracer:
        tracer.install()
    result = run_probe() if args.mode == "probe" else run_pass(args.workload, args.seed)
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    if args.mode == "probe":
        result["alloc_peak_mb"] = alloc_peaks()
    result["env"] = environment()
    result["failed"] = len(result["failures"])
    result["failures"] = result["failures"][:MAX_FAILURES_SHOWN]
    print("PERFBENCH_RESULT " + json.dumps(result))


if __name__ == "__main__":
    main()
