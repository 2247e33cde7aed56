"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that

* BENCHMARK.json lists exactly the metrics run.py reports, with their units;
* the tracer wraps a function in every gausscat namespace that binds it;
* each planted fault (faults.py) turns its workload's gate red: run.py
  reports fail_frac > 0, correct = false, exits non-zero, and names the
  gate that caught the fault;
* run.py exits non-zero without printing a result where there are no
  gausscat sources.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
# (workload, fault, what the failure message must say)
PLANTS = (
    ("sweep", "closed-phase", "golden-states-exact: value"),
    ("cli", "closed-phase", "exit code 1"),
    ("cli", "state-json-byte", "state output differs from the recorded digest"),
    ("grid", "frac-fourier-value", "integro-differential: value"),
    ("cli", "wave-sample-value", "psi off the coherent superposition"),
    ("grid", "loose-tolerance", "passed True; pinned tolerance"),
)


def run(argv, cwd) -> tuple[int, str, str]:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return done.returncode, done.stdout, done.stderr


def check_declared(root: Path) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for key, declared, reported in (("end_to_end", spec["end_to_end"], metrics.END_TO_END),
                                    ("per_layer", spec["per_layer"], metrics.per_layer())):
        if [(m["name"], m["unit"]) for m in declared] != list(reported):
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    for name, _ in metrics.per_layer():
        try:
            metrics.moves(name)
        except KeyError:
            problems.append(f"{name} is not mapped to the end-to-end metric it should move")
    return problems


def check_rebinding(root: Path) -> list[str]:
    sys.path.insert(0, str(root / "src"))
    from gausscat import cli, verify, wavefunc
    from tracer import Tracer

    bound_elsewhere = ((verify, "closed_coefficients"), (cli, "direct_coefficients"),
                       (wavefunc, "kitten_vector_series"), (verify, "hermite_basis"))
    tracer = Tracer()
    tracer.install()
    try:
        return [f"{mod.__name__}.{name} is not traced" for mod, name in bound_elsewhere
                if not hasattr(getattr(mod, name), "__wrapped__")]
    finally:
        tracer.uninstall()


def check_plant(root: Path, workload: str, fault: str, message: str) -> str | None:
    rc, out, err = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--plant", fault], root)
    result = json.loads(out.splitlines()[-1])
    frac = re.search(r"# fail_frac = \d+/\d+ = (\S+)", out)
    if rc == 0 or result["correct"] or not frac or float(frac.group(1)) <= 0:
        return f"{fault} on {workload} was not caught (exit {rc}, {out.splitlines()[-1]})"
    if message not in err:
        return f"{fault} on {workload} was caught, but not by {message!r}:\n{err[-1000:]}"
    print(f"ok: {fault} on {workload} caught ({message}), fail_frac {frac.group(1)}")
    return None


def check_bare_directory(root: Path) -> str | None:
    with tempfile.TemporaryDirectory(dir=root) as bare:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, out, _ = run(["--workload", "grid", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], bare)
    if rc == 0 or out.strip():
        return f"run without sources exited {rc} and printed {out!r}"
    print("ok: run without sources fails without a result")
    return None


def main() -> int:
    root = Path.cwd()
    problems = check_declared(root) + check_rebinding(root)
    problems += [check_plant(root, *plant) for plant in PLANTS]
    problems.append(check_bare_directory(root))
    problems = [p for p in problems if p]
    for p in problems:
        print(f"FAILED: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
