"""gausscat benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep|grid|cli --seed N \
                             --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.

The load is a closed loop: one client in one process, one call at a time.
Every pass runs in a fresh interpreter (worker.py), so the program's
caches start cold, as in a real ``gausscat`` process, and each pass's peak
RSS is its own.  Passes repeat until --seconds is spent (at least three).

--trace 0 prints the end-to-end metrics: set-up time, the median pass wall
time, per-call latency percentiles, and the median peak RSS of a pass.
--trace 1 alternates untraced and traced passes and prints per-layer
metrics (see metrics.py and README.md).

Every output is checked (workloads.py); the run prints fail_frac, and it
exits with 1 if any operation failed.  The last line of stdout is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import metrics

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 21
SETUP_BATCH = 3             # set-up runs before each pass, until SETUP_RUNS are taken
MIN_PASSES = 3
RUN_BUDGET_S = 150          # no pass starts that would end later than this
DEADLINE_S = 170            # workers still running then are killed (limit: 180 s)
OUT_DIR = ".perfbench_out"  # span files of traced runs
RESULT_PREFIX = "PERFBENCH_RESULT "


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


@contextlib.contextmanager
def killed_after(proc: subprocess.Popen, seconds: float):
    timer = threading.Timer(seconds, proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def run_worker(root: Path, argv: list[str], timeout: float):
    """(result or None, peak RSS in MB, output) of one worker."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], cwd=root,
                            env=child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    with killed_after(proc, timeout), proc.stdout:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0:
        for line in reversed(output.splitlines()):
            if line.startswith(RESULT_PREFIX):
                result = json.loads(line[len(RESULT_PREFIX):])
                break
    return result, usage.ru_maxrss / 1024, output


def setup_seconds(root: Path, count: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    gausscat.cli and built the parser, for ``count`` interpreters.
    Interpreter teardown is left out: joining the BLAS threads at exit adds
    0-0.1 s of noise in 50 ms steps."""
    code = "import gausscat.cli as c; c.build_parser(); print('ready', flush=True)"
    times = []
    for _ in range(count):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=root, env=child_env(root),
                                stdout=subprocess.PIPE, text=True)
        with killed_after(proc, 60), proc.stdout:
            ready = proc.stdout.readline().strip() == "ready"
            took = perf_counter() - start
            returncode = proc.wait()
        if returncode != 0 or not ready:
            raise SystemExit("importing gausscat.cli failed")
        times.append(took)
    return times


def deadline(start: float) -> float:
    """Seconds a worker may still take before it is killed."""
    return max(1.0, DEADLINE_S - (perf_counter() - start))


def repeat(step, seconds: float, minimum: int, start: float) -> None:
    """Call step() until ``seconds`` are spent, at least ``minimum`` times,
    without starting a call that would end past RUN_BUDGET_S; step()
    returns False to stop at once."""
    t0 = perf_counter()
    count = 0
    while True:
        s0 = perf_counter()
        if not step():
            return
        count += 1
        now = perf_counter()
        took = now - s0
        if now - start + took > RUN_BUDGET_S:
            return
        if count >= minimum and now - t0 + took > seconds:
            return


def warm_up(root: Path, argv: list[str], tally: "Tally", start: float) -> None:
    """One pass whose timing is dropped: the first pass after the machine
    idled runs up to 40% slower on memory-heavy workloads.  Its outputs are
    still checked."""
    result, _, output = run_worker(root, argv, deadline(start))
    tally.add(result, output)


class Tally:
    """Operations attempted and failed over all workers of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, result, output: str) -> None:
        if result is None:  # the worker itself failed: one failed operation
            self.attempted += 1
            self.failed += 1
            self.messages.append("worker failed:\n" + output[-2000:])
            return
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.messages += result["failures"]


def median(values):
    return statistics.median(values) if values else None


def measure(root: Path, args, tally: Tally, start: float) -> tuple[dict, dict]:
    """End-to-end metrics (--trace 0).  Set-up time is sampled in batches
    between the passes rather than all at once, so that its median spans
    the whole run, as the pass times do."""
    setup_seconds(root, 1)  # dropped: it may write bytecode caches
    setup: list[float] = []

    def sample_setup() -> None:
        setup.extend(setup_seconds(root, min(SETUP_BATCH, SETUP_RUNS - len(setup))))

    base = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "plain"]
    base += ["--plant", args.plant] if args.plant else []
    passes = []
    sample_setup()
    warm_up(root, base, tally, start)

    def one_pass() -> bool:
        sample_setup()
        result, rss, output = run_worker(root, base, deadline(start))
        tally.add(result, output)
        passes.append((result, rss))
        return result is not None

    repeat(one_pass, args.seconds, MIN_PASSES, start)
    setup += setup_seconds(root, SETUP_RUNS - len(setup))
    good = [(r, rss) for r, rss in passes if r is not None]
    calls = [ms for r, _ in good for ms in r["calls_ms"]]
    values = {
        "setup_s": median(setup),
        "wall_s": median([r["wall_s"] for r, _ in good]),
        "call_p50_ms": median(calls),
        "call_p90_ms": statistics.quantiles(calls, n=10, method="inclusive")[8]
        if len(calls) > 1 else None,
        "peak_rss_mb": median([rss for _, rss in good]),
    }
    info = {"passes": len(passes), "pass_s": [round(r["wall_s"], 3) for r, _ in good],
            "calls": len(calls), "setup_runs": len(setup),
            "env": good[0][0]["env"] if good else None}
    return values, info


def _layer_stats(summaries: list[dict], key: str) -> dict | None:
    found = [s[key] for s in summaries if key in s and s[key]["calls"]]
    if not found:
        return None
    out = {"calls": median([s["calls"] for s in found]),
           "self_s": median([s["self_s"] for s in found])}
    if all(s["items"] for s in found):
        out["us_per_item"] = median([s["incl_s"] / s["items"] * 1e6 for s in found])
    return out


def _module_self(summaries: list[dict], module: str) -> float | None:
    totals = [sum(v["self_s"] for k, v in s.items() if k.startswith(module + "."))
              for s in summaries if any(k.startswith(module + ".") for k in s)]
    return median(totals)


def trace(root: Path, args, tally: Tally, start: float) -> tuple[dict, dict]:
    """Per-layer metrics (--trace 1).  Layers the workload never calls are
    taken from the probe worker, so every layer reports on every workload."""
    (root / OUT_DIR).mkdir(exist_ok=True)
    spans = root / OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv"
    ident = ["--workload", args.workload, "--seed", str(args.seed)]
    base = ident + (["--plant", args.plant] if args.plant else [])
    plain, traced = [], []
    warm_up(root, base + ["--mode", "plain"], tally, start)

    def one_pair() -> bool:
        for mode, into in (("plain", plain), ("traced", traced)):
            extra = ["--spans", str(spans)] if mode == "traced" else []
            result, _, output = run_worker(root, base + ["--mode", mode] + extra,
                                              deadline(start))
            tally.add(result, output)
            if result is None:
                return False
            into.append(result)
        return True

    repeat(one_pair, args.seconds, 1, start)
    probe, _, output = run_worker(root, ident + ["--mode", "probe"], deadline(start))
    tally.add(probe, output)
    probe = probe or {"layers": {}, "values": {}, "alloc_peak_mb": {}}

    summaries = [r["layers"] for r in traced]
    values: dict = {}
    for f in metrics.LAYER_FUNCTIONS:
        stats = _layer_stats(summaries, f) or _layer_stats([probe["layers"]], f)
        for name, v in (stats or {}).items():
            values[f"{f}.{name}"] = v
    for m in metrics.MODULES:
        values[f"{m}.self_s"] = _module_self(summaries, m) or _module_self([probe["layers"]], m)
    if plain and traced:
        values["tracing_overhead_s"] = (median([r["wall_s"] for r in traced])
                                        - median([r["wall_s"] for r in plain]))
    for f, mb in probe["alloc_peak_mb"].items():
        values[f"{f}.alloc_peak_mb"] = mb
    checks = {**probe["values"]}
    for r in plain + traced:
        checks.update(r["values"])
    for c, v in checks.items():
        values[f"verify.{c}.value"] = v
    info = {"pairs": len(traced), "spans": str(spans.relative_to(root)),
            "env": next((r["env"] for r in plain + traced + [probe] if "env" in r), None)}
    return values, info


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except FileNotFoundError:  # no git
        return None
    return done.stdout.strip() or None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "gausscat").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", help="plant a fault (see faults.py); for selftest.py")
    args = parser.parse_args()

    start = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "gausscat" / "__init__.py").is_file():
        print(f"error: no gausscat sources under {root / 'src'}; "
              "run from the root of a gausscat checkout", file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        values, info = trace(root, args, tally, start)
        wanted = metrics.per_layer()
    else:
        values, info = measure(root, args, tally, start)
        wanted = metrics.END_TO_END

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           **(info.pop("env") or {}), "commit": commit(root),
           "source_sha256": source_digest(root)}
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    print("# env " + json.dumps(env))
    out = {}
    for name, unit in wanted:
        if values.get(name) is not None:
            out[name] = {"value": values[name], "unit": unit}
            print(f"# {name} = {values[name]:.6g} {unit}")
    print(f"# fail_frac = {tally.failed}/{tally.attempted} = {fail_frac:.6g} ratio")
    for message in tally.messages[:10]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))
    return 0 if tally.failed == 0 and tally.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
