"""Record digests.json: the exact output of every command the cli workload
can draw.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run it only on a commit whose output is known to be right; the gate then
holds every later commit to that output.  For coeffs the digest covers the
closed-form fields (phase numerator, phase denominator, inv_sqrt), which
the three output formats share; for state it covers the whole output.
"""

from __future__ import annotations

import json

import workloads
from worker import import_gausscat, run_cli


def main() -> None:
    cli, _ = import_gausscat()
    from gausscat.gauss_sums import CoprimeFraction, closed_coefficients

    coeffs = {}
    for target in workloads.COEFF_TARGETS:
        for n in workloads.window(target):
            m = workloads.pool_numerator(n)
            rows = [(c.phase.num, c.phase.den, c.inv_sqrt_n)
                    for c in closed_coefficients(CoprimeFraction(m, n))]
            coeffs[f"{m}/{n}"] = workloads.exact_digest(rows)

    # the CLI's three formats must parse to the same exact rows
    for n in workloads.window(workloads.COEFF_TARGETS[-1])[:2]:
        m = workloads.pool_numerator(n)
        for fmt in workloads.COEFF_FORMATS:
            rc, out, _, _ = run_cli(cli, ["coeffs", str(m), str(n), "--format", fmt])
            exact = workloads.parse_coeffs(fmt, out, n)[0]
            if rc != 0 or workloads.exact_digest(exact) != coeffs[f"{m}/{n}"]:
                raise SystemExit(f"coeffs {m} {n} --format {fmt} disagrees with closed_coefficients")

    state = {}
    for target in workloads.STATE_TARGETS:
        for n in workloads.window(target):
            m = workloads.pool_numerator(n)
            for fmt in ("text", "json"):
                rc, out, _, _ = run_cli(cli, ["state", str(m), str(n), "--format", fmt])
                if rc != 0:
                    raise SystemExit(f"state {m} {n} --format {fmt} exited {rc!r}")
                state[f"{m}/{n}/{fmt}"] = workloads.digest(out)

    workloads.DIGESTS_PATH.write_text(
        json.dumps({"coeffs": coeffs, "state": state}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(coeffs)} coeffs and {len(state)} state digests")


if __name__ == "__main__":
    main()
