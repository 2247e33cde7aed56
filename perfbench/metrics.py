"""Names and units of the metrics the benchmark reports.

BENCHMARK.json lists the same names; ``selftest.py`` checks that the two
agree.
"""

WORKLOADS = ("sweep", "grid", "cli")
MODULES = ("gauss_sums", "superposition", "fock", "wavefunc", "verify", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Functions whose calls, self time and time per work item are reported:
# the ones a planned optimisation or simplification is expected to move.
LAYER_FUNCTIONS = (
    "gauss_sums.closed_coefficients",
    "gauss_sums.direct_coefficients",
    "gauss_sums.mod_inverse",
    "gauss_sums.jacobi_symbol",
    "superposition.build_descriptor",
    "superposition.coefficients_by_inverse_dft",
    "superposition.verify_forward_dft",
    "superposition.descriptor_to_json",
    "fock.coherent_vector",
    "fock.kitten_vector_series",
    "fock.eigen_residual",
    "fock.aN_identity_residual",
    "wavefunc.hermite_basis",
    "wavefunc.mehler_kernel",
    "wavefunc.frac_fourier",
    "wavefunc.geneq_residual",
    "wavefunc.kitten_wave_sample",
    "verify.run_checks",
    "cli.main",
)

ALLOC_FUNCTIONS = (
    "gauss_sums.direct_coefficients",
    "superposition.coefficients_by_inverse_dft",
    "wavefunc.frac_fourier",
    "wavefunc.hermite_basis",
    "cli.main",
)

CHECKS = (
    "golden-states-exact",
    "closed-vs-direct",
    "closed-vs-inverse-dft",
    "closed-magnitude-exact",
    "forward-dft-identity",
    "eigen-equation",
    "series-vs-superposition",
    "lowering-power-identity",
    "kerr-vector-identity",
    "kerr-matrix-identity",
    "time-evolution",
    "kernel-spectral",
    "integro-differential",
    "integro-differential-parity",
    "cat-wavefunction-parity",
    "cat-wavefunction-fourier",
)


# Which end-to-end metric, on which workload, each function's or module's
# layer metrics should move.  Read a layer metric on the workload named
# here: elsewhere it may come from the small probe (see run.py).
#
# On cli the six coeffs calls take about half of wall_s and lie above p90;
# the state calls set call_p90_ms, and the wavefunction and evolve calls
# set call_p50_ms.  The coefficient routes therefore map to wall_s on cli,
# not to a percentile.  No workload calls the Fock residuals, which only
# verify's fock group runs: their figures come from the probe and move no
# end-to-end metric.
MOVES = {
    "gauss_sums.closed_coefficients": (("wall_s", "sweep"), ("wall_s", "cli")),
    "gauss_sums.direct_coefficients": (("wall_s", "sweep"), ("wall_s", "cli"),
                                       ("peak_rss_mb", "cli")),
    "gauss_sums.mod_inverse": (("wall_s", "sweep"),),
    "gauss_sums.jacobi_symbol": (("wall_s", "sweep"),),
    "superposition.build_descriptor": (("call_p90_ms", "cli"), ("wall_s", "cli")),
    "superposition.coefficients_by_inverse_dft": (("wall_s", "sweep"), ("wall_s", "cli"),
                                                  ("peak_rss_mb", "cli")),
    "superposition.verify_forward_dft": (("wall_s", "sweep"),),
    "superposition.descriptor_to_json": (("call_p90_ms", "cli"),),
    "fock.coherent_vector": (("call_p50_ms", "cli"),),
    "fock.kitten_vector_series": (("call_p50_ms", "cli"),),
    "fock.eigen_residual": (),
    "fock.aN_identity_residual": (),
    "wavefunc.hermite_basis": (("wall_s", "grid"), ("peak_rss_mb", "grid"),
                               ("call_p50_ms", "cli")),
    "wavefunc.mehler_kernel": (("wall_s", "grid"), ("peak_rss_mb", "grid")),
    "wavefunc.frac_fourier": (("wall_s", "grid"), ("peak_rss_mb", "grid")),
    "wavefunc.geneq_residual": (("wall_s", "grid"),),
    "wavefunc.kitten_wave_sample": (("call_p50_ms", "cli"),),
    "verify.run_checks": (("wall_s", "sweep"), ("wall_s", "grid")),
    "cli.main": (("wall_s", "cli"), ("call_p50_ms", "cli"), ("call_p90_ms", "cli"),
                 ("peak_rss_mb", "cli")),
    "gauss_sums": (("wall_s", "sweep"), ("wall_s", "cli")),
    "superposition": (("wall_s", "sweep"), ("wall_s", "cli")),
    "fock": (("call_p50_ms", "cli"),),
    "wavefunc": (("wall_s", "grid"), ("call_p50_ms", "cli")),
    "verify": (("wall_s", "sweep"),),
    "cli": (("call_p50_ms", "cli"),),
}


def moves(name: str) -> tuple:
    """(end-to-end metric, workload) pairs a layer metric should move; empty
    for the informational ones (residual values, probe-only Fock residuals,
    tracing overhead)."""
    if name.endswith(".value") or name == "tracing_overhead_s":
        return ()
    return MOVES[name.rsplit(".", 1)[0]]


def per_layer() -> list[tuple[str, str]]:
    out = []
    for f in LAYER_FUNCTIONS:
        out += [(f"{f}.calls", "count"), (f"{f}.self_s", "s"), (f"{f}.us_per_item", "us")]
    out += [(f"{m}.self_s", "s") for m in MODULES]
    out.append(("tracing_overhead_s", "s"))
    out += [(f"{f}.alloc_peak_mb", "MB") for f in ALLOC_FUNCTIONS]
    out += [(f"verify.{c}.value", "1") for c in CHECKS]
    return out
