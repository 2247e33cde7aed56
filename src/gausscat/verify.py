"""Verification sweeps: every defining identity of the construction, each
reported as a named check with a measured residual and a pinned tolerance.

The checks are grouped by subject so they can be run selectively:

    gauss     exact reference states, the three coefficient routes, and
              the forward transform identity
    fock      eigen-equation, series vs. superposition, operator identities
    wavefunc  kernel spectral property, integro-differential residuals,
              closed-form wavefunctions

Each ``check_*(cfg)`` returns its list of results.  ``run_checks`` runs them
from one group table, looked up at call time, in a fixed order; the CLI
renders the results and the acceptance test suite asserts them one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import fock, wavefunc
# closed_coefficients is not called here: perfbench/selftest.py's rebinding list needs it bound
from .gauss_sums import (CoprimeFraction, _closed_numerators, closed_coefficients,
                         direct_coefficients, unit_phase)
from .superposition import (
    build_descriptor,
    coefficients_by_inverse_dft,
    reference_state_table,
    verify_forward_dft,
)
from .wavefunc import GridSpec, hermite_basis

__all__ = [
    "CheckResult",
    "GROUPS",
    "TOLERANCES",
    "VerifyConfig",
    "coprime_fractions",
    "run_checks",
    "spectral_error",
]

GROUPS = ("gauss", "fock", "wavefunc")

# Pinned acceptance tolerances, keyed by check name.
TOLERANCES = {
    "golden-states-exact": 0.0,
    "closed-vs-direct": 1e-12,
    "closed-vs-inverse-dft": 1e-12,
    "closed-magnitude-exact": 0.0,
    "forward-dft-identity": 1e-10,
    "eigen-equation": 1e-9,
    "series-vs-superposition": 1e-10,
    "lowering-power-identity": 1e-12,
    "kerr-vector-identity": 1e-12,
    "kerr-matrix-identity": 1e-12,
    "time-evolution": 1e-10,
    "kernel-spectral": 1e-6,
    "integro-differential": 1e-5,
    "integro-differential-parity": 1e-10,
    "cat-wavefunction-parity": 1e-12,
    "cat-wavefunction-fourier": 1e-10,
}


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""


# The fixed cases of the fock and wavefunc checks: evolution times, kernel
# angles, integro-differential fractions M/N, and the cat wavefunctions' |x| range.
TIMES = (0.3, 0.7, 2.0 * math.pi)
SPECTRAL_ANGLES = (-math.pi / 2, math.pi / 2, 2.0 * math.pi / 3, 2.0 * math.pi / 5)
GENEQ_FRACTIONS = ((1, 4), (3, 4), (1, 3))
CAT_X_MAX = 6.0


@dataclass(frozen=True)
class VerifyConfig:
    """Sweep sizes and numerical parameters; defaults reproduce the full
    acceptance run."""

    coeff_n_max: int = 200
    fock_n_max: int = 12
    power_n_max: int = 8
    dim: int = 64
    power_dim: int = 32
    grid: GridSpec = GridSpec(12.0, 2001)
    alphas: tuple[complex, ...] = (0.5, 1.0, 1.5 + 0.5j)
    spectral_n_max: int = 10
    cat_x_points: int = 481


def coprime_fractions(n_max: int) -> Iterator[CoprimeFraction]:
    """All reduced fractions M/N with 2 <= N <= n_max, ordered by (N, M)."""
    for n in range(2, n_max + 1):
        for m in range(1, n):
            if math.gcd(m, n) == 1:
                yield CoprimeFraction(m, n)


def _sweep(group: str, names: Sequence[str], rows: Iterable[Sequence[float] | np.ndarray],
           detail: str) -> list[CheckResult]:
    """One result per residual column: the worst value of that column over
    all rows, one row per case; an item of ``rows`` may be a 2-D block of rows.

    This is the only place a check's value is reduced.  A NaN residual
    propagates to the value and fails the check, and a sweep over no cases
    at all has value inf and fails too.  "{cases}" in ``detail`` becomes the
    number of cases.
    """
    table = np.vstack([np.empty((0, len(names))), *rows], dtype=float)
    worst = table.max(axis=0) if len(table) else np.full(len(names), np.inf)
    detail = detail.replace("{cases}", str(len(table)))
    return [CheckResult(group, name, value, TOLERANCES[name], value <= TOLERANCES[name], detail)
            for name, value in zip(names, worst.tolist())]


def _fock_detail(cfg: VerifyConfig) -> str:
    return f"N <= {cfg.fock_n_max}, dim {cfg.dim}"


def check_golden_states(cfg: VerifyConfig) -> list[CheckResult]:
    """Exact rational-phase equality of built descriptors against the
    fixed hand-derived reference table (zero tolerance); ``cfg`` is unused."""
    rows = ([float(build_descriptor(f) != reference)] for f, reference in reference_state_table())
    return _sweep("gauss", ["golden-states-exact"], rows, "{cases} reference states")


def _route_residuals(fractions: list[CoprimeFraction]) -> np.ndarray:
    n = fractions[0].N
    values = unit_phase(_closed_numerators(*fractions), 4 * n) / math.sqrt(n)
    direct = direct_coefficients(*fractions)
    return np.column_stack([
        np.abs(values - direct).max(axis=1),
        np.abs(values - coefficients_by_inverse_dft(*fractions)).max(axis=1),
        (np.rint(n * np.abs(direct) ** 2) != 1).sum(axis=1),
        verify_forward_dft(*fractions, coefficients=values)])


def check_coefficient_routes(cfg: VerifyConfig) -> list[CheckResult]:
    """One sweep over all coprime fractions with N <= coeff_n_max comparing
    the closed form, evaluated from its integer numerator table, against the
    direct sum and the inverse DFT, checking the magnitude law N*|c_k|^2 = 1
    on the direct sums as an integer after rounding (the value is the most
    k that break it in one fraction), and verifying the forward transform
    identity.  Each route runs once per denominator, with one row per fraction."""
    names = ["closed-vs-direct", "closed-vs-inverse-dft", "closed-magnitude-exact",
             "forward-dft-identity"]
    by_n = groupby(coprime_fractions(cfg.coeff_n_max), key=lambda f: f.N)
    blocks = (_route_residuals(list(group)) for _, group in by_n)
    return _sweep("gauss", names, blocks, f"{{cases}} fractions, N <= {cfg.coeff_n_max}")


def check_eigen_equation(cfg: VerifyConfig) -> list[CheckResult]:
    rows = ([fock.eigen_residual(alpha, f, cfg.dim)]
            for f, alpha in product(coprime_fractions(cfg.fock_n_max), cfg.alphas))
    return _sweep("fock", ["eigen-equation"], rows, _fock_detail(cfg))


def check_series_vs_superposition(cfg: VerifyConfig) -> list[CheckResult]:
    rows = ([np.linalg.norm(fock.kitten_vector_series(alpha, desc.fraction, cfg.dim)
                            - fock.kitten_vector_superposition(alpha, desc, cfg.dim))]
            for desc in map(build_descriptor, coprime_fractions(cfg.fock_n_max))
            for alpha in cfg.alphas)
    return _sweep("fock", ["series-vs-superposition"], rows, _fock_detail(cfg))


def check_lowering_power(cfg: VerifyConfig) -> list[CheckResult]:
    rows = ([fock.aN_identity_residual(f, cfg.power_dim)]
            for f in coprime_fractions(cfg.power_n_max))
    return _sweep("fock", ["lowering-power-identity"], rows,
                  f"N <= {cfg.power_n_max}, dim {cfg.power_dim}")


def check_kerr(cfg: VerifyConfig) -> list[CheckResult]:
    """The Kerr identity on coherent vectors, for every amplitude at once, and
    as a matrix conjugation: one row of both per fraction."""
    rows = ([fock.kerr_identity_residual(f, cfg.dim), fock.kerr_conjugation_residual(f, cfg.dim)]
            for f in coprime_fractions(cfg.fock_n_max))
    return _sweep("fock", ["kerr-vector-identity", "kerr-matrix-identity"], rows, _fock_detail(cfg))


def check_time_evolution(cfg: VerifyConfig) -> list[CheckResult]:
    rows = ([r] for f, alpha in product(coprime_fractions(cfg.fock_n_max), cfg.alphas)
            for r in fock.time_evolution_residual(alpha, f, TIMES, cfg.dim))
    times = ", ".join(f"{t:g}" for t in TIMES)
    return _sweep("fock", ["time-evolution"], rows, f"t in {{{times}}}")


def spectral_error(grid: GridSpec, phi: float, n_max: int) -> float:
    """max over n <= n_max and the grid of |F_phi psi_n - exp(-i*phi*n) psi_n|,
    with F_phi the program's own trapezoid transform, the one behind
    ``frac_fourier``, applied to all n at once."""
    basis = hermite_basis(n_max, grid.x())
    transformed = wavefunc._trapezoid_transform(grid, basis, phi)
    expected = np.exp(-1j * phi * np.arange(n_max + 1))[:, None] * basis
    return float(np.abs(transformed - expected).max())


def check_kernel_spectral(cfg: VerifyConfig) -> list[CheckResult]:
    """The program's trapezoid transform (``spectral_error``) must act on psi_n
    as multiplication by exp(-i*phi*n), which pins the kernel's normalization.
    The public frac_fourier is not called here, so a fault in it alone shows in
    integro-differential, and a fault in the shared transform shows in both."""
    rows = ([spectral_error(cfg.grid, phi, cfg.spectral_n_max)] for phi in SPECTRAL_ANGLES)
    angles = ", ".join(f"{p:.4f}" for p in SPECTRAL_ANGLES)
    return _sweep("wavefunc", ["kernel-spectral"], rows,
                  f"n <= {cfg.spectral_n_max}, phi in {{{angles}}}")


def check_integro_differential(cfg: VerifyConfig) -> list[CheckResult]:
    def rows(fractions):
        return ([wavefunc.geneq_residual(1.0, CoprimeFraction(m, n), cfg.grid, cfg.dim)]
                for m, n in fractions)

    listed = ", ".join(f"{m}/{n}" for m, n in GENEQ_FRACTIONS)
    return (_sweep("wavefunc", ["integro-differential"], rows(GENEQ_FRACTIONS),
                   f"alpha=1, M/N in {{{listed}}}")
            + _sweep("wavefunc", ["integro-differential-parity"], rows([(1, 2)]),
                     "alpha=1, M/N = 1/2"))


def check_cat_wavefunctions(cfg: VerifyConfig) -> list[CheckResult]:
    """Closed-form cat wavefunctions against their coherent-state
    superpositions: the parity cat as it is, and the Fourier cat and its
    inverse variant times their exact constant pi^{-1/4}, against the 3/4 and
    the 1/4 superposition in one column."""
    x = np.linspace(-CAT_X_MAX, CAT_X_MAX, cfg.cat_x_points)
    cats = [(build_descriptor(CoprimeFraction(m, n)), constant, closed)
            for m, n, constant, closed in ((1, 2, 1.0, wavefunc.psi_cat_P),
                                           (3, 4, math.pi ** -0.25, wavefunc.psi_cat_F),
                                           (1, 4, math.pi ** -0.25, wavefunc.psi_cat_F_inverse))]

    def residuals(alpha: complex) -> tuple[float, float]:
        off = [np.abs(wavefunc.superposition_wavefunction(alpha, desc, x)
                      - constant * closed(alpha, x)).max() for desc, constant, closed in cats]
        return off[0], max(off[1:])

    return _sweep("wavefunc", ["cat-wavefunction-parity", "cat-wavefunction-fourier"],
                  map(residuals, cfg.alphas), f"|x| <= {CAT_X_MAX:g}")


def run_checks(cfg: VerifyConfig | None = None,
               groups: Iterable[str] | None = None) -> list[CheckResult]:
    """Run every check (or only the requested groups) in the order of GROUPS.  The
    table is built at each call, so a check rebound here (by a tracer) is the one run."""
    cfg = cfg or VerifyConfig()
    wanted = set(GROUPS if groups is None else groups)
    if unknown := wanted - set(GROUPS):
        raise ValueError(f"unknown check groups: {sorted(unknown)}")
    table = dict(zip(GROUPS, [
        [check_golden_states, check_coefficient_routes],
        [check_eigen_equation, check_series_vs_superposition, check_lowering_power, check_kerr,
         check_time_evolution],
        [check_kernel_spectral, check_integro_differential, check_cat_wavefunctions]]))
    return [r for group in GROUPS if group in wanted for check in table[group] for r in check(cfg)]
