"""Verification sweeps: every defining identity of the construction, each
reported as a named check with a measured residual and a pinned tolerance.

The checks are grouped by subject so they can be run selectively:

    gauss     exact reference states, the three coefficient routes, and
              the forward transform identity
    fock      eigen-equation, series vs. superposition, operator identities
    wavefunc  kernel spectral property, integro-differential residuals,
              closed-form wavefunctions

``run_checks`` returns the results in a fixed order; the CLI renders them
and the acceptance test suite asserts them one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import fock, wavefunc
from .gauss_sums import CoprimeFraction, closed_coefficients, direct_coefficients
from .superposition import (
    build_descriptor,
    coefficients_by_inverse_dft,
    reference_state_table,
    verify_forward_dft,
)
from .wavefunc import GridSpec, hermite_basis, mehler_kernel

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
    times: tuple[float, ...] = (0.3, 0.7, 2.0 * math.pi)
    spectral_angles: tuple[float, ...] = (-math.pi / 2, math.pi / 2,
                                          2.0 * math.pi / 3, 2.0 * math.pi / 5)
    spectral_n_max: int = 10
    geneq_fractions: tuple[tuple[int, int], ...] = ((1, 4), (3, 4), (1, 3))
    cat_x_max: float = 6.0
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


def check_golden_states() -> CheckResult:
    """Exact rational-phase equality of built descriptors against the
    hand-derived reference table (zero tolerance)."""
    rows = ([float(build_descriptor(f) != reference)] for f, reference in reference_state_table())
    return _sweep("gauss", ["golden-states-exact"], rows, "{cases} reference states")[0]


def _route_residuals(fractions: list[CoprimeFraction]) -> np.ndarray:
    closed = [closed_coefficients(f) for f in fractions]
    values = np.array([[c.value for c in row] for row in closed])
    return np.column_stack([
        np.abs(values - direct_coefficients(*fractions)).max(axis=1),
        np.abs(values - coefficients_by_inverse_dft(*fractions)).max(axis=1),
        [sum([c.inv_sqrt_n != f.N for c in row]) for f, row in zip(fractions, closed)],
        verify_forward_dft(*fractions, coefficients=values)])


def check_coefficient_routes(cfg: VerifyConfig) -> list[CheckResult]:
    """One sweep over all coprime fractions with N <= coeff_n_max comparing
    the closed form against the direct sum and the inverse DFT, checking
    the exact magnitude of the closed route (the value is the most wrong
    magnitudes in one fraction), and verifying the forward transform
    identity.  Each route runs once per denominator, with one row per fraction."""
    names = ["closed-vs-direct", "closed-vs-inverse-dft", "closed-magnitude-exact",
             "forward-dft-identity"]
    by_n = groupby(coprime_fractions(cfg.coeff_n_max), key=lambda f: f.N)
    blocks = (_route_residuals(list(group)) for _, group in by_n)
    return _sweep("gauss", names, blocks, f"{{cases}} fractions, N <= {cfg.coeff_n_max}")


def check_eigen_equation(cfg: VerifyConfig) -> CheckResult:
    rows = ([fock.eigen_residual(alpha, f, cfg.dim)]
            for f, alpha in product(coprime_fractions(cfg.fock_n_max), cfg.alphas))
    return _sweep("fock", ["eigen-equation"], rows, _fock_detail(cfg))[0]


def check_series_vs_superposition(cfg: VerifyConfig) -> CheckResult:
    rows = ([np.linalg.norm(fock.kitten_vector_series(alpha, desc.fraction, cfg.dim)
                            - fock.kitten_vector_superposition(alpha, desc, cfg.dim))]
            for desc in map(build_descriptor, coprime_fractions(cfg.fock_n_max))
            for alpha in cfg.alphas)
    return _sweep("fock", ["series-vs-superposition"], rows, _fock_detail(cfg))[0]


def check_lowering_power(cfg: VerifyConfig) -> CheckResult:
    rows = ([fock.aN_identity_residual(f, cfg.power_dim)]
            for f in coprime_fractions(cfg.power_n_max))
    return _sweep("fock", ["lowering-power-identity"], rows,
                  f"N <= {cfg.power_n_max}, dim {cfg.power_dim}")[0]


def check_kerr(cfg: VerifyConfig) -> list[CheckResult]:
    """The Kerr identity on coherent vectors, per fraction and amplitude, and
    as a matrix conjugation, once per fraction."""
    vector = ([fock.kerr_identity_residual(alpha, f, cfg.dim)]
              for f, alpha in product(coprime_fractions(cfg.fock_n_max), cfg.alphas))
    matrix = ([fock.kerr_conjugation_residual(f, cfg.dim)]
              for f in coprime_fractions(cfg.fock_n_max))
    return (_sweep("fock", ["kerr-vector-identity"], vector, _fock_detail(cfg))
            + _sweep("fock", ["kerr-matrix-identity"], matrix, _fock_detail(cfg)))


def check_time_evolution(cfg: VerifyConfig) -> CheckResult:
    rows = ([r] for f, alpha in product(coprime_fractions(cfg.fock_n_max), cfg.alphas)
            for r in fock.time_evolution_residual(alpha, f, cfg.times, cfg.dim))
    times = ", ".join(f"{t:g}" for t in cfg.times)
    return _sweep("fock", ["time-evolution"], rows, f"t in {{{times}}}")[0]


def spectral_error(grid: GridSpec, phi: float, n_max: int) -> float:
    """max over n <= n_max and the grid of |F_phi psi_n - exp(-i*phi*n) psi_n|,
    with F_phi the trapezoid quadrature of the dense Mehler kernel."""
    x = grid.x()
    basis = hermite_basis(n_max, x)
    kernel = mehler_kernel(x[:, None], x[None, :], phi)
    transformed = (grid.trapezoid_weights() * basis) @ kernel.T
    expected = np.exp(-1j * phi * np.arange(n_max + 1))[:, None] * basis
    return float(np.abs(transformed - expected).max())


def check_kernel_spectral(cfg: VerifyConfig) -> CheckResult:
    """frac_fourier must act on psi_n as multiplication by exp(-i*phi*n);
    the single strongest probe of the kernel normalization."""
    rows = ([spectral_error(cfg.grid, phi, cfg.spectral_n_max)] for phi in cfg.spectral_angles)
    angles = ", ".join(f"{p:.4f}" for p in cfg.spectral_angles)
    return _sweep("wavefunc", ["kernel-spectral"], rows,
                  f"n <= {cfg.spectral_n_max}, phi in {{{angles}}}")[0]


def check_integro_differential(cfg: VerifyConfig) -> list[CheckResult]:
    def rows(fractions):
        return ([wavefunc.geneq_residual(1.0, CoprimeFraction(m, n), cfg.grid, cfg.dim)]
                for m, n in fractions)

    listed = ", ".join(f"{m}/{n}" for m, n in cfg.geneq_fractions)
    return (_sweep("wavefunc", ["integro-differential"], rows(cfg.geneq_fractions),
                   f"alpha=1, M/N in {{{listed}}}")
            + _sweep("wavefunc", ["integro-differential-parity"], rows([(1, 2)]),
                     "alpha=1, M/N = 1/2"))


def check_cat_wavefunctions(cfg: VerifyConfig) -> list[CheckResult]:
    """Closed-form cat wavefunctions against their coherent-state
    superpositions: exact for the parity cat, up to one global constant
    (fixed at x = 0) for the Fourier cat."""
    x = np.linspace(-cfg.cat_x_max, cfg.cat_x_max, cfg.cat_x_points)
    mid = cfg.cat_x_points // 2
    desc_p = build_descriptor(CoprimeFraction(1, 2))
    desc_f = build_descriptor(CoprimeFraction(3, 4))

    def residuals(alpha: complex) -> tuple[float, float]:
        sup_p = wavefunc.superposition_wavefunction(alpha, desc_p, x)
        sup_f = wavefunc.superposition_wavefunction(alpha, desc_f, x)
        closed_f = wavefunc.psi_cat_F(alpha, x)
        scale = sup_f[mid] / closed_f[mid]
        return (np.abs(sup_p - wavefunc.psi_cat_P(alpha, x)).max(),
                np.abs(sup_f - scale * closed_f).max())

    return _sweep("wavefunc", ["cat-wavefunction-parity", "cat-wavefunction-fourier"],
                  map(residuals, cfg.alphas), f"|x| <= {cfg.cat_x_max:g}")


def run_checks(cfg: VerifyConfig | None = None,
               groups: Iterable[str] | None = None) -> list[CheckResult]:
    """Run every check (or only the requested groups) in a fixed order."""
    cfg = cfg or VerifyConfig()
    wanted = set(GROUPS if groups is None else groups)
    unknown = wanted - set(GROUPS)
    if unknown:
        raise ValueError(f"unknown check groups: {sorted(unknown)}")
    results: list[CheckResult] = []
    if "gauss" in wanted:
        results.append(check_golden_states())
        results.extend(check_coefficient_routes(cfg))
    if "fock" in wanted:
        results.append(check_eigen_equation(cfg))
        results.append(check_series_vs_superposition(cfg))
        results.append(check_lowering_power(cfg))
        results.extend(check_kerr(cfg))
        results.append(check_time_evolution(cfg))
    if "wavefunc" in wanted:
        results.append(check_kernel_spectral(cfg))
        results.extend(check_integro_differential(cfg))
        results.extend(check_cat_wavefunctions(cfg))
    return results
