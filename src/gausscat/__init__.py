"""Superpositions of harmonic-oscillator coherent states whose coefficients
are quadratic Gauss sums, with exact closed forms and a numerical
verification harness in truncated Fock space and on coordinate grids."""

from .gauss_sums import (
    CoprimeFraction,
    ExactCoefficient,
    RationalAngle,
    closed_coefficients,
    direct_coefficients,
    gcd,
    jacobi_symbol,
    mod_inverse,
    unit_phase,
)
from .superposition import (
    KittenComponent,
    KittenDescriptor,
    build_descriptor,
    coefficients_by_inverse_dft,
    descriptor_from_json,
    descriptor_to_json,
    reference_state_table,
    verify_forward_dft,
)
from .fock import (
    TruncationWarning,
    aN_identity_residual,
    annihilation_matrix,
    coherent_vector,
    creation_matrix,
    eigen_residual,
    evolution_fidelity,
    kerr_conjugation_residual,
    kerr_diagonal,
    kerr_identity_residual,
    kitten_vector_series,
    kitten_vector_superposition,
    mu_factor,
    rotation_diagonal,
    time_evolution_residual,
)
from .wavefunc import (
    AliasingWarning,
    GridSpec,
    WaveSample,
    frac_fourier,
    geneq_residual,
    hermite_basis,
    kitten_wave_sample,
    mehler_kernel,
    psi_cat_F,
    psi_cat_F_inverse,
    psi_cat_P,
    psi_coherent,
    superposition_wavefunction,
)
from .verify import CheckResult, VerifyConfig, coprime_fractions, run_checks

__version__ = "0.1.0"
