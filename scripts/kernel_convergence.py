#!/usr/bin/env python3
"""Convergence study of the quadrature fractional Fourier transform.

Sweeps the grid point count and reports, as CSV on stdout, the worst
spectral error max_n |F_phi psi_n - exp(-i phi n) psi_n| and the round-trip
error of applying phi then -phi to a coherent wavefunction.

Usage:
    python scripts/kernel_convergence.py
    python scripts/kernel_convergence.py --phi 1.2566 --n-max 12
"""

import argparse
import math

import numpy as np

from gausscat.verify import spectral_error
from gausscat.wavefunc import GridSpec, WaveSample, frac_fourier, psi_coherent


HALF_WIDTH = 12.0
POINT_COUNTS = (51, 75, 101, 151, 201, 401, 801, 2001)
ALPHA = 1.0  # amplitude of the round-trip coherent wavefunction


def round_trip_error(grid: GridSpec, phi: float) -> float:
    sample = WaveSample(grid, psi_coherent(ALPHA, grid.x()))
    back = frac_fourier(frac_fourier(sample, phi), -phi)
    return float(np.abs(back.values - sample.values).max())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phi", type=float, default=2.0 * math.pi / 5.0)
    parser.add_argument("--n-max", type=int, default=10)
    args = parser.parse_args()

    print("points,spacing,spectral_error,round_trip_error")
    for points in POINT_COUNTS:
        grid = GridSpec(HALF_WIDTH, points)
        print(f"{points},{grid.spacing:.6g},{spectral_error(grid, args.phi, args.n_max):.6e},"
              f"{round_trip_error(grid, args.phi):.6e}")


if __name__ == "__main__":
    main()
