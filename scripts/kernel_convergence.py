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
from dataclasses import dataclass

import numpy as np

from gausscat.verify import spectral_error
from gausscat.wavefunc import GridSpec, WaveSample, frac_fourier, psi_coherent


HALF_WIDTH = 12.0
POINT_COUNTS = (51, 75, 101, 151, 201, 401, 801, 2001)
ALPHA = 1.0  # amplitude of the round-trip coherent wavefunction


@dataclass
class SweepConfig:
    phi: float = 2.0 * math.pi / 5.0
    n_max: int = 10


def round_trip_error(cfg: SweepConfig, grid: GridSpec) -> float:
    sample = WaveSample(grid, psi_coherent(ALPHA, grid.x()))
    back = frac_fourier(frac_fourier(sample, cfg.phi), -cfg.phi)
    return float(np.abs(back.values - sample.values).max())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phi", type=float, default=SweepConfig.phi)
    parser.add_argument("--n-max", type=int, default=SweepConfig.n_max)
    args = parser.parse_args()
    cfg = SweepConfig(phi=args.phi, n_max=args.n_max)

    print("points,spacing,spectral_error,round_trip_error")
    for points in POINT_COUNTS:
        grid = GridSpec(HALF_WIDTH, points)
        print(f"{points},{grid.spacing:.6g},{spectral_error(grid, cfg.phi, cfg.n_max):.6e},"
              f"{round_trip_error(cfg, grid):.6e}")


if __name__ == "__main__":
    main()
