#!/usr/bin/env python3
"""Print the exact superposition tables for every coprime fraction up to a
denominator bound, with the measured cross-route discrepancy per fraction.

Usage:
    python scripts/state_tables.py            # N <= 8
    python scripts/state_tables.py --n-max 12
"""

import argparse

import numpy as np

from gausscat.gauss_sums import direct_coefficients
from gausscat.superposition import build_descriptor
from gausscat.verify import coprime_fractions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    args = parser.parse_args()

    for f in coprime_fractions(args.n_max):
        desc = build_descriptor(f)
        closed = desc.coefficient_values()
        discrepancy = np.abs(closed - direct_coefficients(f)[0]).max()
        print(f"M/N = {f.M}/{f.N}  ({desc.parity} N, "
              f"cross-route discrepancy {discrepancy:.2e})")
        for c in desc.components:
            print(f"    k={c.k}: {c.coefficient} · "
                  f"|exp(i·{c.rotation})·α⟩")
        print()


if __name__ == "__main__":
    main()
