#!/usr/bin/env python3
"""Curvature-formula audit: closed forms versus the exact oracles.

Sweeps a grid of admissible points on one curved surface per family and
summarises the gaps between the closed-form curvature/mean
curvature and the oracle values.  The oracles are exact (Brioschi's
formula and the Gauss formula on the diagonal induced metric); the
finite-difference oracles, ``gaussian_curvature_fd`` and
``mean_curvature_fd``, are their cross-check in the test suite.  Large
gaps are data: the closed forms are under audit, the oracles carry the
ground truth.
"""

import argparse

from rotsurf import (DoubleRotationSurface, ProfileFunction, curvature_grid,
                     make_family)


def profile(text):
    return ProfileFunction.from_text(text, -10.0, 10.0)


SURFACES = [
    ("hyperbolic14",
     DoubleRotationSurface(
         make_family("hyperbolic14", "A", "2 + t^2/8", "3 + t", 0.1, 2.0),
         profile("t/2"), profile("t"))),
    ("hyperbolic23",
     DoubleRotationSurface(
         make_family("hyperbolic23", "A", "2 + t/2", "1 + t/4", 0.1, 2.0),
         profile("t"), profile("t/3"))),
    ("elliptic56",
     DoubleRotationSurface(
         make_family("elliptic56", "A", "1 + t/8", "2 + t", 0.1, 2.0),
         profile("t/4"), profile("t"))),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=6,
                        help="points per axis")
    parser.add_argument("--verbose", action="store_true",
                        help="print every grid point")
    args = parser.parse_args()

    points = [0.2 + 1.6 * i / max(args.grid - 1, 1) for i in range(args.grid)]
    for name, surface in SURFACES:
        k_gaps, h_gaps = [], []
        for t, s, k_formula, k_oracle, k_gap, _, _, h_gap in curvature_grid(
                surface, points, points):
            k_gaps.append(k_gap)
            h_gaps.append(h_gap)
            if args.verbose:
                print(f"  t={t:.3f} s={s:.3f} K_formula={k_formula:+.6e} "
                      f"K_oracle={k_oracle:+.6e} gap={k_gap:.3e}")
        count = len(k_gaps)
        print(f"{name}: {count} points, "
              f"K_gap max={max(k_gaps):.3e} mean={sum(k_gaps) / count:.3e}, "
              f"H_gap max={max(h_gaps):.3e} mean={sum(h_gaps) / count:.3e}")


if __name__ == "__main__":
    main()
