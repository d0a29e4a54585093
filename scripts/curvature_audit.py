#!/usr/bin/env python3
"""Curvature audit: closed forms versus the exact oracles.

Sweeps a grid of points on one curved surface per family, in both
variants, and summarises the gaps between the closed-form curvature and
mean curvature and the oracle values.  The oracles are exact (Brioschi's
formula and the Gauss formula on the diagonal induced metric); the
finite-difference oracles, ``gaussian_curvature_fd`` and
``mean_curvature_fd``, are their cross-check in the test suite.

Exits 1 when a gap exceeds its tolerance: K_gap > 1e-9 max(1, |K_oracle|)
or H_gap > 1e-9 max(1, max |H_oracle|).
"""

import argparse
import sys

from rotsurf import (DoubleRotationSurface, ProfileFunction,
                     curvature_report, make_family)

TOLERANCE = 1e-9

# (family, fa, fb, x-angle, w-angle), each built in variants A and B
SURFACES = [
    ("hyperbolic14", "2 + t^2/8", "3 + t", "t/2", "t"),
    ("hyperbolic23", "2 + t/2", "1 + t/4", "t", "t/3"),
    ("elliptic56", "1 + t/8", "2 + t", "t/4", "t"),
]


def profile(text):
    return ProfileFunction.from_text(text, -10.0, 10.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=6,
                        help="points per axis")
    parser.add_argument("--verbose", action="store_true",
                        help="print every grid point")
    args = parser.parse_args()

    points = [0.2 + 1.6 * i / max(args.grid - 1, 1) for i in range(args.grid)]
    failed = 0
    for kind, fa, fb, angle_u, angle_v in SURFACES:
        for variant in ("A", "B"):
            surface = DoubleRotationSurface(
                make_family(kind, variant, fa, fb, 0.1, 2.0),
                profile(angle_u), profile(angle_v))
            k_gaps, h_gaps = [], []
            for t in points:
                for s in points:
                    r = curvature_report(surface, t, s)
                    k_gaps.append(r.K_gap)
                    h_gaps.append(r.H_gap)
                    h_scale = max(1.0, max(map(abs, r.H_oracle.components())))
                    bad = (r.K_gap > TOLERANCE * max(1.0, abs(r.K_oracle))
                           or r.H_gap > TOLERANCE * h_scale)
                    failed += bad
                    if args.verbose or bad:
                        print(f"  t={t:.3f} s={s:.3f} "
                              f"K_formula={r.K_formula:+.6e} "
                              f"K_oracle={r.K_oracle:+.6e} "
                              f"gap={r.K_gap:.3e} H_gap={r.H_gap:.3e}"
                              + (" FAIL" if bad else ""))
            count = len(k_gaps)
            print(f"{kind}-{variant}: {count} points, "
                  f"K_gap max={max(k_gaps):.3e} "
                  f"mean={sum(k_gaps) / count:.3e}, "
                  f"H_gap max={max(h_gaps):.3e} "
                  f"mean={sum(h_gaps) / count:.3e}")
    if failed:
        print(f"{failed} points exceed the tolerance {TOLERANCE:.0e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
