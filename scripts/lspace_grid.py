#!/usr/bin/env python3
"""Sweep negative surgeries on staircase patterns and compare the computed
L-structure count against the closed formula p - (2g-1)q."""

import argparse
from math import gcd

from hfcone.cone import Framing, surgery_report
from hfcone.obstruct import ell_formula_lspace
from hfcone.profiles import lspace_knot


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-genus", type=int, default=4)
    ap.add_argument("--max-q", type=int, default=5)
    ap.add_argument("--max-p", type=int, default=80)
    ap.add_argument("--verbose", action="store_true", help="print every framing")
    args = ap.parse_args()

    checked = 0
    misses = []
    for g in range(1, args.max_genus + 1):
        profile = lspace_knot(g)
        for q in range(1, args.max_q + 1):
            for p in range((2 * g - 1) * q + 1, args.max_p + 1):
                if gcd(p, q) != 1:
                    continue
                report = surgery_report(profile, Framing(-p, q))
                want = ell_formula_lspace(g, p, q)
                checked += 1
                if args.verbose:
                    print(f"g={g} -{p}/{q}: ell={report.ell} expected={want}")
                if report.ell != want:
                    misses.append((g, p, q, report.ell, want))

    print(f"checked {checked} framings, {len(misses)} mismatches")
    for g, p, q, got, want in misses:
        print(f"  g={g} -{p}/{q}: ell={got}, formula says {want}")
    return 1 if misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
