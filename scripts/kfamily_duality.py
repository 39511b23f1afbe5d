#!/usr/bin/env python3
"""Compare rank multisets across the m/n swap on the twisted families.

-(4mn-1)/n surgery on the (m,k) pattern and -(4mn-1)/m surgery on the
(n,k) pattern describe the same manifold, so the spin-c rank multisets
must coincide even though the per-class labelling differs.
"""

import argparse
from collections import Counter

from hfcone.cone import Framing, surgery_report
from hfcone.profiles import k_family


def _multiset(profile, framing) -> Counter:
    counts = Counter()
    for run, group in surgery_report(profile, framing).runs:
        counts[group.free_rank] += run.stop - run.start
    return counts


def _render(counts: Counter) -> str:
    return ", ".join(f"{r}^{counts[r]}" for r in sorted(counts))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-m", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--max-k", type=int, default=2)
    args = ap.parse_args()

    bad = 0
    for m in range(1, args.max_m + 1):
        for n in range(1, args.max_n + 1):
            for k in range(1, args.max_k + 1):
                p = 4 * m * n - 1
                left = _multiset(k_family(m, k), Framing(-p, n))
                right = _multiset(k_family(n, k), Framing(-p, m))
                tag = "ok" if left == right else "MISMATCH"
                if left != right:
                    bad += 1
                print(f"m={m} n={n} k={k} p={p}: {tag}")
                print(f"  left  (rank^count): {_render(left)}")
                if left != right:
                    print(f"  right (rank^count): {_render(right)}")
    print(f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
