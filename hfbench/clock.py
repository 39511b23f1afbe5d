"""A reference-speed clock for a machine whose speed drifts.

On a shared host the speed of the same pure-Python loop changes by up to
half over minutes (measured: 20-second medians of a fixed loop spread by
30 % between their quartiles), which would swamp any change in the
program. So every timed query is bracketed by short probes, runs of a
fixed pure-Python kernel, and its duration is scaled by
``PROBE_REF_S / probe``: the time the query would have taken on a
machine where the probe takes exactly ``PROBE_REF_S``. A slower program
still reads slower; a slower machine does not. Raw durations are kept
alongside and reported too.
"""

from __future__ import annotations

from time import perf_counter

PROBE_REF_S = 0.0005  # nominal probe duration; sets the unit of scaled time
PROBE_GAP_S = 0.02  # at most this much measured time between two probes


def _kernel(rounds: int = 150) -> int:
    # integer arithmetic, small lists and dicts: the mix hfcone itself runs
    acc = 0
    rows = [[(i * j) % 7 - 3 for j in range(16)] for i in range(16)]
    for k in range(rounds):
        r = rows[k % 16]
        acc += sum(x * y for x, y in zip(r, rows[(k + 1) % 16]))
        d = {i: x for i, x in enumerate(r)}
        acc ^= d.get(k % 16, 0)
        rows[k % 16] = [x + 1 if x < 3 else -3 for x in r]
    return acc


def probe() -> float:
    """Seconds one kernel run takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from raw to reference seconds for work between two probes."""
    return 2 * PROBE_REF_S / (before + after)
