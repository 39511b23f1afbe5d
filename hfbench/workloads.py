"""Seeded query generators for the four benchmark workloads.

Each generator turns a seed into a list of :class:`Query` objects, argv
lists for ``hfcone.cli.main`` plus the facts the correctness checks need.
The seed picks the inputs; the work per pass is held nearly constant
across seeds by stratifying the sizes that set the cost (|p| for the
many-class workloads, window size for ``wide``, genus and generator
count for ``derive``), so that run-to-run spread measures the program
and not the draw.

``size="tiny"`` shrinks every workload to a few cheap queries for the
smoke tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import exp, gcd, log

WORKLOADS = ("sweep", "wide", "derive", "random-mix")


@dataclass
class Query:
    argv: list[str]
    kind: str  # "ell", "hf", "json" or "staircase"
    items: int  # spin-c classes answered, or A_s slices derived
    selector: str = ""
    p: int = 0
    q: int = 1
    genus: int = 0
    # random-mix only: slot -> (rank, v, h) of the generated profile
    local: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    queries: list[Query]
    files: dict[str, str]  # file name -> text, written before timing
    item_name: str  # "classes" or "slices"


def make(name: str, seed: int, size: str = "full", file_dir: str = ".") -> Workload:
    """The workload ``name`` for ``seed``; profile files are named under
    ``file_dir`` but not written here."""
    rng = random.Random(f"{name}:{seed}")
    tiny = size == "tiny"
    if name == "sweep":
        return Workload(name, _sweep(rng, tiny), {}, "classes")
    if name == "wide":
        return Workload(name, _wide(rng, tiny), {}, "classes")
    if name == "derive":
        return Workload(name, _derive(rng, tiny), {}, "slices")
    if name == "random-mix":
        queries, files = _random_mix(rng, tiny, file_dir)
        return Workload(name, queries, files, "classes")
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _argv(kind: str, selector: str, p: int, q: int) -> list[str]:
    if kind == "ell":
        return ["ell", "--profile", selector, "--framing", f"{p}/{q}"]
    argv = ["hf", "--profile", selector, "--framing", f"{p}/{q}"]
    if kind == "json":
        argv += ["--format", "json"]
    return argv


# ---------------------------------------------------------------------------
# sweep: many tiny windows

_SWEEP_KINDS = ("ell", "hf", "json")
_SWEEP_FAMILIES = ("fig8", "kfam", "lspace", "tau")
_SWEEP_KFAM = ((1, 1), (2, 2), (3, 1), (1, 2), (2, 1), (3, 2))


def _sweep(rng: random.Random, tiny: bool) -> list[Query]:
    strata, p_lo, p_hi = (2, 20, 60) if tiny else (34, 200, 5000)
    # every stratum of |p| gets each kind once, and families and their
    # parameters cycle from seeded offsets, so each combination meets the
    # whole range of |p| whatever the seed and the latency quantiles stay put
    off = [rng.randrange(12) for _ in range(3)]
    out = []
    for k in range(strata):
        for j, kind in enumerate(_SWEEP_KINDS):
            # log-uniform within the stratum keeps the class total seed-independent
            size = round(exp(log(p_lo) + (k + rng.random()) / strata * log(p_hi / p_lo)))
            family = _SWEEP_FAMILIES[(k + j + off[0]) % 4]
            cycle = (k + off[1]) // 2
            if family == "fig8":
                selector, genus = "fig8", 1
            elif family == "kfam":
                genus, twist = _SWEEP_KFAM[cycle % 6]
                selector = f"kfam:m={genus},k={twist}"
            elif family == "lspace":
                genus = 1 + cycle % 4
                selector = f"lspace:g={genus}"
            else:
                selector, genus = "tau:g=3", 3
            if kind == "ell" and family == "fig8":
                # the figure-eight family -(4n+1)/n, which has a closed form
                m = max(1, (size - 1) // 4)
                p, q = -(4 * m + 1), m
            else:
                q = rng.randint(1, 8)
                while gcd(size, q) != 1:
                    size += 1
                # ell queries stay negative, where the closed forms hold
                sign = -1 if kind == "ell" else (1, -1)[(k + j + off[2]) % 2]
                p = sign * size
            out.append(Query(_argv(kind, selector, p, q), kind, abs(p), selector, p, q, genus))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# wide: one dense Smith form per class

# (selector, genus, |p|, q): each cell runs once with each sign of p (the
# sign moves the cost of a class by up to 2x). The queries are fixed and the
# seed only orders them: the latency quantiles of 24 queries sit on single
# queries, and with a cubic cost any seeded change of size or sign moves them.
_WIDE_CELLS = (
    ("kfam:m=2,k=1", 2, 1, 36),
    ("kfam:m=3,k=1", 3, 1, 25),
    ("kfam:m=3,k=2", 3, 2, 33),
    ("kfam:m=2,k=2", 2, 3, 50),
    ("kfam:m=1,k=2", 1, 1, 50),
    ("kfam:m=2,k=1", 2, 1, 30),
    ("kfam:m=1,k=1", 1, 2, 59),
    ("lspace:g=8", 8, 1, 50),
    ("lspace:g=6", 6, 2, 55),
    ("lspace:g=7", 7, 3, 40),
    ("lspace:g=5", 5, 1, 40),
    ("lspace:g=3", 3, 1, 50),
)
_WIDE_TINY = (("kfam:m=1,k=1", 1, 1, 10), ("lspace:g=3", 3, 2, 11))


def _wide(rng: random.Random, tiny: bool) -> list[Query]:
    out = [
        Query(_argv("hf", selector, sign * p, q), "hf", p, selector, sign * p, q, genus)
        for selector, genus, p, q in (_WIDE_TINY if tiny else _WIDE_CELLS)
        for sign in (1, -1)
    ]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# derive: staircase complexes to profiles, no cone

# (genus, torus): genus 5..20 once, T(2, 2g+1) (every exponent present) at
# four of them, and the cheaper half again, so a run pools enough queries
_DERIVE = tuple((g, g in (6, 10, 14, 18)) for g in range(5, 21)) + tuple(
    (g, False) for g in range(5, 14)
)
_DERIVE_TINY = ((5, False), (6, True))


def lspace_alexander(g: int, positives: list[int]) -> list[int]:
    """Coefficients t^g .. t^-g of the staircase polynomial whose positive
    exponents are ``positives`` (descending, starting at g)."""
    exps = positives + [0] + [-e for e in reversed(positives)]
    coeffs = [0] * (2 * g + 1)
    sign = 1
    for e in exps:
        coeffs[g - e] = sign
        sign = -sign
    return coeffs


def _derive(rng: random.Random, tiny: bool) -> list[Query]:
    out = []
    for g, torus in _DERIVE_TINY if tiny else _DERIVE:
        if torus:
            positives = list(range(g, 0, -1))
        else:
            # a fixed number of steps per genus; the seed picks where they fall
            k = -(-g // 2)
            positives = [g] + sorted(rng.sample(range(1, g), k - 1), reverse=True)
        coeffs = ",".join(str(c) for c in lspace_alexander(g, positives))
        argv = ["staircase", "--alexander", coeffs, "--emit-profile"]
        out.append(Query(argv, "staircase", 2 * g + 1, genus=g))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# random-mix: many distinct small profiles read from files

_MIX_GENERA = (0, 1, 1, 2, 2, 2, 3, 3)
_MIX_RANKS = (1, 1, 1, 3, 3, 5)


def _random_local(rng: random.Random, g: int) -> dict:
    unit = lambda: rng.choice((1, -1))  # noqa: E731
    if g == 0:
        return {0: (1, (unit(),), (unit(),))}
    ranks = {s: rng.choice(_MIX_RANKS) for s in range(g)}
    local = {}
    for s in range(-g + 1, g):
        r = ranks[abs(s)]
        local[s] = (
            r,
            tuple(rng.randint(-2, 2) for _ in range(r)),
            tuple(rng.randint(-2, 2) for _ in range(r)),
        )
    local[g] = (1, (unit(),), (0,))
    local[-g] = (1, (0,), (unit(),))
    return local


def profile_text(name: str, g: int, local: dict) -> str:
    lines = ["# generated profile", f"profile {name} genus {g}"]
    for s in sorted(local):
        r, v, h = local[s]
        lines.append(
            f"local {s} rank {r} v {','.join(map(str, v))} h {','.join(map(str, h))}"
        )
    return "\n".join(lines) + "\n"


def _random_mix(rng: random.Random, tiny: bool, file_dir: str):
    n, p_max = (20, 12) if tiny else (1000, 60)
    queries, files = [], {}
    for k in range(n):
        # |p| stratified, genus and q cycling through all their pairs: the
        # window work per pass, which grows with genus * q, stays put
        size = 1 + int(p_max * (k + rng.random()) / n)
        g = _MIX_GENERA[k % len(_MIX_GENERA)]
        q = 1 + (k // len(_MIX_GENERA)) % 8
        while gcd(size, q) != 1:
            q -= 1
        p = rng.choice((1, -1)) * size
        local = _random_local(rng, g)
        fname = f"mix{k:04d}.profile"
        files[fname] = profile_text(f"mix{k}", g, local)
        selector = f"@{file_dir}/{fname}"
        queries.append(
            Query(_argv("hf", selector, p, q), "hf", size, selector, p, q, g, local)
        )
    rng.shuffle(queries)
    return queries, files
