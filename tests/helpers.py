"""Shared plain-random generators for property and acceptance tests.

Kept separate from hypothesis strategies so the timed acceptance loops
can draw a fixed number of deterministic samples from random.Random.
All generated profiles use odd slot ranks; the cone's rank-parity
property (free rank odd) holds exactly for that class.

Also the slow references the fast paths are checked against: the dense
cone matrix and its Smith form, hf output rendered class by class, the
induced maps of a knot complex read through dense cycle lifts, its
profile derived slice by slice from ahat and homology, the complex of a
connected sum, and the command line parsed by argparse's two levels.
Dense matrices here are plain lists of rows; columns() turns them into
the sparse {row: entry} columns the library takes.
"""

import contextlib
import io
import json
import random
from math import gcd

from hfcone import cli
from hfcone.cfk import (
    Arrow,
    CfkComplex,
    Generator,
    SliceComplex,
    SliceHomology,
    _carry,
    _Reader,
    ahat,
    bhat,
    homology,
)
from hfcone.cone import Framing, Window, phi, surgery_report, truncation_window
from hfcone.exactla import AbelianGroup, smith_normal_form
from hfcone.profiles import LocalData, SurgeryProfile

# genus drawn with weights favoring small windows
_GENUS_POOL = [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
_RANK_POOL = [1, 1, 1, 3, 3, 5]


def random_profile(rng: random.Random) -> SurgeryProfile:
    g = rng.choice(_GENUS_POOL)
    if g == 0:
        return SurgeryProfile(
            "rnd:g=0",
            0,
            {0: LocalData(1, (rng.choice((1, -1)),), (rng.choice((1, -1)),))},
        )
    ranks = {s: rng.choice(_RANK_POOL) for s in range(g)}
    overrides = {}
    for s in range(-g + 1, g):
        r = ranks[abs(s)]
        v = tuple(rng.randint(-2, 2) for _ in range(r))
        h = tuple(rng.randint(-2, 2) for _ in range(r))
        overrides[s] = LocalData(r, v, h)
    overrides[g] = LocalData(1, (rng.choice((1, -1)),), (0,))
    overrides[-g] = LocalData(1, (0,), (rng.choice((1, -1)),))
    return SurgeryProfile(f"rnd:g={g}", g, overrides)


def random_framing(rng: random.Random, pmax: int = 30, qmax: int = 8) -> Framing:
    while True:
        p = rng.randint(1, pmax)
        q = rng.randint(1, qmax)
        if gcd(p, q) == 1:
            return Framing(rng.choice((1, -1)) * p, q)


# each subcommand's flags with a value that parses (None: takes none)
_FLAGS = {
    "hf": [("--profile", "fig8"), ("--framing", "5"), ("--framing-range", "1..2"),
           ("--spinc", "1"), ("--format", "json")],
    "ell": [("--profile", "lspace:g=2"), ("--framing", "-1/2"), ("--framing-range", "-1..1")],
    "bound": [("--h1", "4"), ("--ell", "2")],
    "spinc": [("--genus", "1"), ("--framing", "5/2"), ("--oracle", None)],
    "pair": [("--g1", "1"), ("--q1", "1"), ("--g2", "2"), ("--q2", "3"), ("--p", "-5"),
             ("--mode", "both")],
    "kfam": [("--m", "2"), ("--n", "1"), ("--q1", "1"), ("--q2", "2"), ("--p", "5")],
    "staircase": [("--alexander", "1,-1,1"), ("--emit-profile", None)],
    "profile": [("--show", "fig8"), ("--check", "@x")],
}
# words dropped in anywhere: options and values of every kind, --, -h,
# unknown flags, negative numbers and empty strings
_ARGV_WORDS = list(_FLAGS) + [
    "-h", "--help", "--", "--he", "--fram", "--framing=-3/2", "--format=text", "--mode=first",
    "fig8", "json", "first", "-1..1/1..2", "5", "0", "-3", "-1/2", "-1x", "x", "", " ",
    "--bogus", "--bogus=1", "-x", "-", "---",
]


def random_argv(rng: random.Random) -> list[str]:
    """An argv for the command line: a subcommand and some of its flags,
    in any order, abbreviated or as --flag=value, with a few words from
    _ARGV_WORDS dropped in, now and then before the subcommand."""
    command = rng.choice(list(_FLAGS))
    chunks = []
    for flag, value in _FLAGS[command]:
        if rng.random() < 0.25:
            continue
        if rng.random() < 0.2:
            flag = flag[:rng.randint(3, len(flag))]
        if value is None:
            chunks.append([flag])
        else:
            chunks.append([f"{flag}={value}"] if rng.random() < 0.3 else [flag, value])
    rng.shuffle(chunks)
    argv = [command] + [word for chunk in chunks for word in chunk]
    for _ in range(rng.choice((0, 0, 1, 2))):
        argv.insert(rng.randint(0 if rng.random() < 0.1 else 1, len(argv)), rng.choice(_ARGV_WORDS))
    return argv


# values where a parse of exact flags can go wrong: the empty and a blank
# word, a lone dash, --, and dash-led words that argparse reads as a number
# ("-1x", an Arabic-Indic three) or as a flag (a superscript two)
_EXACT_VALUES = ["", " ", "-", "-1x", "--", "-\u0663", "-\u00b2"]


def exact_argv(rng: random.Random) -> list[str]:
    """An argv of a subcommand and its exact flags, each followed by its
    value if it takes one: flags left out (required ones too), repeated,
    both of a group, and now and then a value from _EXACT_VALUES."""
    command = rng.choice(list(_FLAGS))
    pairs = [pair for pair in _FLAGS[command] if rng.random() < 0.75]
    pairs += rng.choices(_FLAGS[command], k=rng.choice((0, 0, 1, 2)))
    rng.shuffle(pairs)
    argv = [command]
    for flag, value in pairs:
        argv.append(flag)
        if value is not None:
            argv.append(rng.choice(_EXACT_VALUES) if rng.random() < 0.1 else value)
    return argv


def parse_outcome(parse, argv: list[str]) -> tuple:
    """What parse(argv) does: ("ns", its vars) or ("usage", the UsageError
    text) or ("exit", the SystemExit code), with what it printed."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            ns = parse(list(argv))
    except cli.UsageError as e:
        return "usage", str(e), printed.getvalue()
    except SystemExit as e:
        return "exit", e.code, printed.getvalue()
    return "ns", vars(ns), printed.getvalue()


def random_lspace_alexander(rng: random.Random, gmax: int = 6) -> list[int]:
    """Coefficient list (t^g down to t^-g) of a random L-space staircase
    polynomial: alternating +-1 at symmetric exponents g > e_1 > ... > 0."""
    g = rng.randint(1, gmax)
    positives = sorted(rng.sample(range(1, g + 1), rng.randint(1, g)), reverse=True)
    if positives[0] != g:
        positives.insert(0, g)
    exps = positives + [0] + [-e for e in reversed(positives)]
    coeffs = [0] * (2 * g + 1)
    sign = 1
    for e in exps:
        coeffs[g - e] = sign
        sign = -sign
    return coeffs


def columns(rows: list[list[int]]) -> list[dict[int, int]]:
    """The sparse {row: entry} columns of a dense matrix given by its rows."""
    return [{r: x for r, x in enumerate(col) if x} for col in zip(*rows)]


def dense_cone_matrix(
    profile: SurgeryProfile, framing: Framing, i: int, window: Window
) -> list[list[int]]:
    """The truncated cone of class i as one dense matrix: a row per B-slot,
    a column per A-generator, v_s on row s and h_s on row s + 1."""
    p, q = framing.p, framing.q
    slots = list(range(window.a_lo, window.a_hi + 1))
    local = [profile.local(phi(i, p, q, s)) for s in slots]
    offsets = {}
    width = 0
    for s, data in zip(slots, local):
        offsets[s] = width
        width += data.rank
    rows = []
    for t in range(window.b_lo, window.b_hi + 1):
        row = [0] * width
        if window.a_lo <= t <= window.a_hi:
            data = local[t - window.a_lo]
            base = offsets[t]
            for j, x in enumerate(data.v):
                row[base + j] = x
        if window.a_lo <= t - 1 <= window.a_hi:
            data = local[t - 1 - window.a_lo]
            base = offsets[t - 1]
            for j, x in enumerate(data.h):
                row[base + j] += x
        rows.append(row)
    return rows


def dense_spinc_group(
    profile: SurgeryProfile, framing: Framing, i: int, pad: int = 0
) -> AbelianGroup:
    """Reference for cone.spinc_group: dense Smith form of the whole cone."""
    d = dense_cone_matrix(profile, framing, i, truncation_window(profile, framing, i, pad))
    divisors = smith_normal_form(columns(d))
    rank = len(divisors)
    return AbelianGroup((len(d[0]) - rank) + (len(d) - rank), tuple(x for x in divisors if x > 1))


def report_json(report) -> dict:
    """The hf --format json document of one report, one entry per class."""
    return {
        "framing": str(report.framing),
        "spinc": [
            {
                "i": e.i,
                "free_rank": e.group.free_rank,
                "torsion": list(e.group.torsion),
                "l_structure": e.is_l_structure,
            }
            for e in report.spinc
        ],
        "ell": report.ell,
        "total_rank": report.total_rank,
    }


def reference_hf_stdout(
    profile: SurgeryProfile, framings: list[Framing], spinc=None, fmt="text", is_range=False
) -> str:
    """Reference for the stdout of hf: every class of surgery_report rendered
    on its own, and JSON through one json.dumps(indent=2) of the document."""
    if fmt == "json":
        payload = []
        for framing in framings:
            doc = report_json(surgery_report(profile, framing))
            if spinc is not None:
                doc["spinc"] = [e for e in doc["spinc"] if e["i"] == spinc]
            payload.append(doc)
        return json.dumps(payload if is_range else payload[0], indent=2) + "\n"
    lines = []
    for idx, framing in enumerate(framings):
        report = surgery_report(profile, framing)
        if idx:
            lines.append("")
        lines.append(f"framing {framing}")
        for e in report.spinc:
            if spinc is not None and e.i != spinc:
                continue
            mark = " (L)" if e.is_l_structure else ""
            lines.append(f"i={e.i}: {e.group.describe()}{mark}")
        if spinc is None:
            lines.append(f"ell={report.ell} total_rank={report.total_rank}")
    return "\n".join(lines) + "\n"


def cycle_lifts(sl: SliceComplex, h: SliceHomology) -> list[tuple[int, ...]]:
    """Each survivor of h lifted to a cycle of sl, as a dense tuple."""
    n = len(sl.differential)
    cycles = []
    for k in h._survivors:
        z = {k: 1}
        for x, y, u, _, row in reversed(h._steps):
            # the multiple of x that clears the y-coordinate of d(z)
            b = sum(a * z.get(w, 0) for w, a in row.items())
            if b:
                z[x] = -u * b
        cycles.append(tuple(z.get(i, 0) for i in range(n)))
    return cycles


def class_vector(sl: SliceComplex, h: SliceHomology, cycle) -> tuple[int, ...]:
    """The class of a cycle of sl, in the survivor basis of h."""
    c = {k: a for k, a in enumerate(cycle) if a}
    boundary = {}
    for k, a in c.items():
        for r, x in sl.differential[k].items():
            boundary[r] = boundary.get(r, 0) + a * x
    if any(boundary.values()):
        raise ValueError("vector is not a cycle")
    # the quotient by span{x, dx} sends x to 0 and y to y - u dx
    for x, y, u, col, _ in h._steps:
        c.pop(x, None)
        a = c.pop(y, 0)
        for r, e in col.items():
            c[r] = c.get(r, 0) - a * u * e
    return tuple(c.get(k, 0) for k in h._survivors)


def induced_row(c: CfkComplex, s: int, use_conj: bool) -> list[int]:
    """v_s (or h_s with use_conj) of H(A_s) -> H(B) through dense cycle
    lifts, in the basis homology() leaves, before any sign choice."""
    a, b = ahat(c, s), bhat(c)
    ha, hb = homology(a), homology(b)
    coords = []
    for w in cycle_lifts(a, ha):
        image = [0] * len(c.generators)
        for k, (gi, shift) in enumerate(a.basis):
            if use_conj:
                if c.generators[gi].alexander >= s:
                    image[c.conj[gi]] += w[k]
            elif shift == 0:
                image[gi] += w[k]
        (coord,) = class_vector(b, hb, image)
        coords.append(coord)
    return coords


def slice_maps(
    c: CfkComplex, s: int, phi: _Reader
) -> tuple[SliceHomology, list[int], list[int]]:
    """H(A_s) and the rows of v_s and h_s on its basis, phi reading H(B):
    A_s built by ahat and reduced by homology, d^2 check included."""
    ha = homology(ahat(c, s))
    alexander = [g.alexander for g in c.generators]
    pairs = _carry(ha._steps, ha._survivors, phi, s, alexander, c.conj)
    return ha, [v for v, _ in pairs], [h for _, h in pairs]


def reference_profile(c: CfkComplex) -> SurgeryProfile:
    """Reference for cfk.to_profile on a valid complex: every slice built
    and reduced on its own, B reduced again, signs fixed as to_profile
    fixes them."""
    g = c.genus
    phi = _Reader(homology(bhat(c)), 0)
    overrides = {}
    for s in range(-g, g + 1):
        ha, v, h = slice_maps(c, s, phi)
        for j in range(len(v)):
            if (v[j] or h[j]) < 0:
                v[j], h[j] = -v[j], -h[j]
        overrides[s] = LocalData(ha.group.free_rank, tuple(v), tuple(h))
    return SurgeryProfile(f"derived:g={g}", g, overrides)


def tensor(c1: CfkComplex, c2: CfkComplex) -> CfkComplex:
    """The complex of a connected sum: the tensor product of the complexes
    of its two summands (Ozsvath-Szabo, arXiv:math/0209056, section 7).

    The pair (x, y) is generator x * len(c2.generators) + y, at grading
    A(x) + A(y). Each arrow of c1 is carried along every y, and each arrow
    of c2 along every x, signed (-1)^|x|. |x| is the parity of x's index,
    a Z/2 grading that every arrow changes when c1 is a staircase or its
    mirror. conj is the product of the two conjugations."""
    m, xs, ys = len(c2.generators), range(len(c1.generators)), range(len(c2.generators))
    gens = tuple(
        Generator(f"{x.name}.{y.name}", x.alexander + y.alexander)
        for x in c1.generators
        for y in c2.generators
    )
    arrows = [
        Arrow(a.source * m + y, a.target * m + y, a.u_power, a.coeff) for a in c1.arrows for y in ys
    ]
    arrows += [
        Arrow(x * m + b.source, x * m + b.target, b.u_power, (-1) ** x * b.coeff)
        for x in xs
        for b in c2.arrows
    ]
    conj = tuple(c1.conj[x] * m + c2.conj[y] for x in xs for y in ys)
    return CfkComplex(gens, tuple(arrows), conj)


def with_cancelling_arrows(c: CfkComplex, rng: random.Random) -> CfkComplex:
    """c with conjugate pairs of parallel +-1 arrows inserted at random
    places in its arrow list: each pair sums to zero on every slice where
    it survives, so the slices, and validity, are those of c."""
    gens = c.generators
    arrows = list(c.arrows)
    for _ in range(rng.randint(1, 4)):
        x, y = rng.sample(range(len(gens)), 2)
        a = max(0, gens[y].alexander - gens[x].alexander) + rng.choice((0, 0, 1))
        e = rng.choice((1, -1))
        # J carries x -> U^a y to conj(x) -> U^(a + A(x) - A(y)) conj(y)
        b = a + gens[x].alexander - gens[y].alexander
        for arrow in (
            Arrow(x, y, a, e),
            Arrow(x, y, a, -e),
            Arrow(c.conj[x], c.conj[y], b, e),
            Arrow(c.conj[x], c.conj[y], b, -e),
        ):
            arrows.insert(rng.randint(0, len(arrows)), arrow)
    return CfkComplex(gens, tuple(arrows), c.conj)
