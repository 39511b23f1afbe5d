"""Correctness references for the benchmark's queries, applied after timing.

Three kinds of reference:

* closed forms: L-structure counts of negative surgeries on staircase
  (L-space) and twisted-family profiles, positive L-space surgeries, the
  figure-eight family at -(4n+1)/n, and first-kind classes being exactly
  Z (``hfcone.obstruct.first_kind_closed_form``);
* internal consistency of each report: class list, L marks, ``ell`` and
  ``total_rank`` agree, and every free rank is odd (all benchmark
  profiles have odd slot ranks, for which the rank parity holds);
* an oracle for sampled classes: the benchmark assembles the truncated
  cone itself, with a window one slot wider at each end than the
  program's, from profile data it builds itself, and compares sympy's
  invariant factors with the reported group.

``derive`` outputs must parse and equal ``lspace_knot(g)``.
"""

from __future__ import annotations

import json
import random
import re

from workloads import Query

Group = tuple[int, tuple[int, ...]]  # (free rank, torsion divisors)

_HF_LINE = re.compile(r"^i=(\d+): (.+?)( \(L\))?$")
_ELL_LINE = re.compile(r"^ell=(\d+) total_rank=(\d+)$")


def parse_group(text: str) -> Group:
    if text == "0":
        return 0, ()
    free, torsion = 0, []
    for part in text.split(" + "):
        if part.startswith("Z^"):
            free = int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError(f"bad group {text!r}")
    return free, tuple(torsion)


def parse_report(query: Query, out: str):
    """(framing, [(i, group, is_l)], ell, total_rank) from hf text or json."""
    if query.kind == "json":
        doc = json.loads(out)
        classes = [
            (e["i"], (e["free_rank"], tuple(e["torsion"])), e["l_structure"])
            for e in doc["spinc"]
        ]
        return doc["framing"], classes, doc["ell"], doc["total_rank"]
    lines = out.splitlines()
    if not lines or not lines[0].startswith("framing "):
        raise ValueError("missing framing line")
    m = _ELL_LINE.match(lines[-1])
    if not m:
        raise ValueError("missing ell line")
    classes = []
    for line in lines[1:-1]:
        hit = _HF_LINE.match(line)
        if not hit:
            raise ValueError(f"bad class line {line!r}")
        classes.append((int(hit.group(1)), parse_group(hit.group(2)), bool(hit.group(3))))
    return lines[0][len("framing "):], classes, int(m.group(1)), int(m.group(2))


# ---------------------------------------------------------------------------
# profile data, built here from the family definitions


def builtin_local(selector: str) -> tuple[int, dict]:
    """(genus, slot -> (rank, v, h)) for a built-in selector."""
    name, _, params_text = selector.partition(":")
    params = dict(
        (k, int(v)) for k, v in (piece.split("=") for piece in params_text.split(",") if piece)
    )
    if name == "unknot":
        return 0, {0: (1, (1,), (1,))}
    if name == "fig8":
        return 1, {0: (3, (1, 0, 0), (1, 0, 0))}
    if name == "lspace":
        g = params["g"]
        return g, {s: (1, (int(s >= g),), (int(s <= -g),)) for s in range(-g, g + 1)}
    if name == "tau":
        g = params["g"]
        return g, {s: (1, (0,), (0,)) for s in range(-g + 1, g)}
    if name == "kfam":
        m, k = params["m"], params["k"]
        local = {}
        for s in range(-m + 1, m):
            r = 3 if (m - s) % 2 == 0 else 2 * k + 3
            local[s] = (r, (1,) + (0,) * (r - 1), (0, 1) + (0,) * (r - 2))
        return m, local
    raise ValueError(f"no local data for {selector!r}")


def _local_at(genus: int, local: dict, s: int):
    data = local.get(s)
    if data is not None:
        return data
    if s > 0 and s >= genus:
        return 1, (1,), (0,)
    if s < 0 and s <= -genus:
        return 1, (0,), (1,)
    raise ValueError(f"no data at slot {s}")


def _staircase_like(genus: int, local: dict) -> bool:
    """Rank one everywhere, both maps zero inside the open window: the
    data of a positive L-space knot."""
    return genus >= 1 and all(
        _local_at(genus, local, s) == (1, (int(s >= genus),), (int(s <= -genus),))
        for s in range(-genus, genus + 1)
    )


def cone_rows(genus: int, local: dict, p: int, q: int, i: int) -> list[list[int]]:
    """The truncated cone matrix of class i, padded by one slot per end."""
    G = max(genus, 1)

    def phi(s):
        return (i + p * s) // q

    # phi(0) = i // q >= 0, so the low end lies below 0 and the high end
    # above it unless phi(0) already reaches G
    lo = hi = 0
    if p > 0:  # phi nondecreasing: [last phi <= -G, first phi >= G]
        while phi(lo) > -G:
            lo -= 1
        while phi(hi) < G:
            hi += 1
        while phi(hi - 1) >= G:
            hi -= 1
        a_lo, a_hi = lo - 1, hi + 1
        b_lo, b_hi = a_lo + 1, a_hi
    else:  # phi nonincreasing: [last phi >= G, first phi <= -G]
        while phi(lo) < G:
            lo -= 1
        while phi(lo + 1) >= G:
            lo += 1
        while phi(hi) > -G:
            hi += 1
        a_lo, a_hi = lo - 1, hi + 1
        b_lo, b_hi = a_lo, a_hi + 1
    slots = [_local_at(genus, local, phi(s)) for s in range(a_lo, a_hi + 1)]
    offsets, width = [], 0
    for r, _, _ in slots:
        offsets.append(width)
        width += r
    rows = []
    for t in range(b_lo, b_hi + 1):
        row = [0] * width
        if a_lo <= t <= a_hi:
            _, v, _ = slots[t - a_lo]
            for j, x in enumerate(v):
                row[offsets[t - a_lo] + j] += x
        if a_lo <= t - 1 <= a_hi:
            _, _, h = slots[t - 1 - a_lo]
            for j, x in enumerate(h):
                row[offsets[t - 1 - a_lo] + j] += x
        rows.append(row)
    return rows


def oracle_group(rows: list[list[int]]) -> Group:
    """ker + coker of the matrix, from sympy's invariant factors."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    factors = [abs(int(d)) for d in invariant_factors(Matrix(rows), domain=ZZ)]
    rank = sum(1 for d in factors if d)
    free = (len(rows[0]) - rank) + (len(rows) - rank)
    return free, tuple(sorted(d for d in factors if d > 1))


# ---------------------------------------------------------------------------
# per-query checks


def expected_counts(query: Query, genus: int, local: dict) -> tuple[int | None, int | None]:
    """Closed-form (ell, total_rank) where one applies, else None."""
    p, q = query.p, query.q
    n = abs(p)
    if query.selector == "fig8" and p == -(4 * q + 1):
        return 3 * q + 1, 6 * q + 1
    if _staircase_like(genus, local):
        if p < 0 and n > (2 * genus - 1) * q:
            return n - (2 * genus - 1) * q, None
        if p > 0 and n >= (2 * genus - 1) * q:
            return n, n
    if query.selector.startswith("kfam:") and p < 0 and n > (2 * genus - 1) * q:
        return n - genus * q, None
    return None, None


def check_query(query: Query, rc, out: str) -> list[str]:
    """Problems with one query's exit code and stdout ([] when correct)."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if query.kind == "staircase":
            return _check_staircase(query, out)
        return _check_cone(query, out)
    except (ValueError, KeyError, TypeError) as e:
        return [f"unparseable output: {e}"]


def _check_staircase(query: Query, out: str) -> list[str]:
    from hfcone import profiles

    derived = profiles.parse(out)
    problems = []
    if derived.name != f"staircase-g{query.genus}":
        problems.append(f"profile name {derived.name!r}")
    if derived != profiles.lspace_knot(query.genus):
        problems.append(f"derived profile differs from lspace_knot({query.genus})")
    return problems


def _query_local(query: Query) -> tuple[int, dict]:
    if query.local:
        return query.genus, query.local
    return builtin_local(query.selector)


def _check_cone(query: Query, out: str) -> list[str]:
    from hfcone.obstruct import first_kind_closed_form

    genus, local = _query_local(query)
    want_ell, want_total = expected_counts(query, genus, local)
    problems = []
    if query.kind == "ell":
        m = _ELL_LINE.match(out.strip())
        if not m:
            return [f"bad ell output {out[:80]!r}"]
        ell, total = int(m.group(1)), int(m.group(2))
    else:
        framing, classes, ell, total = parse_report(query, out)
        n = abs(query.p)
        if framing != f"{query.p}/{query.q}":
            problems.append(f"framing {framing!r}")
        if [c[0] for c in classes] != list(range(n)):
            problems.append("class list is not 0..|p|-1")
        if any(is_l != (g == (1, ())) for _, g, is_l in classes):
            problems.append("L mark disagrees with the group")
        if ell != sum(1 for *_, is_l in classes if is_l):
            problems.append("ell disagrees with the class list")
        if total != sum(g[0] for _, g, _ in classes):
            problems.append("total_rank disagrees with the class list")
        if any(g[0] % 2 == 0 for _, g, _ in classes):
            problems.append("even free rank (rank parity)")
        if genus >= 1 and n > (2 * genus - 1) * query.q:
            for i in first_kind_closed_form(genus, n, query.q):
                if classes[i][1] != (1, ()):
                    problems.append(f"first-kind class {i} is not Z")
                    break
    if want_ell is not None and ell != want_ell:
        problems.append(f"ell={ell}, closed form {want_ell}")
    if want_total is not None and total != want_total:
        problems.append(f"total_rank={total}, closed form {want_total}")
    return problems


def oracle_sample(
    queries: list[Query], outputs: list[str], seed: int, count: int, max_cols: int
) -> tuple[int, dict[int, list[str]]]:
    """Check ``count`` seeded (query, class) picks against the sympy oracle,
    skipping classes whose padded cone has more than ``max_cols`` columns.
    Returns the number checked and problems keyed by query index."""
    rng = random.Random(f"oracle:{seed}")
    candidates = [k for k, q in enumerate(queries) if q.kind in ("hf", "json")]
    problems: dict[int, list[str]] = {}
    checked = 0
    for _ in range(4 * count):
        if checked >= count or not candidates:
            break
        k = rng.choice(candidates)
        query = queries[k]
        i = rng.randrange(abs(query.p))
        genus, local = _query_local(query)
        rows = cone_rows(genus, local, query.p, query.q, i)
        if len(rows[0]) > max_cols:
            continue
        try:
            reported = parse_report(query, outputs[k])[1][i][1]
        except (ValueError, KeyError, IndexError, TypeError):
            continue  # already counted by check_query
        want = oracle_group(rows)
        checked += 1
        if reported != want:
            problems.setdefault(k, []).append(f"class {i}: {reported} but oracle gives {want}")
    return checked, problems
