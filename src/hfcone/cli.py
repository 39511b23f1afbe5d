"""Command-line front end.

Subcommands: hf, ell, bound, spinc, pair, kfam, staircase, profile.
Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 spinc --oracle disagreement, 2 obstruction violated (pair/kfam, for
scripting), 64 usage error, 65 input data error (also a cone over
cone.COLUMN_BUDGET columns, or a complex over cfk.SLICE_BUDGET
generators x slices), 70 internal arithmetic overflow.

Profile selectors: built-in names with parameters (unknot, lspace:g=3,
fig8, kfam:m=2,k=1, tau:g=2) or @path to a profile file.

Each subcommand imports only the modules it runs: staircase imports cfk,
and bound, spinc, pair and kfam import obstruct, when they start; hf, ell
and profile load neither. The errors of a complex (InvalidComplexError,
TorsionError, StaircaseError, ComplexTooLarge) live in exactla, so main
catches them without importing cfk.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import profiles
from .cone import ConeTooLarge, Framing, FramingError, run_counts, spinc_runs
from .exactla import (
    ComplexTooLarge, EliminationOverflow, InvalidComplexError, StaircaseError, TorsionError,
)
from .profiles import ProfileError, SurgeryProfile, ascii_int

EXIT_OK = 0
EXIT_VIOLATED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_OVERFLOW = 70


class UsageError(Exception):
    pass


class InputDataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word that starts with a dash and a digit is a value (negative
        # framings, ranges and coefficients), after any spelling of its flag;
        # argparse match()es this attribute, and ".*" fits fullmatch() too
        self._negative_number_matcher = re.compile(r"-\d.*", re.DOTALL)

    # argparse exits 2 on bad flags, which collides with the "obstruction
    # violated" code; route everything through UsageError instead
    def error(self, message):
        raise UsageError(message)


def _parse_framing(text: str) -> Framing:
    try:
        return Framing.parse(text)
    except FramingError as e:
        raise UsageError(str(e)) from None


# built-in selectors: name -> (profiles function, its parameters in call order)
_BUILTINS = {
    "unknot": ("unknot", ()),
    "lspace": ("lspace_knot", ("g",)),
    "fig8": ("figure_eight", ()),
    "kfam": ("k_family", ("m", "k")),
    "tau": ("tau_extremal", ("g",)),
}
_BUILTIN_USAGE = ", ".join(
    name + (":" + ",".join(f"{key}={key.upper()}" for key in keys) if keys else "")
    for name, (_, keys) in _BUILTINS.items()
)


def _resolve_profile(selector: str) -> SurgeryProfile:
    if selector.startswith("@"):
        path = selector[1:]
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise InputDataError(f"cannot read profile file {path}: {e}") from None
        try:
            return profiles.parse(text.removeprefix("\ufeff"))
        except ProfileError as e:
            raise InputDataError(f"{path}: {e}") from None
    name, _, params_text = selector.partition(":")
    params: dict[str, int] = {}
    if params_text:
        for piece in params_text.split(","):
            key, eq, value = piece.partition("=")
            if not eq or not key or key in params:
                raise UsageError(f"bad profile parameter {piece!r} in {selector!r}")
            try:
                params[key] = ascii_int(value)
            except ValueError:
                raise UsageError(f"bad profile parameter {piece!r} in {selector!r}") from None
    if name not in _BUILTINS:
        raise UsageError(f"unknown profile {selector!r}; use {_BUILTIN_USAGE}, or @file")
    function, keys = _BUILTINS[name]
    if set(params) != set(keys):
        wanted = ",".join(sorted(keys)) or "none"
        raise UsageError(f"profile {selector!r} takes parameters: {wanted}")
    try:
        # looked up at each call, so a wrapper set on the module sees it
        return getattr(profiles, function)(*(params[key] for key in keys))
    except (ValueError, ProfileError) as e:
        raise InputDataError(f"{selector}: {e}") from None


def _grid(ps: range, qs: range):
    """The reduced slopes p/q, q in qs outer, p in ps inner, both ascending,
    skipping p = 0; lazy, so a long range is never held in memory."""
    if not any(ps):
        # p in {0} or no p at all: no slope at any q, so do not walk q
        return
    for q in qs:
        for p in ps:
            if p == 0:
                continue
            try:
                yield Framing(p, q)
            except FramingError:
                continue


def _check_spinc(spinc: int, framing) -> None:
    if framing is not None and not 0 <= spinc < abs(framing.p):
        raise UsageError(f"--spinc {spinc} outside [0, {abs(framing.p)}) for {framing}")


def _iter_framings(range_spec: str, spinc=None):
    """Grid 'P1..P2/Q1..Q2' as _grid walks it. An empty grid, and a --spinc
    outside [0, |p|) for some framing, are usage errors raised here, before
    any framing is computed; the error names the first such framing."""
    try:
        p_part, _, q_part = range_spec.partition("/")
        p_lo, p_hi = (ascii_int(x) for x in p_part.split("..", 1))
        q_lo, q_hi = (ascii_int(x) for x in q_part.split("..", 1)) if q_part else (1, 1)
    except ValueError:
        raise UsageError(
            f"cannot parse framing range {range_spec!r}; expected 'P1..P2/Q1..Q2'"
        ) from None
    if q_lo < 1:
        raise UsageError("framing range requires q >= 1")
    ps, qs = range(p_lo, p_hi + 1), range(q_lo, q_hi + 1)
    if next(_grid(ps, qs), None) is None:
        raise UsageError(f"framing range {range_spec!r} contains no reduced slopes")
    if spinc is not None:
        # the framings that fail have |p| <= spinc: a sub-grid in the same order
        failing = ps if spinc < 0 else range(max(p_lo, -spinc), min(p_hi, spinc) + 1)
        _check_spinc(spinc, next(_grid(failing, qs), None))
    return _grid(ps, qs)


def _framings_from_args(ns, spinc=None):
    """The requested framings, lazy for --framing-range: ell and hf, in
    either format, write each framing before the next is computed."""
    if ns.framing_range is not None:
        return _iter_framings(ns.framing_range, spinc)
    framing = _parse_framing(ns.framing)
    if spinc is not None:
        _check_spinc(spinc, framing)
    return [framing]


def _clip(runs, spinc):
    """The runs of spinc_runs, or only class spinc when it is given."""
    if spinc is None:
        return runs
    return [(range(spinc, spinc + 1), group) for run, group in runs if spinc in run]


# classes per write: one string per chunk of a run, not one per class,
# and memory that does not grow with the run
_CHUNK = 1024


def _write_runs(runs, sep: str = "") -> int:
    """Write before + str(i) + after for every i of every (classes, before,
    after) run, classes a range, with sep between entries and one write per
    _CHUNK classes; returns the number of entries written."""
    write = sys.stdout.write
    count = 0
    for classes, before, after in runs:
        glue = after + sep + before
        for lo in range(classes.start, classes.stop, _CHUNK):
            chunk = range(lo, min(lo + _CHUNK, classes.stop))
            write((sep if count else "") + before + glue.join(map(str, chunk)) + after)
            count += len(chunk)
    return count


def _json_runs(runs, indent: str):
    """The entries of a "spinc" list as runs, in the json module's indent=2
    layout at the given indent; the text after "i": N is the run's group's."""
    for run, group in runs:
        torsion = ",".join(f"\n{indent}    {d}" for d in group.torsion)
        torsion = f"[{torsion}\n{indent}  ]" if torsion else "[]"
        yield run, f'\n{indent}{{\n{indent}  "i": ', (
            f',\n{indent}  "free_rank": {group.free_rank},\n{indent}  "torsion": {torsion},'
            f'\n{indent}  "l_structure": {"true" if group.is_z else "false"}\n{indent}}}'
        )


def _cmd_hf(ns) -> int:
    # renders from the runs of spinc_runs: the cones cost O(genus) per
    # framing, each run is described or fills the JSON template once, and
    # _write_runs writes the classes, so --spinc costs O(genus) at any |p|.
    # Both formats stream: each framing is written before the next one is
    # computed, a JSON range as one list element per framing (a framing is
    # digits, "-" and "/", which JSON does not escape).
    profile = _resolve_profile(ns.profile)
    framings = _framings_from_args(ns, ns.spinc)
    out = sys.stdout
    is_json, is_range = ns.format == "json", ns.framing_range is not None
    pad = "  " if is_range else ""
    for idx, framing in enumerate(framings):
        runs = spinc_runs(profile, framing)
        ell, total_rank = run_counts(runs)
        shown = _clip(runs, ns.spinc)
        if is_json:
            if is_range:
                out.write(",\n" if idx else "[\n")
            out.write(f'{pad}{{\n{pad}  "framing": "{framing}",\n{pad}  "spinc": [')
            _write_runs(_json_runs(shown, pad + "    "), ",")
            out.write(
                f'\n{pad}  ],\n{pad}  "ell": {ell},\n{pad}  "total_rank": {total_rank}\n{pad}}}'
            )
            continue
        if idx:
            print()
        print(f"framing {framing}")
        _write_runs(
            (run, "i=", f": {group.describe()}{' (L)' if group.is_z else ''}\n")
            for run, group in shown
        )
        if ns.spinc is None:
            print(f"ell={ell} total_rank={total_rank}")
    if is_json:
        out.write("\n]\n" if is_range else "\n")
    return EXIT_OK


def _cmd_ell(ns) -> int:
    profile = _resolve_profile(ns.profile)
    framings = _framings_from_args(ns)
    for framing in framings:
        ell, total_rank = run_counts(spinc_runs(profile, framing))
        prefix = f"{framing} " if ns.framing_range is not None else ""
        print(f"{prefix}ell={ell} total_rank={total_rank}")
    return EXIT_OK


def _cmd_bound(ns) -> int:
    from . import obstruct

    try:
        bound = obstruct.gz_lower_bound(ns.h1, ns.ell)
    except ValueError as e:
        raise InputDataError(str(e)) from None
    if bound is None:
        print("not_applicable: ell equals h1 (L-space, bound degenerates)")
    else:
        print(f"gz_lower_bound={bound}")
    return EXIT_OK


def _cmd_spinc(ns) -> int:
    from . import obstruct

    framing = _parse_framing(ns.framing)
    p, q = abs(framing.p), framing.q
    try:
        first = obstruct.first_kind_range(ns.genus, p, q)
    except ValueError as e:
        raise InputDataError(str(e)) from None
    # the second kind is the rest of range(p), below and above the first
    second = (range(first.start), range(first.stop, p)) if first else (range(p),)
    _write_set("first_kind", (first,))
    _write_set("second_kind", second)
    if ns.oracle:
        brute = obstruct.first_kind_brute(ns.genus, p, q)
        agree = brute == frozenset(first)
        print(f"oracle: {'agree' if agree else 'DISAGREE'}")
        if not agree:
            return 1
    return EXIT_OK


def _write_set(label: str, runs) -> None:
    """'label: ', the values of the ascending ranges runs joined by commas,
    or '-' when they are all empty, and their count; memory does not grow
    with p."""
    sys.stdout.write(f"{label}: ")
    count = _write_runs(((run, "", "") for run in runs), ",")
    sys.stdout.write(f"{'' if count else '-'} (count {count})\n")


def _verdict_exit(verdict) -> int:
    return EXIT_VIOLATED if verdict.is_violated else EXIT_OK


def _cmd_pair(ns) -> int:
    from . import obstruct

    mode = (
        obstruct.TAU_EXTREMAL_FIRST if ns.mode == "first" else obstruct.TAU_EXTREMAL_BOTH
    )
    verdict = obstruct.pair_obstruction(ns.g1, ns.q1, ns.g2, ns.q2, ns.p, mode)
    print(f"{verdict.status}: {verdict.detail}")
    return _verdict_exit(verdict)


def _cmd_kfam(ns) -> int:
    from . import obstruct

    verdict = obstruct.k_family_obstruction(ns.m, ns.n, ns.q1, ns.q2, ns.p)
    if verdict.status == obstruct.NOT_APPLICABLE:
        print(f"not_applicable: {verdict.detail}")
    elif verdict.is_violated:
        print(f"violated: q2/q1 = {verdict.lhs} < {verdict.rhs} = m/(2n-1)")
    else:
        print(f"consistent: q2/q1 = {verdict.lhs} >= {verdict.rhs} = m/(2n-1)")
    return _verdict_exit(verdict)


def _cmd_staircase(ns) -> int:
    from . import cfk

    text = ns.alexander.strip()
    coeff_part, _, top_part = text.partition(":")
    try:
        coeffs = [ascii_int(x) for x in coeff_part.split(",")]
        top = ascii_int(top_part) if top_part else None
    except ValueError:
        raise InputDataError(f"cannot parse alexander coefficients {text!r}") from None
    complex_ = cfk.staircase_from_alexander(coeffs, top)
    profile = cfk.to_profile(complex_, name=f"staircase-g{complex_.genus}")
    if ns.emit_profile:
        _write_runs(profiles.serialize_runs(profile))
    else:
        print(
            f"genus {complex_.genus}, generators {len(complex_.generators)}, "
            f"arrows {len(complex_.arrows)}: valid staircase"
        )
    return EXIT_OK


def _cmd_profile(ns) -> int:
    if ns.show is not None:
        _write_runs(profiles.serialize_runs(_resolve_profile(ns.show)))
        return EXIT_OK
    try:
        profile = _resolve_profile(ns.check)
    except InputDataError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_DATA
    print(f"ok: {profile.name} genus {profile.genus} ({len(profile.overrides)} overrides)")
    return EXIT_OK


# one parser per process: main() parses into a fresh namespace each call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hfcone", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_profile_framing(p, spinc=False):
        p.add_argument("--profile", required=True, help="profile selector or @file")
        framing = p.add_mutually_exclusive_group(required=True)
        framing.add_argument("--framing", help="surgery slope p/q (or integer p)")
        framing.add_argument(
            "--framing-range",
            help="grid P1..P2/Q1..Q2; iterates q outer, p inner, ascending",
        )
        if spinc:
            p.add_argument("--spinc", type=ascii_int, help="restrict output to one class")

    p_hf = sub.add_parser("hf", help="per-spin-c homology groups of a surgery")
    add_profile_framing(p_hf, spinc=True)
    p_hf.add_argument("--format", choices=("text", "json"), default="text")
    p_hf.set_defaults(func=_cmd_hf)

    p_ell = sub.add_parser("ell", help="L-structure count and total rank")
    add_profile_framing(p_ell)
    p_ell.set_defaults(func=_cmd_ell)

    p_bound = sub.add_parser("bound", help="integer surgery genus lower bound")
    p_bound.add_argument("--h1", type=ascii_int, required=True, help="|H1| of the manifold")
    p_bound.add_argument("--ell", type=ascii_int, required=True, help="L-structure count")
    p_bound.set_defaults(func=_cmd_bound)

    p_spinc = sub.add_parser("spinc", help="first/second-kind spin-c classification")
    p_spinc.add_argument("--genus", type=ascii_int, required=True)
    p_spinc.add_argument("--framing", required=True, help="slope; classification uses |p|/q")
    p_spinc.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    p_spinc.set_defaults(func=_cmd_spinc)

    p_pair = sub.add_parser("pair", help="framed-pair surgery equivalence obstruction")
    for flag in ("--g1", "--q1", "--g2", "--q2", "--p"):
        p_pair.add_argument(flag, type=ascii_int, required=True)
    p_pair.add_argument("--mode", choices=("first", "both"), default="first",
                        help="extremal tau known for the first knot or for both")
    p_pair.set_defaults(func=_cmd_pair)

    p_kfam = sub.add_parser("kfam", help="twisted-family surgery equivalence obstruction")
    for flag in ("--m", "--n", "--q1", "--q2", "--p"):
        p_kfam.add_argument(flag, type=ascii_int, required=True)
    p_kfam.set_defaults(func=_cmd_kfam)

    p_stair = sub.add_parser("staircase", help="staircase complex from an Alexander polynomial")
    p_stair.add_argument(
        "--alexander", required=True,
        help="coefficients t^g..t^-g, e.g. '1,-1,0,1,0,-1,1:3' (':g' optional)",
    )
    p_stair.add_argument("--emit-profile", action="store_true",
                         help="print the derived profile in the profile file format")
    p_stair.set_defaults(func=_cmd_staircase)

    p_prof = sub.add_parser("profile", help="show or validate a profile")
    group = p_prof.add_mutually_exclusive_group(required=True)
    group.add_argument("--show", metavar="SELECTOR")
    group.add_argument("--check", metavar="SELECTOR")
    p_prof.set_defaults(func=_cmd_profile)

    parser.commands = sub.choices  # name -> subparser, for _parse_args
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # build_parser().parse_args(argv), one argparse level deep: the top level
    # has only -h and the command positional, whose nargs=PARSER hands the
    # subparser argv[1:] whole (-h and -- included) and copies its namespace
    # out, and leftovers raise 'unrecognized arguments' via _Parser.error
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = _parse_args(list(argv))
        return ns.func(ns)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (
        InputDataError, ProfileError, FramingError, ConeTooLarge, StaircaseError,
        InvalidComplexError, TorsionError, ComplexTooLarge,
    ) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_DATA
    except EliminationOverflow as e:
        print(f"overflow: {e}", file=sys.stderr)
        return EXIT_OVERFLOW


if __name__ == "__main__":
    sys.exit(main())
