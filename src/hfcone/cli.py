"""Command-line front end.

Subcommands: hf, ell, bound, spinc, pair, kfam, staircase, profile.
Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 spinc --oracle disagreement, 2 obstruction violated (pair/kfam, for
scripting), 64 usage error, 65 input data error (also a cone over
cone.COLUMN_BUDGET columns, a complex over cfk.SLICE_BUDGET
generators x slices, or a profile file over PROFILE_BYTES bytes), 70
internal arithmetic overflow, 74 the reader closed stdout early (nothing
on stderr).

Profile selectors: built-in names with parameters (unknot, lspace:g=3,
fig8, kfam:m=2,k=1, tau:g=2) or @path to a profile file.

Each subcommand imports only the modules it runs: staircase imports cfk,
and bound, spinc, pair and kfam import obstruct, when they start; hf, ell
and profile load neither. Every refusal of input data, here or in the
library (a profile, a complex, a cone or complex past its budget), is a
profiles.InputError, so main decides exit 65 without importing cfk; a
bad framing is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import re
import sys
from math import gcd

from . import profiles
from .cone import Framing, FramingError, surgery_report
from .exactla import EliminationOverflow
from .profiles import ROW, InputError, ProfileError, SurgeryProfile, ascii_int, quoted

EXIT_OK = 0
EXIT_VIOLATED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_OVERFLOW = 70


class UsageError(Exception):
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


# bytes read from a profile file, past which it is refused unread: about
# 150,000 `local` lines of rank 1, which `profile --check` reads in about
# 0.3 s and 50 MB when each line repeats the data of the line before, and
# 117,000 in about 0.8 s and 85 MB when every line differs, or one line
# of rank 10^6 in about 0.4 s and 68 MB (2-core x86-64, Python 3.11); a
# file that never ends, as @/dev/zero, stops here, once os.read was asked
# for PROFILE_BYTES + 1 bytes
PROFILE_BYTES = 2**22


def _resolve_profile(selector: str) -> SurgeryProfile:
    """The profile a selector names; @path is read by os.read, open to
    close in four system calls for a file of up to 64 KiB."""
    if selector.startswith("@"):
        path = selector[1:]
        try:
            fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
            try:
                # a read allocates what it asks for: most files fit in the
                # first 64 KiB, and only a longer one asks for the rest of
                # the budget; a pipe may answer any read short, so the
                # reads go on to its end
                chunks, size = [], 0
                while size <= PROFILE_BYTES and (
                    chunk := os.read(fd, 1 << 16 if size < 1 << 16 else PROFILE_BYTES + 1 - size)
                ):
                    chunks.append(chunk)
                    size += len(chunk)
            finally:
                os.close(fd)
            data = b"".join(chunks)
            if len(data) > PROFILE_BYTES:
                raise InputError(f"profile file {path} exceeds {PROFILE_BYTES} bytes")
            text = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as e:
            if isinstance(e, OSError):
                e.filename = path  # os.read names no file, as EISDIR on a directory
            raise InputError(f"cannot read profile file {path}: {e}") from None
        try:
            return profiles.parse(text.removeprefix("\ufeff"))
        except ProfileError as e:
            raise InputError(f"{path}: {e}") from None
    name, colon, params_text = selector.partition(":")
    params: dict[str, int] = {}
    if colon:  # 'fig8:' names an empty parameter, as 'lspace:g=3,' does
        for piece in params_text.split(","):
            key, eq, value = piece.partition("=")
            if not eq or not key or key in params:
                raise UsageError(f"bad profile parameter {quoted(piece)} in {quoted(selector)}")
            try:
                params[key] = ascii_int(value)
            except ValueError:
                raise UsageError(
                    f"bad profile parameter {quoted(piece)} in {quoted(selector)}"
                ) from None
    if name not in _BUILTINS:
        raise UsageError(f"unknown profile {quoted(selector)}; use {_BUILTIN_USAGE}, or @file")
    function, keys = _BUILTINS[name]
    if set(params) != set(keys):
        wanted = ",".join(sorted(keys)) or "none"
        raise UsageError(f"profile {quoted(selector)} takes parameters: {wanted}")
    try:
        # looked up at each call, so a wrapper set on the module sees it
        return getattr(profiles, function)(*(params[key] for key in keys))
    except ValueError as e:
        raise InputError(f"{selector}: {e}") from None


def _grid(ps: range, qs: range):
    """The reduced slopes p/q, q in qs outer, p in ps inner, both ascending,
    skipping p = 0; lazy, so a long range is never held in memory."""
    if not any(ps):
        # p in {0} or no p at all: no slope at any q, so do not walk q
        return
    for q in qs:
        for p in ps:
            if p and gcd(p, q) == 1:
                yield Framing(p, q)


def _check_spinc(spinc: int, framing) -> None:
    if framing is not None and not 0 <= spinc < abs(framing.p):
        raise UsageError(f"--spinc {spinc} outside [0, {abs(framing.p)}) for {framing}")


def _iter_framings(range_spec: str, spinc=None):
    """Grid 'P1..P2/Q1..Q2' as _grid walks it. An empty grid, and a --spinc
    outside [0, |p|) for some framing, are usage errors raised here, before
    any framing is computed; the error names the first such framing."""
    try:
        p_part, slash, q_part = range_spec.partition("/")
        p_lo, p_hi = (ascii_int(x) for x in p_part.split("..", 1))
        q_lo, q_hi = (ascii_int(x) for x in q_part.split("..", 1)) if slash else (1, 1)
    except ValueError:
        raise UsageError(
            f"cannot parse framing range {quoted(range_spec)}; expected 'P1..P2/Q1..Q2'"
        ) from None
    if q_lo < 1:
        raise UsageError("framing range requires q >= 1")
    ps, qs = range(p_lo, p_hi + 1), range(q_lo, q_hi + 1)
    if next(_grid(ps, qs), None) is None:
        raise UsageError(f"framing range {quoted(range_spec)} contains no reduced slopes")
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


# classes per write: one string per chunk, not one per class or per run,
# and memory that does not grow with the listing
_CHUNK = 1000
# the names of 0..999, where most listings stay, and the three-digit tails
# 000..999 that follow str(k) in each class 1000k + t, k >= 1: _UP[k > 0],
# reversed in _DOWN for the negative classes, whose tails descend; a slice
# of these joins in about 10 ns a class, str() takes about 130
_NAMES = tuple(map(str, range(1000)))
_UP = _NAMES, tuple(map(str.zfill, _NAMES, [3] * 1000))
_DOWN = tuple(names[::-1] for names in _UP)
# glibc hands the heap's top back to the system once 128 KiB lie free
# there, and a JSON chunk's strings (its pieces, itself, its encoded bytes)
# take about 270 KB, so in some heap layouts each chunk faulted its pages
# in again; freeing a block that malloc served by mmap raises that bound to
# twice the block's size (mallopt(3)), and bytes(n), calloc'ed, touches a page
bytes(1 << 20)


def _write_runs(runs, sep: str = "", head: str = "", tail: str = "") -> None:
    """Write head, before + str(i) + after for every i of every (classes,
    before, after) run, classes a range, with sep between entries, and
    tail, buffered across runs: one write per _CHUNK classes, so up to
    _CHUNK classes are one write. A piece of a run ends where its chunk or
    its thousand does: prefix P ("", str(k), "-" or "-" + str(k)) and the
    names or tails of the piece joined with glue + P, one join a piece."""
    write = sys.stdout.write
    parts, room, lead = [head], _CHUNK, ""
    for classes, before, after in runs:
        glue = after + sep + before
        lo, stop = classes.start, classes.stop
        while lo < stop:
            if not room:
                write("".join(parts))
                parts.clear()
                room = _CHUNK
            hi = stop if stop - lo <= room else lo + room  # not min(): a call per run
            if 0 <= lo and hi <= 1000:
                parts.append(f"{lead}{before}{glue.join(_NAMES[lo:hi])}{after}")
            else:  # three parts: a long body is not copied into a fourth string
                k, t = divmod(-lo if lo < 0 else lo, 1000)
                prefix = str(k) if k else ""
                if lo < 0:  # -(1000k + t) up to -1000k, or -t up to -1
                    n, t, prefix, tables = t + (k > 0), 999 - t, "-" + prefix, _DOWN
                else:  # 1000k + t up to 1000k + 999
                    n, tables = 1000 - t, _UP
                if hi - lo > n:
                    hi = lo + n
                body = (glue + prefix).join(tables[k > 0][t:t + hi - lo])
                parts += lead + before + prefix, body, after
            room -= hi - lo
            lo, lead = hi, sep
    parts.append(tail)
    write("".join(parts))


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
    # renders from report.runs, never report.spinc: the cones cost O(genus)
    # per framing, each run is described or fills the JSON template once,
    # and _write_runs writes the classes, so --spinc costs O(genus) at any |p|.
    # Both formats stream: each framing, with the text around it, is one
    # _write_runs call before the next one is computed, a JSON range as one
    # list element per framing (a framing is digits, "-" and "/", which
    # JSON does not escape), its "]" written with the last one.
    profile = _resolve_profile(ns.profile)
    framings = _framings_from_args(ns, ns.spinc)
    is_json, is_range = ns.format == "json", ns.framing_range is not None
    pad = "  " if is_range else ""
    for idx, (framing, is_last) in enumerate(_with_last(framings)):
        report = surgery_report(profile, framing)
        ell, total_rank, shown = report.ell, report.total_rank, report.runs
        if ns.spinc is not None:
            shown = [(range(ns.spinc, ns.spinc + 1), g) for run, g in shown if ns.spinc in run]
        if is_json:
            lead = (",\n" if idx else "[\n") if is_range else ""
            end = ("\n]\n" if is_range else "\n") if is_last else ""
            _write_runs(
                _json_runs(shown, pad + "    "), ",",
                f'{lead}{pad}{{\n{pad}  "framing": "{framing}",\n{pad}  "spinc": [',
                f'\n{pad}  ],\n{pad}  "ell": {ell},\n{pad}  "total_rank": {total_rank}'
                f'\n{pad}}}{end}',
            )
        else:
            lead = "\n" if idx else ""
            _write_runs(
                ((run, "i=", f": {group.describe()}{' (L)' if group.is_z else ''}\n")
                 for run, group in shown),
                "",
                f"{lead}framing {framing}\n",
                "" if ns.spinc is not None else f"ell={ell} total_rank={total_rank}\n",
            )
    return EXIT_OK


def _with_last(items):
    """(item, whether it is the last one) for each item, read one ahead."""
    items = iter(items)
    item = next(items)
    for following in items:
        yield item, False
        item = following
    yield item, True


def _cmd_ell(ns) -> int:
    profile = _resolve_profile(ns.profile)
    write = sys.stdout.write
    for framing in _framings_from_args(ns):
        report = surgery_report(profile, framing)
        prefix = f"{framing} " if ns.framing_range is not None else ""
        write(f"{prefix}ell={report.ell} total_rank={report.total_rank}\n")
    return EXIT_OK


def _cmd_bound(ns) -> int:
    from . import obstruct

    try:
        bound = obstruct.gz_lower_bound(ns.h1, ns.ell)
    except ValueError as e:
        raise InputError(str(e)) from None
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
        raise InputError(str(e)) from None
    # the second kind is the rest of range(p), below and above the first
    second = (range(first.start), range(first.stop, p)) if first else (range(p),)
    _write_set("first_kind", (first,))
    _write_set("second_kind", second)
    if ns.oracle:
        brute = obstruct.first_kind_scan(ns.genus, p, q)
        agree = all(a == b for a, b in itertools.zip_longest(brute, first))
        sys.stdout.write(f"oracle: {'agree' if agree else 'DISAGREE'}\n")
        if not agree:
            return 1
    return EXIT_OK


def _write_set(label: str, runs) -> None:
    """'label: ', the values of the ascending ranges runs joined by commas,
    or '-' when they are all empty, and their count; memory does not grow
    with p."""
    count = sum(run.stop - run.start for run in runs if run)  # len() stops at 2^63
    _write_runs(
        ((run, "", "") for run in runs), ",", f"{label}: ",
        f"{'' if count else '-'} (count {count})\n",
    )


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
    coeff_part, colon, top_part = text.partition(":")
    try:
        if not re.fullmatch(ROW, coeff_part):
            raise ValueError
        coeffs = list(map(int, coeff_part.split(",")))
        top = ascii_int(top_part) if colon else None
    except ValueError:
        raise InputError(f"cannot parse alexander coefficients {quoted(text)}") from None
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
    except InputError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_DATA
    # the count by __len__ itself: len() refuses one past sys.maxsize
    print(f"ok: {profile.name} genus {profile.genus} ({profile.overrides.__len__()} overrides)")
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


def _parse_exact(command: argparse.ArgumentParser, name: str, words: list[str]):
    """command.parse_args(words, Namespace(command=name)) for words that are
    exact flags of command, each followed by its value if it takes one, read
    from command's own action table; None for anything else (help, a
    prefix, --flag=value, --, an unknown flag, a value argparse would read
    as a flag, and every error), which argparse then reads."""
    table, is_number = command._option_string_actions, command._negative_number_matcher.match
    seen, present, values = set(), set(), {}
    words = iter(words)
    for flag in words:
        action = table.get(flag)
        if not isinstance(action, (argparse._StoreAction, argparse._StoreConstAction)):
            return None
        if action.nargs == 0:
            value = action.const
            present.add(action)  # argparse's value here is [], never the default
        else:
            # a value is a word argparse reads as one: empty, without a
            # leading dash, or taken for a number by _Parser's matcher
            word = next(words, None)
            if action.nargs is not None or word is None or word[:1] == "-" and not is_number(word):
                return None
            try:
                value = word if action.type is None else action.type(word)
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            if value is not action.default:
                present.add(action)
        seen.add(action)
        values[action.dest] = value
    for group in command._mutually_exclusive_groups:
        count = len(present.intersection(group._group_actions))
        if count > 1 or group.required and not count:
            return None
    namespace = argparse.Namespace(command=name)
    fields = vars(namespace)  # filled as argparse fills it, in the same order
    for action in command._actions:
        if action not in seen and (
            # a str default argparse would convert through the action's type
            action.required or action.type and isinstance(action.default, str)
        ):
            return None
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            fields.setdefault(action.dest, action.default)
    for dest, value in command._defaults.items():
        fields.setdefault(dest, value)
    fields.update(values)
    return namespace


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # build_parser().parse_args(argv), one argparse level deep: the top level
    # has only -h and the command positional, whose nargs=PARSER hands the
    # subparser argv[1:] whole (-h and -- included) and copies its namespace
    # out, and leftovers raise 'unrecognized arguments' via _Parser.error;
    # an argv of exact flags and values skips argparse's parse (_parse_exact)
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    namespace = _parse_exact(command, argv[0], argv[1:])
    if namespace is None:
        namespace = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return namespace


def main(argv=None) -> int:
    try:
        ns = _parse_args(list(sys.argv[1:] if argv is None else argv))
        code = ns.func(ns)
        sys.stdout.flush()  # in the try: a reader that left may show only here
        return code
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_DATA
    except EliminationOverflow as e:
        print(f"overflow: {e}", file=sys.stderr)
        return EXIT_OVERFLOW
    except BrokenPipeError:  # the reader closed stdout: 74, EX_IOERR, quietly
        try:  # stdout to devnull, or the flush at exit fails again (docs: SIGPIPE)
            fd = sys.stdout.fileno()
        except ValueError:  # io.UnsupportedOperation: no real fd, as under capture
            return 74
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 74


if __name__ == "__main__":
    sys.exit(main())
