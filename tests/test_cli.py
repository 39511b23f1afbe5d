"""End-to-end command-line behavior through main(argv); the scaling,
budget and memory tests run a fresh interpreter, to read its peak RSS."""

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import cli_pins
import helpers
import hfcone
from hfcone import cli, obstruct
from hfcone.cone import Framing
from hfcone.profiles import (
    LocalData, SurgeryProfile, figure_eight, lspace_knot, parse, serialize,
)
from test_cone import framings_st, profiles_st

OVERFLOW_PROFILE = """\
profile big genus 2
local -1 rank 2 v 3,4611686018427387904 h 4611686018427387904,3
local 0 rank 1 v 0 h 0
local 1 rank 2 v 3,4611686018427387904 h 4611686018427387904,3
"""

# at -1/1 the unit v = 1 of the first generator is the only pivot on its
# row; clearing the second generator's 2^62 there writes -2^124 below it
UNIT_PIVOT_OVERFLOW_PROFILE = """\
profile big genus 1
local 0 rank 2 v 1,4611686018427387904 h 4611686018427387904,0
"""


# genus 2, local 0 = local 1 = (2, 1) and local -1 zero: at 1/q the one
# class has a factor 2^(2q), past 2^63 from 1/32 on (sympy)
CHAIN_PROFILE = """\
profile chain genus 2
local -1 rank 1 v 0 h 0
local 0 rank 1 v 2 h 1
local 1 rank 1 v 2 h 1
"""

# every v and h entry 2, rank 3 inside the window
ALL_TWO_PROFILE = "profile all2 genus 5\n" + "".join(
    f"local {s} rank 3 v 2,2,2 h 2,2,2\n" for s in range(-4, 5)
)

# v = h = 2 on the middle slot: Z + Z/2 at -1, and classes with torsion
# at other framings
TWO = SurgeryProfile("two", 1, {0: LocalData(1, (2,), (2,))})


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ell_figure_eight(capsys):
    code, out, err = run(capsys, "ell", "--profile", "fig8", "--framing", "-5/1")
    assert code == 0
    assert out == "ell=4 total_rank=7\n"
    assert err == ""


def test_hf_text_output(capsys):
    code, out, _ = run(capsys, "hf", "--profile", "lspace:g=3", "--framing", "-1/1")
    assert code == 0
    assert out.splitlines() == [
        "framing -1/1",
        "i=0: Z^11",
        "ell=0 total_rank=11",
    ]


def test_hf_marks_l_structures(capsys):
    _, out, _ = run(capsys, "hf", "--profile", "fig8", "--framing", "-5/1")
    lines = out.splitlines()
    assert lines[0] == "framing -5/1"
    assert sum(1 for ln in lines if ln.endswith(" (L)")) == 4
    assert lines[-1] == "ell=4 total_rank=7"


def test_hf_single_spinc_class(capsys):
    code, out, _ = run(
        capsys, "hf", "--profile", "fig8", "--framing", "-5/1", "--spinc", "0"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("i=0: ")


def test_hf_json_schema(capsys):
    code, out, _ = run(
        capsys, "hf", "--profile", "fig8", "--framing", "-5/1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["framing", "spinc", "ell", "total_rank"]
    assert doc["framing"] == "-5/1"
    assert doc["ell"] == 4
    assert doc["total_rank"] == 7
    assert [e["i"] for e in doc["spinc"]] == [0, 1, 2, 3, 4]
    for entry in doc["spinc"]:
        assert list(entry) == ["i", "free_rank", "torsion", "l_structure"]
        assert entry["l_structure"] == (entry["free_rank"] == 1 and entry["torsion"] == [])
    assert sum(e["free_rank"] for e in doc["spinc"]) == doc["total_rank"]


def test_identical_invocations_identical_output(capsys):
    argv = ["hf", "--profile", "kfam:m=2,k=1", "--framing", "-7/1", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_repeated_main_calls_match_fresh_runs(capsys):
    # the parser is built once per process; no namespace default may leak
    # from one call into the next
    sequence = [
        ["hf", "--profile", "fig8", "--framing", "-5/1", "--spinc", "0"],
        ["hf", "--profile", "fig8", "--framing", "-5/1"],
        ["ell", "--profile", "fig8", "--framing", "-5/1"],
        ["hf", "--profile", "fig8", "--framing", "5", "--spinc", "9"],
    ]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in sequence * 2] == fresh * 2
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in fresh] == [0, 0, 0, 64]


def test_direct_dispatch_matches_two_level_parse(monkeypatch):
    # main parses argv[1:] with the subcommand's own parser, or from its
    # action table when argv is exact flags and values (_parse_exact);
    # argparse's two levels must give the same namespace, the same usage
    # error, or the same exit with the same help text
    parse_exact, taken = cli._parse_exact, []

    def counted(*args):
        namespace = parse_exact(*args)
        taken.append(namespace is not None)
        return namespace

    monkeypatch.setattr(cli, "_parse_exact", counted)
    parser = cli.build_parser()
    for make, seed in ((helpers.random_argv, 18), (helpers.exact_argv, 19)):
        rng, taken[:] = random.Random(seed), []
        for _ in range(3000):
            argv = make(rng)
            direct = helpers.parse_outcome(cli._parse_args, argv)
            assert direct == helpers.parse_outcome(parser.parse_args, argv), argv
        # the fast path is exercised, not only declined
        assert sum(taken) >= (100 if make is helpers.random_argv else 900), make


def test_well_formed_argv_skips_argparse(tmp_path, capsys, monkeypatch):
    # one argv of each benchmark shape, exact flags and values, is read
    # from the action table: argparse's parse never runs
    path = tmp_path / "mix.profile"
    path.write_text(
        "profile mix genus 2\nlocal -1 rank 1 v 0 h 1\n"
        "local 0 rank 3 v 1,2,0 h 1,0,-2\nlocal 1 rank 1 v 1 h 0\n"
    )
    argvs = [
        ["hf", "--profile", "fig8", "--framing", "-3/25"],
        ["hf", "--profile", f"@{path}", "--framing", "-7/3", "--format", "json"],
        ["ell", "--profile", "kfam:m=2,k=1", "--framing", "1000/7"],
        ["staircase", "--alexander", "1,-1,0,1,0,-1,1", "--emit-profile"],
        ["profile", "--show", "tau:g=3"],
    ]
    expected = [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 and out and not err for code, out, err in expected)

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [run(capsys, *argv) for argv in argvs] == expected


@pytest.mark.parametrize("value", ["-5", "-1/20", "-3..-1/1..2", "-1,3,-1"])
def test_dash_led_values_parse_after_any_spelling(value):
    # a word of a dash and a digit is a value after the full flag, a unique
    # prefix or in --flag=value form alike; this leans on argparse's
    # _negative_number_matcher, so a change in its internals fails here
    cases = [
        (["hf", "--profile", "fig8"], "framing", ["--framing"]),
        (["ell", "--profile", "fig8"], "framing_range", ["--framing-range", "--framing-r"]),
        (["spinc", "--genus", "1"], "framing", ["--framing", "--fram"]),
        (["staircase"], "alexander", ["--alexander", "--alex"]),
    ]
    for head, dest, spellings in cases:
        forms = [[flag, value] for flag in spellings] + [[f"{spellings[0]}={value}"]]
        namespaces = [vars(cli._parse_args(head + form)) for form in forms]
        assert namespaces[0][dest] == value, head
        assert all(ns == namespaces[0] for ns in namespaces), (head, namespaces)


def test_ell_cost_does_not_grow_with_p(capsys):
    cases = [
        (["--profile", "fig8", "--framing", "1000000000000"],
         "ell=999999999999 total_rank=1000000000002\n"),
        # ell = |p| - m q for this family
        (["--profile", "kfam:m=5,k=3", "--framing", "-1000000000001/7"],
         "ell=999999999966 total_rank=1000000000211\n"),
    ]
    for argv, expected in cases:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "ell", *argv)
        assert time.perf_counter() - t0 < 5.0, argv
        assert (code, out, err) == (0, expected, "")


def test_hf_spinc_cost_does_not_grow_with_p(capsys):
    cases = [
        (["--profile", "fig8", "--framing", "1000000000000", "--spinc", "5"],
         "framing 1000000000000/1\ni=5: Z^1 (L)\n"),
        (["--profile", "kfam:m=5,k=3", "--framing", "-1000000000001/7", "--spinc", "3"],
         "framing -1000000000001/7\ni=3: Z^7\n"),
    ]
    for argv, expected in cases:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "hf", *argv)
        assert time.perf_counter() - t0 < 5.0, argv
        assert (code, out, err) == (0, expected, "")
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "hf", "--profile", "fig8", "--framing", "1000000000000",
        "--spinc", "999999999999", "--format", "json",
    )
    assert time.perf_counter() - t0 < 5.0
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "framing": "1000000000000/1",
        "spinc": [{"i": 999999999999, "free_rank": 1, "torsion": [], "l_structure": True}],
        "ell": 999999999999,
        "total_rank": 1000000000002,
    }


# runs the CLI, then saves its own /proc/self/status and the names of the
# modules it loaded: the child's ru_maxrss would also count the pages of
# this process it was forked from, while VmHWM belongs to the image that
# exec started
_CHILD = """\
import sys
from hfcone.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as src, open(sys.argv[1] + "/status", "w") as dst:
    dst.write(src.read())
with open(sys.argv[1] + "/modules", "w") as dst:
    dst.write("\\n".join(sys.modules))
sys.exit(code)
"""


def _child_command(tmp_path, argv, flags=()):
    """The command and environment of one CLI run in a fresh interpreter,
    started with the given interpreter flags, that saves its
    /proc/self/status and its module names under tmp_path."""
    path = [str(Path(hfcone.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return [sys.executable, *flags, "-c", _CHILD, str(tmp_path), *argv], env


def _child_hwm_mb(tmp_path) -> float:
    status = (tmp_path / "status").read_text().splitlines()
    hwm = next(line for line in status if line.startswith("VmHWM:"))
    return int(hwm.split()[1]) / 1024


def run_child(tmp_path, *argv, timeout=60, stdout=subprocess.PIPE):
    """(exit code, stdout, stderr, seconds, peak RSS in MB) of one CLI run
    in a fresh interpreter; stdout is None when it goes to a given file."""
    command, env = _child_command(tmp_path, argv)
    t0 = time.perf_counter()
    proc = subprocess.run(
        command, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=timeout
    )
    seconds = time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, seconds, _child_hwm_mb(tmp_path)


def _child_modules(tmp_path, argv, flags=()):
    """(exit code, names of the loaded modules) of one CLI run in a fresh
    interpreter."""
    command, env = _child_command(tmp_path, argv, flags)
    code = subprocess.run(command, capture_output=True, env=env, timeout=60).returncode
    return code, set((tmp_path / "modules").read_text().split())


def test_each_command_imports_only_what_it_runs(tmp_path):
    unused = {"hfcone.cfk", "hfcone.obstruct", "fractions", "decimal"}
    for argv in (
        ["hf", "--profile", "fig8", "--framing", "-5"],
        ["ell", "--profile", "fig8", "--framing", "-5"],
        ["profile", "--show", "fig8"],
    ):
        code, modules = _child_modules(tmp_path, argv)
        assert (code, modules & unused) == (0, set()), argv
    code, modules = _child_modules(tmp_path, ["staircase", "--alexander", "1,-1,1"])
    assert (code, "hfcone.cfk" in modules, "hfcone.obstruct" in modules) == (0, True, False)
    code, modules = _child_modules(tmp_path, ["bound", "--h1", "7", "--ell", "3"])
    assert (code, "hfcone.obstruct" in modules, "hfcone.cfk" in modules) == (0, True, False)
    # -S skips site, whose .pth files may import typing on their own
    code, modules = _child_modules(tmp_path, ["hf", "--profile", "fig8", "--framing", "-5"], ["-S"])
    assert (code, "typing" in modules) == (0, False)
    # the value types are plain classes: no command loads dataclasses, and
    # so none loads inspect (with ast, dis and tokenize) either
    for argv in (
        ["hf", "--profile", "fig8", "--framing", "-5"],
        ["ell", "--profile", "lspace:g=2", "--framing-range", "-3..3/1..2"],
        ["profile", "--show", "kfam:m=2,k=1"],
        ["staircase", "--alexander", "1,-1,0,1,0,-1,1", "--emit-profile"],
        ["bound", "--h1", "7", "--ell", "3"],
    ):
        code, modules = _child_modules(tmp_path, argv, ["-S"])
        assert (code, modules & {"dataclasses", "inspect"}) == (0, set()), argv


def test_reader_closing_stdout_exits_74_quietly(tmp_path, monkeypatch):
    # as '| head -1': the listing outgrows the pipe, so a later write fails
    # with EPIPE, and the flush at exit must not fail again
    _, env = _child_command(tmp_path, [])
    env.pop("PYTHONUNBUFFERED", None)  # a short listing is written by a flush
    hf = [sys.executable, "-m", "hfcone.cli", "hf", "--profile", "fig8", "--framing"]
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "env": env}
    for fmt, first in (("text", b"framing -100000/1\n"), ("json", b"{\n")):
        proc = subprocess.Popen([*hf, "-100000", "--format", fmt], **pipes)
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), line, err) == (74, first, b""), fmt
    # a reader gone before anything is written: the short listing fails only
    # when stdout is flushed
    proc = subprocess.Popen([*hf, "-5"], **pipes)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (74, b"")

    # a stdout with no file descriptor is left as it is
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", Closed())
    assert cli.main(["ell", "--profile", "fig8", "--framing", "-5"]) == 74


def test_cost_does_not_grow_with_q(tmp_path):
    # fig8's middle slot fills one stretch of q copies, collapsed to two
    cases = [
        (["ell", "--profile", "fig8", "--framing", "-1/1000000000"],
         "ell=0 total_rank=2000000001\n"),
        (["hf", "--profile", "fig8", "--framing", "-1/1000000000", "--spinc", "0"],
         "framing -1/1000000000\ni=0: Z^2000000001\n"),
    ]
    for argv, expected in cases:
        code, out, err, seconds, rss_mb = run_child(tmp_path, *argv)
        assert (code, out, err) == (0, expected, ""), argv
        assert seconds < 1.0, argv
        assert rss_mb < 100, argv


def test_cost_does_not_grow_with_genus(tmp_path):
    # lspace and tau are one segment inside the window at any genus: three
    # stretches per cone and at most three runs per framing
    g = 10**9
    cases = [
        (["ell", "--profile", f"lspace:g={g}", "--framing", "1"], "ell=0 total_rank=3999999997\n"),
        (["ell", "--profile", f"lspace:g={g}", "--framing", f"{g + 1}/3"],
         "ell=0 total_rank=10999999993\n"),
        (["ell", "--profile", f"tau:g={g}", "--framing", "-7"], "ell=0 total_rank=4000000005\n"),
        (["profile", "--check", f"lspace:g={g}"],
         f"ok: lspace:g={g} genus {g} (1999999999 overrides)\n"),
        # more overrides than len() can return
        (["profile", "--check", "lspace:g=9223372036854775807"],
         "ok: lspace:g=9223372036854775807 genus 9223372036854775807"
         " (18446744073709551613 overrides)\n"),
    ]
    for argv, expected in cases:
        code, out, err, seconds, rss_mb = run_child(tmp_path, *argv)
        assert (code, out, err) == (0, expected, ""), argv
        assert seconds < 1.0, argv
        assert rss_mb < 100, argv


def test_cone_over_column_budget_exits_65(tmp_path):
    # (2, 1) does not collapse: 10^12 copies of the middle slot would be emitted
    path = tmp_path / "two.profile"
    path.write_text("profile two genus 1\nlocal 0 rank 1 v 2 h 1\n")
    code, out, err, seconds, rss_mb = run_child(
        tmp_path, "hf", "--profile", f"@{path}", "--framing", "1/1000000000000"
    )
    assert (code, out) == (65, "")
    assert err.startswith("input error: framing 1/1000000000000, class i=0: ")
    assert seconds < 2.0
    assert rss_mb < 100


def test_profile_file_over_byte_budget_exits_65(tmp_path):
    # a file that never ends is refused once PROFILE_BYTES are read
    code, out, err, seconds, rss_mb = run_child(
        tmp_path, "hf", "--profile", "@/dev/zero", "--framing", "1"
    )
    assert (code, out, err) == (
        65, "", f"input error: profile file /dev/zero exceeds {cli.PROFILE_BYTES} bytes\n"
    )
    assert seconds < 2.0
    assert rss_mb < 100


def test_profile_file_byte_budget_is_inclusive(tmp_path, capsys):
    # a valid profile padded with a comment to exactly PROFILE_BYTES is read
    text = serialize(figure_eight())
    path = tmp_path / "padded.profile"
    path.write_bytes(("#" * (cli.PROFILE_BYTES - len(text) - 1) + "\n" + text).encode())
    assert path.stat().st_size == cli.PROFILE_BYTES
    expected = run(capsys, "ell", "--profile", "fig8", "--framing", "-7")
    assert run(capsys, "ell", "--profile", f"@{path}", "--framing", "-7") == expected
    with path.open("ab") as fh:
        fh.write(b"\n")
    assert run(capsys, "profile", "--check", f"@{path}") == (
        65, "", f"invalid: profile file {path} exceeds {cli.PROFILE_BYTES} bytes\n"
    )


def test_profile_read_from_a_pipe(tmp_path):
    command, env = _child_command(tmp_path, ["hf", "--profile", "@/dev/stdin", "--framing", "-3"])
    proc = subprocess.run(
        command, input=serialize(figure_eight()).replace("\n", "\r\n"), capture_output=True,
        text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "framing -3/1\ni=0: Z^3\ni=1: Z^1 (L)\ni=2: Z^1 (L)\nell=2 total_rank=5\n", ""
    )


def _piped_child(tmp_path, argv, pieces, pause=0.05):
    """(exit code, stdout, stderr, seconds, peak RSS in MB) of one CLI run
    in a fresh interpreter whose stdin gets pieces one by one, each
    flushed and followed by a pause, so that its reads come back short."""
    command, env = _child_command(tmp_path, argv)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    with contextlib.suppress(BrokenPipeError):
        for piece in pieces:
            proc.stdin.write(piece)
            proc.stdin.flush()
            time.sleep(pause)
    out, err = proc.communicate(timeout=60)
    seconds = time.perf_counter() - t0
    return proc.returncode, out.decode(), err.decode(), seconds, _child_hwm_mb(tmp_path)


def test_profile_read_from_a_pipe_in_pieces(tmp_path, capsys):
    argv = ["hf", "--profile", "@/dev/stdin", "--framing", "-3"]
    text = serialize(figure_eight()).encode()
    path = tmp_path / "fig8.profile"
    path.write_bytes(text)
    code, out, err = run(capsys, "hf", "--profile", f"@{path}", "--framing", "-3")
    assert code == 0
    cut = len(text) // 3
    pieces = [text[:cut], text[cut : 2 * cut], text[2 * cut :]]
    assert _piped_child(tmp_path, argv, pieces)[:3] == (0, out, err)
    # past the first 64 KiB read, the rest of the file is read too
    padded = b"#" * (1 << 16) + b"\n" + text
    assert _piped_child(tmp_path, argv, [padded[:70000], padded[70000:]])[:3] == (0, out, err)
    # one byte over the budget, sent in 64 KiB pieces, is refused in time
    over = b"#" * (cli.PROFILE_BYTES + 1)
    chunks = [over[k : k + (1 << 16)] for k in range(0, len(over), 1 << 16)]
    code, out, err, seconds, rss_mb = _piped_child(tmp_path, argv, chunks, pause=0)
    assert (code, out, err) == (
        65, "", f"input error: profile file /dev/stdin exceeds {cli.PROFILE_BYTES} bytes\n"
    )
    assert seconds < 2.0
    assert rss_mb < 100


@pytest.mark.parametrize(
    "name, reason",
    [("", "[Errno 21] Is a directory"), ("missing", "[Errno 2] No such file or directory")],
)
def test_profile_file_read_errors_keep_their_wording(tmp_path, capsys, name, reason):
    path = tmp_path / name if name else tmp_path
    assert run(capsys, "hf", "--profile", f"@{path}", "--framing", "1") == (
        65, "", f"input error: cannot read profile file {path}: {reason}: '{path}'\n"
    )
    assert run(capsys, "profile", "--check", f"@{path}") == (
        65, "", f"invalid: cannot read profile file {path}: {reason}: '{path}'\n"
    )


def test_complex_over_slice_budget_exits_65(tmp_path):
    # T(2,20001): 20,001 generators x 20,001 slices, refused before the sweep
    coeffs = ",".join(str((-1) ** k) for k in range(20001))
    code, out, err, seconds, rss_mb = run_child(tmp_path, "staircase", "--alexander", coeffs)
    assert (code, out) == (65, "")
    assert err == (
        "input error: 20001 generators x 20001 slices = 400040001 exceeds the budget of"
        " 5000000\n"
    )
    assert seconds < 2.0
    assert rss_mb < 100


def _main_stdout(argv):
    # capsys is function-scoped, which hypothesis refuses; capture by hand
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _slopes(p_lo, p_hi, q_lo, q_hi):
    """The framings of --framing-range P_LO..P_HI/Q_LO..Q_HI, in its order."""
    return [
        Framing(p, q)
        for q in range(q_lo, q_hi + 1)
        for p in range(p_lo, p_hi + 1)
        if p and gcd(abs(p), q) == 1
    ]


@st.composite
def hf_requests_st(draw):
    """(framings, the --framing or --framing-range argv that selects them)."""
    if draw(st.booleans()):
        framing = draw(framings_st())
        return [framing], ["--framing", str(framing)]
    p_lo = draw(st.integers(-12, 11))
    p_hi = draw(st.integers(p_lo, 12))
    q_lo = draw(st.integers(1, 4))
    q_hi = draw(st.integers(q_lo, 4))
    framings = _slopes(p_lo, p_hi, q_lo, q_hi)
    if not framings:
        framings, spec = [Framing(p_lo or 1)], f"{p_lo or 1}..{p_lo or 1}"
    else:
        spec = f"{p_lo}..{p_hi}/{q_lo}..{q_hi}"
    return framings, ["--framing-range", spec]


@given(profiles_st(), hf_requests_st(), st.data())
@settings(max_examples=200, deadline=None)
def test_hf_output_matches_per_class_reference(tmp_path_factory, profile, hf_request, data):
    framings, framing_argv = hf_request
    spinc = data.draw(
        st.none() | st.integers(0, min(abs(f.p) for f in framings) - 1), label="spinc"
    )
    fmt = data.draw(st.sampled_from(["text", "json"]), label="format")
    path = tmp_path_factory.mktemp("hf") / "drawn.profile"
    path.write_text(serialize(profile))
    argv = ["hf", "--profile", f"@{path}", *framing_argv, "--format", fmt]
    if spinc is not None:
        argv += ["--spinc", str(spinc)]
    is_range = framing_argv[0] == "--framing-range"
    expected = helpers.reference_hf_stdout(profile, framings, spinc, fmt, is_range)
    event("torsion" if '"torsion": [\n' in expected or " + Z/" in expected else "torsion-free")
    event(f"{fmt}, {'range' if is_range else 'single'}, spinc {spinc is not None}")
    assert _main_stdout(argv) == expected


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_hf_runs_across_chunks_match_reference(tmp_path, fmt):
    # fig8 at n/q has one run of n - 1 classes of Z; v = h = 2 at -n/(n-1)
    # has one of n - 1 classes of Z + Z/2: both cross every chunk boundary
    chunk = cli._CHUNK
    path = tmp_path / "two.profile"
    path.write_text(serialize(TWO))
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        for profile, selector, single, grid in (
            (figure_eight(), "fig8", Framing(-n), (n, n, 1, 2)),
            (TWO, f"@{path}", Framing(-n, n - 1), (-n, -n, n - 2, n - 1)),
        ):
            requests = [
                ([single], ["--framing", str(single)], False),
                (_slopes(*grid), ["--framing-range", "{}..{}/{}..{}".format(*grid)], True),
            ]
            for (framings, framing_argv, is_range), spinc in itertools.product(
                requests, (None, n - 2)
            ):
                argv = ["hf", "--profile", selector, *framing_argv, "--format", fmt]
                if spinc is not None:
                    argv += ["--spinc", str(spinc)]
                expected = helpers.reference_hf_stdout(profile, framings, spinc, fmt, is_range)
                assert _main_stdout(argv) == expected, argv


@st.composite
def write_runs_st(draw):
    """(classes, before, after) runs whose ends fall on and beside thousand
    and chunk boundaries (+-999, +-1000, +-1001), negative, positive, across
    0 or empty, up to 10^12 away from 0: a run may cover several thousands,
    and its chunks may end inside a thousand."""
    chunk = cli._CHUNK
    # shifting both ends by a multiple of 1000 keeps each thousand a thousand
    shift = draw(st.sampled_from([0, 0, 1000, -1000, 10**6, -(10**6), 10**12, -(10**12)]))
    base = draw(st.sampled_from([0, 1, 500, 999, 1000, 1001, 2 * chunk]))
    start = shift + draw(st.sampled_from([1, -1])) * base + draw(st.integers(-2, 2))
    length = draw(st.sampled_from([0, 1, 500, 999, chunk, chunk + 1, 2 * chunk, 3 * chunk]))
    length += draw(st.integers(0, 2))
    classes = range(start, start + length)
    before = draw(st.sampled_from(["", "i=", "local ", '\n    {\n      "i": ']))
    after = draw(st.sampled_from(["", ": Z^1 (L)\n", " rank 1 v 0 h 0\n", "\n    }"]))
    return classes, before, after


@st.composite
def short_runs_st(draw):
    """Ten to twenty-four runs of at most 150 classes, in and out of the
    names 0..999, many across a thousand (0, +-1000, -10^6, 10^12):
    together they mostly pass a chunk, so chunks end inside runs and inside
    thousands, and runs share chunks."""
    runs = []
    for _ in range(draw(st.integers(10, 24))):
        start = draw(st.sampled_from([0, 1000, -1000, -(10**6), 10**12]))
        start += draw(st.integers(-200, 200))
        classes = range(start, start + draw(st.sampled_from([0, 1, 9, 100, 150, 150])))
        before = draw(st.sampled_from(["", "i=", "local "]))
        runs.append((classes, before, draw(st.sampled_from(["", ": Z^1 (L)\n"]))))
    return runs


class CountingStdout(io.StringIO):
    """A stdout that counts the write calls made on it."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@given(
    st.lists(write_runs_st(), max_size=3) | short_runs_st(),
    st.sampled_from(["", ","]),
    st.sampled_from(["", "framing -5/1\n", '[\n  {\n    "framing": "1/2",\n    "spinc": [']),
    st.sampled_from(["", "ell=1 total_rank=3\n", '\n    ],\n    "ell": 1\n  }\n]\n']),
)
@settings(max_examples=300, deadline=None)
def test_write_runs_matches_per_entry_rendering(runs, sep, head, tail):
    # the names 0..999, the joins per thousand and the chunks across runs
    # against one before + str(i) + after per entry, with head and tail
    for classes, _, _ in runs:
        event(
            "empty" if not classes
            else "across 0" if classes.start < 0 < classes.stop - 1
            else "negative" if classes.start < 0 else "non-negative"
        )
    entries = [f"{before}{i}{after}" for classes, before, after in runs for i in classes]
    past = len(entries) > cli._CHUNK
    event(f"{'many' if len(runs) > 3 else 'few'} runs, {'past' if past else 'within'} a chunk")
    out = CountingStdout()
    with contextlib.redirect_stdout(out):
        cli._write_runs(runs, sep, head, tail)
    assert out.getvalue() == head + sep.join(entries) + tail
    # one write per chunk of classes, and one for a listing of none
    assert out.writes == max(1, -(-len(entries) // cli._CHUNK))


def test_each_framing_is_one_write(monkeypatch):
    # a framing of at most _CHUNK classes, header, runs and footer, is one
    # write: fig8 at -5 has two runs, and a range writes one per framing
    hf = ["hf", "--profile", "fig8"]
    cases = [
        ([*hf, "--framing", "-5"], 1),
        ([*hf, "--framing", "-5", "--format", "json"], 1),
        ([*hf, "--framing", "-5", "--spinc", "3"], 1),
        ([*hf, "--framing-range", "-3..-1"], 3),
        ([*hf, "--framing-range", "-3..-1", "--format", "json"], 3),
        (["ell", "--profile", "fig8", "--framing", "-5"], 1),
        (["ell", "--profile", "fig8", "--framing-range", "-3..-1"], 3),
        (["profile", "--show", "fig8"], 1),
        (["spinc", "--genus", "1", "--framing", "5"], 2),
        ([*hf, "--framing", "-2500"], -(-2500 // cli._CHUNK)),
        ([*hf, "--framing", "-2500", "--format", "json"], -(-2500 // cli._CHUNK)),
    ]
    for argv, writes in cases:
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert (cli.main(argv), out.writes) == (0, writes), argv


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_profile_file_reads_close_their_descriptor(tmp_path):
    # 200 reads that fail, after the open or before it, and 200 that pass
    good = tmp_path / "fig8.profile"
    good.write_text(serialize(figure_eight()))
    over = tmp_path / "over.profile"
    over.write_bytes(b"#" * (cli.PROFILE_BYTES + 1))
    latin = tmp_path / "latin.profile"
    latin.write_bytes(b"profile x genus 1\nlocal 0 rank 1 v 1 h \xff\n")
    failing = [tmp_path, tmp_path / "missing", over, latin]
    open_fds = len(os.listdir("/proc/self/fd"))
    for k in range(200):
        with pytest.raises(cli.InputError):
            cli._resolve_profile(f"@{failing[k % len(failing)]}")
        assert cli._resolve_profile(f"@{good}") == figure_eight()
    assert len(os.listdir("/proc/self/fd")) == open_fds


_CLASS_LINE = re.compile(r' *(?:i=|"i": )([0-9]+)')


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_large_hf_output_keeps_memory_flat(tmp_path, fmt):
    # 10^6 classes, all but one in one run: one string for the whole run
    # would peak near 105 MB as text and 215 MB as JSON. stdout goes to a
    # file that is read line by line, so this process never holds it.
    path = tmp_path / "stdout"
    with open(path, "w") as out:
        code, _, err, _, rss_mb = run_child(
            tmp_path, "hf", "--profile", "fig8", "--framing", "-1000000", "--format", fmt,
            stdout=out,
        )
    assert (code, err) == (0, "")
    assert rss_mb < 40
    classes = 0
    with open(path) as out:
        for line in out:
            match = _CLASS_LINE.match(line)
            if match:
                assert int(match[1]) == classes
                classes += 1
    path.unlink()
    assert classes == 10**6


def test_hf_json_with_torsion_matches_reference(tmp_path):
    # the Z + Z/2 class of test_non_unit_remainder_goes_to_smith_form, and
    # classes with two and three divisors (class 0 at -2/5 is
    # Z^1 + Z/2 + Z/2 + Z/2), in both formats
    path = tmp_path / "two.profile"
    path.write_text(serialize(TWO))
    out = _main_stdout(["hf", "--profile", f"@{path}", "--framing", "-1", "--format", "json"])
    assert '"torsion": [\n        2\n      ]' in out
    out = _main_stdout(["hf", "--profile", f"@{path}", "--framing", "-2/5", "--format", "json"])
    assert '"torsion": [\n        2,\n        2,\n        2\n      ]' in out
    for fmt in ("text", "json"):
        for framing in (Framing(-1), Framing(-2, 5), Framing(-2, 3)):
            out = _main_stdout(
                ["hf", "--profile", f"@{path}", "--framing", str(framing), "--format", fmt]
            )
            assert out == helpers.reference_hf_stdout(TWO, [framing], fmt=fmt)
        framings = [Framing(p) for p in (-3, -2, -1)]
        out = _main_stdout(
            ["hf", "--profile", f"@{path}", "--framing-range", "-3..-1", "--format", fmt]
        )
        if fmt == "json":
            assert '"torsion": [\n          2\n        ]' in out
        assert out == helpers.reference_hf_stdout(TWO, framings, fmt=fmt, is_range=True)


def test_hf_text_range_streams_until_a_failure(tmp_path, capsys):
    # CHAIN_PROFILE computes at 1/31 and overflows at 1/32
    path = tmp_path / "chain.profile"
    path.write_text(CHAIN_PROFILE)
    selector = f"@{path}"
    _, single, _ = run(capsys, "hf", "--profile", selector, "--framing", "1/31")
    assert single == "framing 1/31\ni=0: Z^61 + Z/4611686018427387904\nell=0 total_rank=61\n"
    code, out, err = run(capsys, "hf", "--profile", selector, "--framing-range", "1..1/31..32")
    assert (code, out) == (70, single)
    assert err.startswith("overflow: ")
    # JSON streams too: the 1/31 element of the list, then the overflow
    _, single, _ = run(capsys, "hf", "--profile", selector, "--framing", "1/31", "--format", "json")
    code, out, err = run(
        capsys, "hf", "--profile", selector, "--framing-range", "1..1/31..32", "--format", "json"
    )
    assert (code, out) == (70, "[\n" + textwrap.indent(single.rstrip("\n"), "  "))
    assert err.startswith("overflow: ")
    assert json.loads(out + "\n]") == [json.loads(single)]


def test_hf_json_range_keeps_memory_flat(tmp_path):
    # 10^5 framings, each written before the next is computed: held as one
    # document until the last framing, the range peaked near 164 MB
    path = tmp_path / "stdout"
    with open(path, "w") as out:
        code, _, err, _, rss_mb = run_child(
            tmp_path, "hf", "--profile", "fig8", "--framing-range", "-1..-1/1..100000",
            "--format", "json", stdout=out,
        )
    assert (code, err) == (0, "")
    assert rss_mb < 40
    with open(path) as out:
        # each framing's document reads as its framing, each class as None
        framings = json.load(out, object_hook=lambda doc: doc.get("framing"))
    path.unlink()
    assert framings == [str(Framing(-1, q)) for q in range(1, 100001)]


def test_hf_spinc_checked_before_any_report(tmp_path, capsys):
    path = tmp_path / "huge.profile"
    path.write_text(OVERFLOW_PROFILE)
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "hf", "--profile", f"@{path}", "--framing-range", "1..3/1..2",
            "--spinc", "2", "--format", fmt,
        )
        assert (code, out) == (64, "")
        assert err == "usage error: --spinc 2 outside [0, 1) for 1/1\n"


def test_framing_range_is_lazy(tmp_path):
    # an endless grid: ell prints its first framings at once, then is stopped
    command, env = _child_command(
        tmp_path, ["ell", "--profile", "unknot", "--framing-range", "1..1000000000000"]
    )
    with pytest.raises(subprocess.TimeoutExpired) as stopped:
        subprocess.run(command, capture_output=True, env=env, timeout=2)
    assert stopped.value.stdout.decode().splitlines()[:3] == [
        f"{p}/1 ell={p} total_rank={p}" for p in (1, 2, 3)
    ]
    # the checks made before any output look at the first framings only
    huge = 10**12
    cases = [
        (["ell", "--profile", "unknot", "--framing-range", f"0..0/1..{huge}"],
         f"usage error: framing range '0..0/1..{huge}' contains no reduced slopes\n"),
    ]
    for lo, spinc, first in ((-5, 3, Framing(-3)), (3, 3, Framing(3)), (-5, -1, Framing(-5))):
        cases.append((
            ["hf", "--profile", "fig8", "--framing-range", f"{lo}..{huge}/1..{huge}",
             "--spinc", str(spinc)],
            f"usage error: --spinc {spinc} outside [0, {abs(first.p)}) for {first}\n",
        ))
    for argv, expected in cases:
        code, out, err, seconds, rss_mb = run_child(tmp_path, *argv, timeout=5)
        assert (code, out, err) == (64, "", expected), argv
        assert seconds < 2.0, argv
        assert rss_mb < 100, argv


def test_framing_range_order(capsys):
    code, out, _ = run(capsys, "ell", "--profile", "unknot", "--framing-range", "1..3/1..2")
    assert code == 0
    assert out.splitlines() == [
        "1/1 ell=1 total_rank=1",
        "2/1 ell=2 total_rank=2",
        "3/1 ell=3 total_rank=3",
        "1/2 ell=1 total_rank=1",
        "3/2 ell=3 total_rank=3",
    ]


def test_framing_range_skips_zero(capsys):
    code, out, _ = run(capsys, "ell", "--profile", "unknot", "--framing-range", "-2..2")
    assert code == 0
    assert [ln.split()[0] for ln in out.splitlines()] == ["-2/1", "-1/1", "1/1", "2/1"]


def test_kfam_violated_exact_line_and_exit(capsys):
    code, out, _ = run(
        capsys, "kfam", "--m", "2", "--n", "1", "--p", "7", "--q1", "1", "--q2", "1"
    )
    assert code == 2
    assert out == "violated: q2/q1 = 1 < 2 = m/(2n-1)\n"


def test_kfam_consistent(capsys):
    code, out, _ = run(
        capsys, "kfam", "--m", "2", "--n", "1", "--p", "7", "--q1", "1", "--q2", "2"
    )
    assert code == 0
    assert out == "consistent: q2/q1 = 2 >= 2 = m/(2n-1)\n"


def test_kfam_not_applicable(capsys):
    code, out, err = run(
        capsys, "kfam", "--m", "0", "--n", "1", "--p", "7", "--q1", "1", "--q2", "2"
    )
    assert (code, out, err) == (0, "not_applicable: m and n must be >= 1\n", "")
    code, out, err = run(
        capsys, "kfam", "--m", "1", "--n", "1", "--q1", "0", "--q2", "1", "--p", "5"
    )
    assert (code, out, err) == (0, "not_applicable: q1 must be positive\n", "")


def test_pair_modes(capsys):
    code, out, _ = run(
        capsys, "pair", "--g1", "2", "--q1", "3", "--g2", "1", "--q2", "1",
        "--p", "10", "--mode", "first",
    )
    assert code == 2
    assert out.startswith("violated: ")
    code, out, _ = run(
        capsys, "pair", "--g1", "1", "--q1", "2", "--g2", "1", "--q2", "2",
        "--p", "7", "--mode", "both",
    )
    assert code == 0
    assert out.startswith("consistent: ")


def test_pair_not_applicable(capsys):
    code, out, _ = run(
        capsys, "pair", "--g1", "2", "--q1", "1", "--g2", "1", "--q2", "1",
        "--p", "3", "--mode", "first",
    )
    assert code == 0
    assert out.startswith("not_applicable: ")


def test_spinc_classification(capsys):
    code, out, _ = run(capsys, "spinc", "--genus", "1", "--framing", "5/2", "--oracle")
    assert code == 0
    assert out.splitlines() == [
        "first_kind: 2,3,4 (count 3)",
        "second_kind: 0,1 (count 2)",
        "oracle: agree",
    ]


def test_spinc_oracle_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(obstruct, "first_kind_scan", lambda g, p, q: iter([0]))
    code, out, _ = run(capsys, "spinc", "--genus", "1", "--framing", "5/2", "--oracle")
    assert code == 1
    assert out.splitlines()[-1] == "oracle: DISAGREE"


def test_spinc_lists_match_sorted_set_rendering():
    # the lists as sorted sets, the first kind from the brute-force scan
    def render(label, values):
        return f"{label}: {','.join(map(str, values)) or '-'} (count {len(values)})\n"

    for g, p, q in itertools.product(range(1, 5), range(1, 61), range(1, 9)):
        if gcd(p, q) != 1:
            continue
        first = obstruct.first_kind_brute(g, p, q)
        expected = render("first_kind", sorted(first)) + render(
            "second_kind", sorted(set(range(p)) - first)
        )
        assert _main_stdout(["spinc", "--genus", str(g), "--framing", f"{p}/{q}"]) == expected


def test_spinc_memory_stays_flat(tmp_path):
    # sorting set(range(p)) peaked at 172 MB here; the lists are streamed
    path = tmp_path / "stdout"
    with open(path, "w") as out:
        code, _, err, _, rss_mb = run_child(
            tmp_path, "spinc", "--genus", "1", "--framing", "1000000", stdout=out
        )
    assert (code, err) == (0, "")
    assert rss_mb < 40
    first, second = path.read_text().splitlines()
    assert first.startswith("first_kind: 1,2,3,") and first.endswith(",999999 (count 999999)")
    assert second == "second_kind: 0 (count 1)"
    # the oracle checks the scan class by class; its set peaked at 171 MB
    with open(path, "w") as out:
        code, _, err, _, rss_mb = run_child(
            tmp_path, "spinc", "--genus", "2", "--framing", "1000003/3", "--oracle", stdout=out
        )
    assert (code, err) == (0, "")
    assert rss_mb < 40
    assert path.read_text().splitlines()[-1] == "oracle: agree"


def test_bound_values(capsys):
    code, out, _ = run(capsys, "bound", "--h1", "11", "--ell", "4")
    assert code == 0
    assert out == "gz_lower_bound=4\n"
    code, out, _ = run(capsys, "bound", "--h1", "5", "--ell", "1")
    assert out == "gz_lower_bound=5/2\n"
    code, out, _ = run(capsys, "bound", "--h1", "5", "--ell", "5")
    assert code == 0
    assert out.startswith("not_applicable")


def test_staircase_summary_and_profile(capsys):
    code, out, _ = run(capsys, "staircase", "--alexander", "1,-1,1")
    assert code == 0
    assert out == "genus 1, generators 3, arrows 2: valid staircase\n"
    code, out, _ = run(
        capsys, "staircase", "--alexander", "1,-1,0,1,0,-1,1:3", "--emit-profile"
    )
    assert code == 0
    assert parse(out) == lspace_knot(3)


def test_profile_show_keeps_memory_flat(tmp_path):
    # 2,000,000 lines, written in chunks: held as one list of lines, they
    # peaked near 300 MB
    path = tmp_path / "stdout"
    with open(path, "w") as out:
        code, _, err, _, rss_mb = run_child(
            tmp_path, "profile", "--show", "lspace:g=1000000", stdout=out
        )
    assert (code, err) == (0, "")
    assert rss_mb < 40
    # every line, so a thousand written out of order cannot pass
    with open(path) as out:
        assert next(out) == "profile lspace:g=1000000 genus 1000000\n"
        lines, last = 1, None
        for s, last in enumerate(out, -999999):
            assert last == f"local {s} rank 1 v 0 h 0\n"
            lines += 1
    path.unlink()
    assert lines == 2 * 10**6
    assert last == "local 999999 rank 1 v 0 h 0\n"


def test_profile_show_round_trips(capsys):
    code, out, _ = run(capsys, "profile", "--show", "lspace:g=2")
    assert code == 0
    assert parse(out) == lspace_knot(2)


def test_profile_check_ok(capsys):
    code, out, _ = run(capsys, "profile", "--check", "fig8")
    assert code == 0
    assert out == "ok: fig8 genus 1 (1 overrides)\n"


def test_profile_check_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.profile"
    bad.write_text("profile broken genus 1\nlocal 0 rank 2 v 1 h 1\n")
    code, out, err = run(capsys, "profile", "--check", f"@{bad}")
    assert code == 65
    assert out == ""
    assert err.startswith("invalid: ")


def test_profile_file_not_utf8_exits_65(tmp_path, capsys):
    path = tmp_path / "latin.profile"
    path.write_bytes(b"profile x genus 1\nlocal 0 rank 1 v 1 h \xff\n")
    reason = "'utf-8' codec can't decode byte 0xff in position 39: invalid start byte"
    assert run(capsys, "hf", "--profile", f"@{path}", "--framing", "1") == (
        65, "", f"input error: cannot read profile file {path}: {reason}\n"
    )
    assert run(capsys, "profile", "--check", f"@{path}") == (
        65, "", f"invalid: cannot read profile file {path}: {reason}\n"
    )


def test_profile_file_byte_order_mark_is_skipped(tmp_path, capsys):
    path = tmp_path / "bom.profile"
    assert cli.main(["profile", "--show", "fig8"]) == 0
    path.write_bytes(b"\xef\xbb\xbf" + capsys.readouterr().out.encode())
    expected = run(capsys, "hf", "--profile", "fig8", "--framing", "-5")
    assert expected[0] == 0
    assert run(capsys, "hf", "--profile", f"@{path}", "--framing", "-5") == expected
    assert run(capsys, "profile", "--check", f"@{path}")[:2] == (0, "ok: fig8 genus 1 (1 overrides)\n")


def test_profile_file_selector(tmp_path, capsys):
    path = tmp_path / "t.profile"
    path.write_text(
        "# comments are fine\n"
        "profile mine genus 1\n"
        "local 0 rank 1 v 0 h 0\n"
    )
    code, out, _ = run(capsys, "ell", "--profile", f"@{path}", "--framing", "-1/1")
    assert code == 0
    assert out == "ell=0 total_rank=3\n"


def test_usage_errors_exit_64(capsys):
    cases = [
        ["hf", "--profile", "nonsense", "--framing", "1"],
        ["hf", "--profile", "lspace:g=two", "--framing", "1"],
        ["hf", "--profile", "lspace:k=2", "--framing", "1"],
        ["hf", "--profile", "fig8", "--framing", "1/0"],
        ["hf", "--profile", "fig8", "--framing", "4/2"],
        ["hf", "--profile", "fig8"],
        ["hf", "--profile", "fig8", "--framing", "5", "--spinc", "9"],
        ["ell", "--profile", "unknot", "--framing-range", "5..1"],
        ["ell", "--profile", "unknot", "--framing-range", "1..4/0..2"],
        # integers on the command line are ASCII [+-]?[0-9]+ only
        ["hf", "--profile", "fig8", "--framing", "-\u0665"],
        ["hf", "--profile", "fig8", "--framing", "5/\u0663"],
        ["ell", "--profile", "fig8", "--framing-range", "-\u0665..-1"],
        ["ell", "--profile", "fig8", "--framing-range", "-5..-1/1..1_0"],
        ["hf", "--profile", "lspace:g=1_0", "--framing", "1"],
        ["hf", "--profile", "fig8", "--framing", "5", "--spinc", "\u0661"],
        ["bound", "--h1", "\u0665", "--ell", "1"],
        ["pair", "--g1", "1", "--q1", "1", "--g2", "1", "--q2", "1", "--p", "1_0"],
        ["not-a-command"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert err != "", argv


_UNKNOWN_PROFILE = "; use unknot, lspace:g=G, fig8, kfam:m=M,k=K, tau:g=G, or @file\n"


@pytest.mark.parametrize("argv, code, err", [
    (["hf", "--profile", "nonsense", "--framing", "1"], 64,
     "usage error: unknown profile 'nonsense'" + _UNKNOWN_PROFILE),
    (["hf", "--profile", "nonsense:g=1", "--framing", "1"], 64,
     "usage error: unknown profile 'nonsense:g=1'" + _UNKNOWN_PROFILE),
    (["hf", "--profile", "lspace:k=2", "--framing", "1"], 64,
     "usage error: profile 'lspace:k=2' takes parameters: g\n"),
    (["hf", "--profile", "fig8:g=1", "--framing", "1"], 64,
     "usage error: profile 'fig8:g=1' takes parameters: none\n"),
    (["hf", "--profile", "kfam:m=1", "--framing", "1"], 64,
     "usage error: profile 'kfam:m=1' takes parameters: k,m\n"),
    (["hf", "--profile", "lspace:g=0", "--framing", "1"], 65,
     "input error: lspace:g=0: lspace_knot requires g >= 1\n"),
    (["hf", "--profile", "kfam:m=0,k=1", "--framing", "1"], 65,
     "input error: kfam:m=0,k=1: k_family requires m >= 1 and k >= 1\n"),
    (["staircase", "--alexander", "1,1,1"], 65,
     "input error: polynomial does not evaluate to 1 at t = 1\n"),
    (["staircase", "--alexander", "1,0,1"], 65,
     "input error: polynomial does not evaluate to 1 at t = 1\n"),
    (["hf", "--profile", "lspace:g", "--framing", "1"], 64,
     "usage error: bad profile parameter 'g' in 'lspace:g'\n"),
    (["hf", "--profile", "lspace:=3", "--framing", "1"], 64,
     "usage error: bad profile parameter '=3' in 'lspace:=3'\n"),
    (["spinc", "--genus", "0", "--framing", "5"], 65,
     "input error: classification requires g >= 1\n"),
    (["hf", "--framing", "--profile", "fig8"], 64,
     "usage error: argument --framing: expected one argument\n"),
    (["hf", "--profile", "fig8", "--framing", "5", "--framing-range", "1..2"], 64,
     "usage error: argument --framing-range: not allowed with argument --framing\n"),
    (["ell", "--profile", "fig8"], 64,
     "usage error: one of the arguments --framing --framing-range is required\n"),
    (["ell", "--profile", "lspace:g=1,g=2", "--framing", "-9/2"], 64,
     "usage error: bad profile parameter 'g=2' in 'lspace:g=1,g=2'\n"),
    (["ell", "--profile", "kfam:m=1,k=1,m=2", "--framing", "1"], 64,
     "usage error: bad profile parameter 'm=2' in 'kfam:m=1,k=1,m=2'\n"),
    # an empty field after a separator is refused, as a bad one is
    (["hf", "--profile", "fig8:", "--framing", "1"], 64,
     "usage error: bad profile parameter '' in 'fig8:'\n"),
    (["hf", "--profile", "lspace:g=3,", "--framing", "1"], 64,
     "usage error: bad profile parameter '' in 'lspace:g=3,'\n"),
    (["hf", "--profile", "fig8", "--framing-range", "1..3/"], 64,
     "usage error: cannot parse framing range '1..3/'; expected 'P1..P2/Q1..Q2'\n"),
    (["hf", "--profile", "fig8", "--framing", "5/"], 64,
     "usage error: cannot parse framing '5/'; expected 'p' or 'p/q'\n"),
    (["staircase", "--alexander", "1,-1,1:"], 65,
     "input error: cannot parse alexander coefficients '1,-1,1:'\n"),
    (["staircase", "--alexander", "1,-1,1:x"], 65,
     "input error: cannot parse alexander coefficients '1,-1,1:x'\n"),
    (["staircase", "--alexander", "1,,1"], 65,
     "input error: cannot parse alexander coefficients '1,,1'\n"),
    (["staircase", "--alexander", "1,-1,1,"], 65,
     "input error: cannot parse alexander coefficients '1,-1,1,'\n"),
    (["staircase", "--alexander", "1_0,-1,1"], 65,
     "input error: cannot parse alexander coefficients '1_0,-1,1'\n"),
    (["staircase", "--alexander", "1, -1,1"], 65,
     "input error: cannot parse alexander coefficients '1, -1,1'\n"),
    # signs out of place pass the character match and are refused by int()
    (["staircase", "--alexander", "1,1-2,1"], 65,
     "input error: cannot parse alexander coefficients '1,1-2,1'\n"),
    (["staircase", "--alexander", "+-1,0,1"], 65,
     "input error: cannot parse alexander coefficients '+-1,0,1'\n"),
    (["staircase", "--alexander", "1,+,1"], 65,
     "input error: cannot parse alexander coefficients '1,+,1'\n"),
    # past int()'s digit limit: the same message, quoted short
    (["staircase", "--alexander", "1" * 5000 + ",-1,1"], 65,
     "input error: cannot parse alexander coefficients '" + "1" * 99 + "… (5007 characters)\n"),
])
def test_input_error_messages(capsys, argv, code, err):
    assert run(capsys, *argv) == (code, "", err)


def test_data_errors_exit_65(tmp_path, capsys):
    missing = tmp_path / "missing.profile"
    syntactically_bad = tmp_path / "syntax.profile"
    syntactically_bad.write_text("not a profile at all\n")
    arabic_digit = tmp_path / "arabic.profile"
    arabic_digit.write_text("profile x genus 1\nlocal 0 rank 1 v \u0661 h 0\n", encoding="utf-8")
    underscore = tmp_path / "underscore.profile"
    underscore.write_text("profile x genus 1\nlocal 0 rank 1 v 0 h 1_0\n")
    huge_entry = tmp_path / "huge-entry.profile"
    huge_entry.write_text(f"profile x genus 1\nlocal 0 rank 1 v {10**20} h 0\n")
    cases = [
        ["profile", "--show", f"@{arabic_digit}"],
        ["profile", "--show", f"@{underscore}"],
        ["hf", "--profile", f"@{huge_entry}", "--framing", "-1/1"],
        ["hf", "--profile", f"@{missing}", "--framing", "1"],
        ["hf", "--profile", f"@{syntactically_bad}", "--framing", "1"],
        ["hf", "--profile", "lspace:g=0", "--framing", "1"],
        ["staircase", "--alexander", "1,1,1"],
        ["staircase", "--alexander", "1,-1,nope,-1,1"],
        ["staircase", "--alexander", "\u0661,-1,1"],
        ["staircase", "--alexander", "1,-1,1:\u0661"],
        ["bound", "--h1", "4", "--ell", "5"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 65, argv
        assert err != "", argv


def test_overflow_exit_70(tmp_path, capsys):
    path = tmp_path / "huge.profile"
    for text in (OVERFLOW_PROFILE, UNIT_PIVOT_OVERFLOW_PROFILE):
        path.write_text(text)
        code, out, err = run(capsys, "hf", "--profile", f"@{path}", "--framing", "-1/1")
        assert code == 70
        assert out == ""
        assert err.startswith("overflow: ")


def test_overflow_names_framing_and_class(tmp_path, capsys):
    # the v 2 h 1 chain at 1/32 has an invariant factor of 2^64 (sympy);
    # the message says where
    path = tmp_path / "chain.profile"
    path.write_text(CHAIN_PROFILE)
    code, out, err = run(capsys, "hf", "--profile", f"@{path}", "--framing", "1/32")
    assert (code, out) == (70, "")
    assert err == (
        "overflow: framing 1/32, class i=0: "
        "integer magnitude exceeded 2^63 during elimination\n"
    )


def test_chain_without_units_is_not_refused(tmp_path, capsys):
    # a chain of (3, 2) data holds no unit; at -1/20 its group is Z, though
    # the scan's mark passes 2^63 on the way
    path = tmp_path / "chain.profile"
    path.write_text(
        "profile chain genus 2\n"
        + "".join(f"local {s} rank 1 v 3 h 2\n" for s in (-1, 0, 1))
    )
    code, out, err = run(capsys, "hf", "--profile", f"@{path}", "--framing", "-1/20")
    assert (code, out, err) == (0, "framing -1/20\ni=0: Z^1 (L)\nell=1 total_rank=1\n", "")
    # its mark passes 2^4096 at -1/862, and the scan stops there
    code, out, err = run(capsys, "hf", "--profile", f"@{path}", "--framing", "-1/862")
    assert (code, out) == (70, "")
    assert err == (
        "overflow: framing -1/862, class i=0: "
        "integer magnitude exceeded 2^4096 during elimination\n"
    )


def test_non_unit_cone_cost_is_linear(tmp_path):
    # every v and h entry 2: no unit to cancel, 2,700 columns at -1/100
    # and 900 summands Z/2, which a dense Smith form takes seconds over
    path = tmp_path / "all2.profile"
    path.write_text(ALL_TWO_PROFILE)
    code, out, err, seconds, rss_mb = run_child(
        tmp_path, "hf", "--profile", f"@{path}", "--framing", "-1/100"
    )
    assert (code, err) == (0, "")
    assert out == "framing -1/100\ni=0: Z^1801" + " + Z/2" * 900 + "\nell=0 total_rank=1801\n"
    assert seconds < 1.0
    assert rss_mb < 100


def _wide_slot_text(slot: int, v: list[str], h: list[str]) -> str:
    """A genus-1 profile file whose slot `slot` has the rows v and h, and
    slot 0 (if another) zero rank-1 data."""
    zero = "local 0 rank 1 v 0 h 0\n" if slot else ""
    rows = f"rank {len(v)} v {','.join(v)} h {','.join(h)}"
    return f"profile wide genus 1\n{zero}local {slot} {rows}\n"


def test_wide_slot_cost_is_linear(tmp_path):
    # one slot of rank 12,000 (a 48 KB file) whose h entries have gcd 1
    # and no unit: one pass over its columns, no pairwise minors
    n = 12000
    path = tmp_path / "wide.profile"
    path.write_text(_wide_slot_text(0, ["1"] * n, ["2", "3"] * (n // 2)))
    code, out, err, seconds, rss_mb = run_child(
        tmp_path, "hf", "--profile", f"@{path}", "--framing", "1", timeout=10
    )
    assert (code, out, err) == (0, f"framing 1/1\ni=0: Z^{n}\nell=0 total_rank={n}\n", "")
    assert seconds < 1.0
    assert rss_mb < 100


def test_gcd_one_rows_without_a_unit_take_the_unit_step(tmp_path):
    # h = (3, 2) has gcd 1 and no entry +-1: each of the 499,990 copies
    # substitutes its new row, with no Smith form
    path = tmp_path / "v23.profile"
    path.write_text("profile v23 genus 1\nlocal 0 rank 2 v 2,3 h 3,2\n")
    code, out, err, seconds, _ = run_child(
        tmp_path, "ell", "--profile", f"@{path}", "--framing", "-1/499990", timeout=10
    )
    assert (code, out, err) == (0, "ell=0 total_rank=499989\n", "")
    assert seconds < 2.0


def test_wide_local_line_parses_in_linear_memory(tmp_path):
    # one `local` line of rank 10^6, a 4 MB file
    n = 10**6
    path = tmp_path / "wide.profile"
    path.write_text(_wide_slot_text(0, ["1"] * n, ["0"] * n))
    code, out, err, seconds, rss_mb = run_child(
        tmp_path, "profile", "--check", f"@{path}", timeout=10
    )
    assert (code, out, err) == (0, "ok: wide genus 1 (1 overrides)\n", "")
    assert seconds < 1.0
    assert rss_mb < 100


_BAD_LOCAL = "line 2: expected 'local <s> rank <r> v <c,...> h <c,...>'"


@pytest.mark.parametrize(
    "tokens, code, message",
    [
        (["local", "0", "rank", "1", "v", "1", "h", "1"], 0, "ok: pad genus 1 (1 overrides)"),
        (["x"], 65, _BAD_LOCAL),
        (["local", "0", "rank", "1", "v", "1", "h", "1", "x"], 65, _BAD_LOCAL),
        (["local", "0", "rank", "1", "v", "1", "h", "1x"], 65, "line 2: h row: expected integer, got '1x'"),
    ],
    ids=["padded", "junk", "extra token", "junk row"],
)
def test_local_line_padded_with_whitespace_reads_in_linear_time(tmp_path, tokens, code, message):
    # 3 MB of whitespace around and between the tokens of one line, which
    # the `local` line pattern must match or refuse without backtracking
    pad = " \t" * (1_500_000 // (len(tokens) + 1))
    path = tmp_path / "pad.profile"
    path.write_text(f"profile pad genus 1\n{pad}{pad.join(tokens)}{pad}\n")
    result = run_child(tmp_path, "profile", "--check", f"@{path}", timeout=10)
    if code:
        assert result[:3] == (code, "", f"invalid: {path}: {message}\n")
    else:
        assert result[:3] == (code, f"{message}\n", "")
    assert result[3] < 1.0
    assert result[4] < 100


def test_error_lines_quoting_huge_input_are_short(tmp_path, capsys):
    token = "1" * 2999999 + "x"
    quoted = f"'{token[:99]}… (3000002 characters)"
    texts = [
        (f"profile t genus 1\nlocal {token} rank 1 v 0 h 0\n",
         f"line 2: slot: expected integer, got {quoted}"),
        (f"profile t genus {token}\n", f"line 1: genus: expected integer, got {quoted}"),
        (f"profile t genus 1\nlocal 0 rank 1 v {token} h 0\n",
         f"line 2: v row: expected integer, got {quoted}"),
        # an end slot of rank 500,000 (a 2 MB file), quoted by its check
        (_wide_slot_text(1, ["1"] * 500000, ["0"] * 500000),
         "s=1: rank must be 1 with v = [+-1] (got LocalData(rank=500000, v=(1, 1, "),
    ]
    for k, (text, message) in enumerate(texts):
        path = tmp_path / f"{k}.profile"
        path.write_text(text)
        for argv in (
            ["profile", "--check", f"@{path}"], ["hf", "--profile", f"@{path}", "--framing", "1"]
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (65, ""), argv
            assert message in err, argv
            assert len(err.encode()) < 4096, argv


def test_violation_list_is_capped(tmp_path, capsys):
    # one violation per missing slot would be a 37 MB line
    path = tmp_path / "big.profile"
    path.write_text("profile big genus 300000\n")
    code, out, err = run(capsys, "profile", "--check", f"@{path}")
    assert code == 65
    assert out == ""
    assert len(err.encode()) < 4096
    assert err.rstrip().endswith("… and 599979 more")


def test_huge_genus_check_fails_fast(tmp_path, capsys):
    # the missing slots are counted, not walked one by one
    path = tmp_path / "big.profile"
    path.write_text("profile big genus 300000000\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "profile", "--check", f"@{path}")
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (65, "")
    assert len(err.encode()) < 4096
    assert err.rstrip().endswith("… and 599999979 more")


def test_cli_pins_check_every_exit_code():
    # tests/cli_pins.py holds the pins CI runs on every Python: a comparison
    # of two runs that both fail with empty stdout fails, and a pin dropped
    # from its tables changes the count it prints
    with pytest.raises(AssertionError):
        cli_pins.same(["-c", "raise SystemExit(1)"], ["-c", "raise SystemExit(1)"])
    proc = subprocess.run(
        [sys.executable, cli_pins.__file__], capture_output=True, text=True, timeout=300
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "cli_pins: 66 runs of the package and 3 scripts passed\n"
