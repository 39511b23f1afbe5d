"""The pinned command-line checks: the paper's headline numbers at sizes
the unit tests never reach, hostile profile files, and the exit code of
every refusal. Each row runs the package in a fresh interpreter and
checks its exit code and what its stdout or stderr must hold; a
comparison checks the exit code of both sides before their stdout.
The experiment scripts in scripts/ run last.

It uses the standard library only, so it runs on an interpreter without
the test dependencies, from any directory:

    python tests/cli_pins.py

It prints how many runs passed and exits 1 at the first that fails.
tests/test_cli.py runs it as well.
"""

import contextlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
SCRIPTS = ("fig8_family_table.py", "kfamily_duality.py", "lspace_grid.py")


def cli(*args):
    return ["-m", "hfcone.cli", *args]


def shown(*commands):
    """The commands as a failure names them, each cut to 200 characters."""
    return [" ".join(command)[:200] for command in commands]


@contextlib.contextmanager
def ran(command, code=0, timeout=None):
    """Run `python *command`, with src/ on its path, assert that it exits
    with code, and give its stdout and stderr as text files read from the
    start."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.run(
            [sys.executable, *command], stdout=out, stderr=err, env=ENV, cwd=ROOT,
            timeout=timeout,
        )
        err.seek(0)
        assert proc.returncode == code, (shown(command), proc.returncode, err.read(2000))
        out.seek(0)
        yield out, err


def run(command, code=0, want=None, timeout=None):
    """One run: its exit code and, unless want is None, want(stdout, stderr)."""
    with ran(command, code, timeout) as (out, err):
        assert want is None or want(out, err), shown(command)


def same(left, right, headed=False, timeout=None):
    """Assert that both commands exit 0 with the same stdout, past each
    one's first line when headed."""
    skip = 1 if headed else 0
    with ran(left, timeout=timeout) as (a, _), ran(right) as (b, _):
        lines = (itertools.islice(f, skip, None) for f in (a, b))
        pairs = itertools.zip_longest(*lines)
        assert all(x == y for x, y in pairs), shown(left, right)


def stdout_is(text):
    return lambda out, err: out.read() == text


def lines_are(lines):
    return lambda out, err: all(a == b for a, b in itertools.zip_longest(out, lines))


def stderr_has(pattern):
    return lambda out, err: re.search(pattern, err.read(), re.MULTILINE) is not None


def spinc_lists(out, err):
    rows = [re.fullmatch(r"\w+: (\S+) \(count (\d+)\)", line.rstrip()).groups() for line in out]
    lists = [[] if body == "-" else [int(x) for x in body.split(",")] for body, _ in rows]
    return (
        len(lists) == 2
        and all(len(v) == int(n) for v, (_, n) in zip(lists, rows))
        and all(a < b for v in lists for a, b in zip(v, v[1:]))
        and sorted(lists[0] + lists[1]) == list(range(1000003))
    )


def alternating(n):
    return ",".join(str((-1) ** k) for k in range(n))


def coefficients(c, g):
    return ",".join(str(c.get(x, 0)) for x in range(g, -g - 1, -1))


def gap1000():
    p = [e for e in range(1000, 0, -1) if e % 3 != 2]
    e = p + [0] + [-x for x in reversed(p)]
    return coefficients({x: (-1) ** k for k, x in enumerate(e)}, 1000)


def sparse20000():
    ends = (20000, 19999, 2, 1, 0, -1, -2, -19999, -20000)
    return coefficients({x: (-1) ** k for k, x in enumerate(ends)}, 20000)


def wide(n, h):
    return f"profile wide genus 1\nlocal 0 rank {n} v {','.join(['1'] * n)} h {','.join(h)}\n"


def profile_files():
    """The bytes of each profile file the pins read, by name."""
    return {
        "two": b"profile two genus 1\nlocal 0 rank 1 v 2 h 2\n",
        "all2": b"profile all2 genus 5\n"
        + b"".join(b"local %d rank 3 v 2,2,2 h 2,2,2\n" % s for s in range(-4, 5)),
        "chain": b"profile chain genus 2\n"
        + b"".join(b"local %d rank 1 v 3 h 2\n" % s for s in (-1, 0, 1)),
        "wide200k": wide(200000, ["2", "3"] * 100000).encode(),
        "wide1m": wide(10**6, ["0"] * 10**6).encode(),
        "v23": b"profile v23 genus 1\nlocal 0 rank 2 v 2,3 h 3,2\n",
        "token": b"profile t genus 1\nlocal 0 rank 1 v " + b"1" * 2999999 + b"x h 0\n",
        "layout": b"profile fig8 genus 1\r\n# reversed, tab-separated\r\n"
        b"local\t1 rank 1\tv 1 h\t0\r\n"
        b"local 0\trank 3 v\t1,0,0 h 1,0,0\r\n\tlocal -1 rank 1 v 0 h 1\t\r\n",
        "latin": b"profile x genus 1\nlocal 0 rank 1 v 1 h \xff\n",
        "bom": b"\xef\xbb\xbfprofile fig8 genus 1\nlocal 0 rank 3 v 1,0,0 h 1,0,0\n",
        "wide": b"profile wide genus 1\nlocal 0 rank 1 v 2 h 1\n",
    }


# the command lines cli.main must answer without loading dataclasses or inspect
LEAN = (
    ["hf", "--profile", "fig8", "--framing", "5"],
    ["staircase", "--alexander", "1,-1,1", "--emit-profile"],
    ["profile", "--check", "fig8"],
)
LEAN_CHILD = (
    "import sys; from hfcone import cli; assert cli.main({!r}) == 0; "
    "loaded = {{'dataclasses', 'inspect'}} & set(sys.modules); assert not loaded, loaded"
)


def pins(at):
    """(command, exit code, want, timeout) of each single run; at(name)
    is the @path argument of the profile file of that name."""
    g9 = ["--profile", "lspace:g=1000000000", "--framing"]
    t12 = ["--profile", "fig8", "--framing", "-1000000000000"]
    return [
        (cli("ell", "--profile", "fig8", "--framing", "5"), 0, None, None),
        (cli("ell", "--profile", "fig8", "--framing", "-1/1000000000"), 0, None, None),
        (cli("ell", *g9, "-6000000001/3"), 0,
         lambda out, err: out.read().split(" ")[0] == "ell=4", 10),
        (cli("ell", *g9, "6000000001/3"), 0,
         stdout_is("ell=6000000001 total_rank=6000000001\n"), 10),
        (cli("ell", *g9, "7/1000000000000"), 0,
         stdout_is("ell=0 total_rank=3999999997999999999993\n"), 10),
        (cli("ell", *g9, "-7/1000000000000"), 0,
         stdout_is("ell=0 total_rank=3999999998000000000007\n"), 10),
        (cli("staircase", "--alexander", alternating(20001)), 65, None, 10),
        (cli("hf", "--profile", "fig8", "--framing", "-1000000", "--format", "json"), 0,
         lambda out, err: json.load(out, object_hook=lambda d: d.get("i", d))["spinc"]
         == list(range(10**6)), None),
        (cli("hf", "--profile", "fig8", "--framing-range", "-3..3/1..50", "--format", "json"), 0,
         lambda out, err: len(json.load(out))
         == sum(gcd(p, q) == 1 for q in range(1, 51) for p in (-3, -2, -1, 1, 2, 3)), 20),
        (cli("spinc", "--genus", "2", "--framing", "1000003/3"), 0, spinc_lists, None),
        (cli("profile", "--show", "lspace:g=1000000"), 0,
         lambda out, err: sum(1 for _ in out) == 2000000, 20),
        (cli("hf", "--profile", "fig8", "--framing", "-1000000"), 0, lines_are(itertools.chain(
            ["framing -1000000/1\n", "i=0: Z^3\n"],
            (f"i={i}: Z^1 (L)\n" for i in range(1, 10**6)),
            [f"ell={10**6 - 1} total_rank={10**6 + 2}\n"],
        )), None),
        # one class past 10^6 and one at 1000, each a thousand's first or last
        (cli("hf", *t12, "--spinc", "999999999999"), 0,
         stdout_is("framing -1000000000000/1\ni=999999999999: Z^1 (L)\n"), None),
        (cli("hf", *t12, "--spinc", "1000", "--format", "json"), 0, stdout_is(json.dumps({
            "framing": "-1000000000000/1",
            "spinc": [{"i": 1000, "free_rank": 1, "torsion": [], "l_structure": True}],
            "ell": 999999999999,
            "total_rank": 1000000000002,
        }, indent=2) + "\n"), None),
        (cli("profile", "--show", "lspace:g=100000"), 0, lines_are(itertools.chain(
            ["profile lspace:g=100000 genus 100000\n"],
            (f"local {s} rank 1 v 0 h 0\n" for s in range(-99999, 100000)),
        )), None),
        (cli("hf", "--profile", at("two"), "--framing", "-2/5", "--format", "json"), 0,
         lambda out, err: json.load(out)["spinc"][0]["torsion"] == [2, 2, 2], 20),
        (cli("hf", "--profile", at("all2"), "--framing", "-1/100", "--format", "json"), 0,
         lambda out, err: [(e["free_rank"], e["torsion"]) for e in json.load(out)["spinc"]]
         == [(1801, [2] * 900)], 10),
        (cli("hf", "--profile", at("chain"), "--framing", "-1/20"), 0,
         lambda out, err: list(itertools.islice(out, 1, 2)) == ["i=0: Z^1 (L)\n"], 10),
        (cli("ell", "--profile", at("wide200k"), "--framing", "1"), 0,
         stdout_is("ell=0 total_rank=200000\n"), 10),
        (cli("profile", "--check", at("wide1m")), 0, None, 10),
        *[(cli("ell", "--profile", at("wide1m"), "--framing", framing), 65,
           stderr_has("the cone needs more than 1000000 columns"), 10) for framing in ("1", "-1")],
        (cli("ell", "--profile", at("v23"), "--framing", "-1/499990"), 0,
         stdout_is("ell=0 total_rank=499989\n"), 10),
        (cli("profile", "--check", at("token")), 65,
         lambda out, err: len(err.read().encode()) < 4096, 10),
        (cli("hf", "--profile", at("latin"), "--framing", "1"), 65, None, None),
        (cli("hf", "--profile", "lspace:g=0", "--framing", "1"), 65,
         stderr_has("^input error: lspace:g=0: "), None),
        (cli("ell", "--profile", at("wide"), "--framing", "1/1000000000000"), 65,
         stderr_has("^input error: framing 1/1000000000000, class i=0: "
                    "the cone needs more than "), 10),
        (cli("hf", "--profile", "@/dev/zero", "--framing", "1"), 65, None, 10),
        *[(["-S", "-c", LEAN_CHILD.format(argv)], 0, None, None) for argv in LEAN],
        (cli("profile", "--check", "@/nonexistent"), 65,
         stderr_has("^invalid: cannot read profile file /nonexistent: "), None),
        (cli("ell", "--profile", "lspace:g=1,g=2", "--framing", "-9/2"), 64, None, None),
        (cli("profile", "--check", "lspace:g=9223372036854775807"), 0, None, None),
        (cli("hf", "--framing", "--profile", "fig8"), 64, None, None),
        (cli("hf", "--profile", "fig8", "--framing", "5", "--framing-range", "1..2"), 64,
         None, None),
        (cli("bound", "--h1", "7", "--ell", "3"), 0, None, None),
        (cli("spinc", "--genus", "2", "--framing", "3/2", "--oracle"), 0, None, None),
        (cli("pair", "--g1", "2", "--q1", "1", "--g2", "1", "--q2", "1", "--p", "5"), 2,
         None, None),
        (cli("kfam", "--m", "2", "--n", "1", "--q1", "1", "--q2", "1", "--p", "9"), 2,
         None, None),
        (cli("staircase", "--alexander", "1,0,1"), 65, None, None),
        (cli("staircase", "--alexander", "1,-1,1:"), 65, None, None),
        (cli("hf", "--profile", "fig8:", "--framing", "1"), 64, None, None),
        (cli("hf", "--profile", "fig8", "--framing-range", "1..3/"), 64, None, None),
        (["-c", "from hfcone import Framing, figure_eight, surgery_report; "
          "assert surgery_report(figure_eight(), Framing(-10**12)).ell == 10**12 - 1"],
         0, None, 10),
    ]


def sames(at):
    """(left, right, headed, timeout of the left) of each comparison."""
    def show(selector):
        return cli("profile", "--show", selector)

    def emit(alexander):
        return cli("staircase", "--alexander", alexander, "--emit-profile")

    return [
        (emit("1"), show("unknot"), True, None),
        (emit("1,-1,0,1,0,-1,1"), show("lspace:g=3"), True, None),
        (emit(alternating(481)), show("lspace:g=240"), True, 20),
        (emit(alternating(2001)), show("lspace:g=1000"), True, 10),
        (emit(gap1000()), show("lspace:g=1000"), True, 10),
        (emit(sparse20000()), show("lspace:g=20000"), True, 10),
        (show(at("layout")), show("fig8"), True, 10),
        (cli("hf", "--profile", at("bom"), "--framing", "-5"),
         cli("hf", "--profile", "fig8", "--framing", "-5"), False, None),
        (cli("hf", "--profile", "fig8", "--framing-r", "-3..-1"),
         cli("hf", "--profile", "fig8", "--framing-range", "-3..-1"), False, None),
        (cli("hf", "--profile", "fig8", "--framing", "-5", "--format", "json"),
         cli("hf", "--prof", "fig8", "--framing=-5", "--form", "json"), False, None),
    ]


def closed_pipe():
    """A reader that closes stdout after one line: exit 74, nothing on stderr."""
    command = cli("hf", "--profile", "fig8", "--framing", "-100000")
    with tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, *command], stdout=subprocess.PIPE, stderr=err, env=ENV, cwd=ROOT
        )
        proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait() == 74, (shown(command), proc.returncode)
        err.seek(0)
        assert err.read() == "", shown(command)


def main():
    if not __debug__:
        sys.exit("cli_pins.py checks with assert: run it without -O")
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in profile_files().items():
            Path(tmp, f"{name}.profile").write_bytes(data)

        def at(name):
            return f"@{tmp}/{name}.profile"

        singles, pairs = pins(at), sames(at)
        for command, code, want, timeout in singles:
            run(command, code, want, timeout)
        for left, right, headed, timeout in pairs:
            same(left, right, headed, timeout)
    closed_pipe()
    for script in SCRIPTS:
        run([str(ROOT / "scripts" / script)])
    runs = len(singles) + 2 * len(pairs) + 1
    print(f"cli_pins: {runs} runs of the package and {len(SCRIPTS)} scripts passed")


if __name__ == "__main__":
    main()
