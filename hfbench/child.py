"""Fresh interpreter for ``setup_s`` and ``peak_rss_mb``.

Usage: python3 child.py SRC_DIR

Imports ``hfcone.cli`` from SRC_DIR, builds its parser and prints
``ready``. Then it reads one line from stdin: empty means exit; otherwise
it is the path of a JSON list of argv lists, which the child runs once
through ``cli.main`` before printing its peak RSS and failure count as
JSON.
"""

import sys

sys.path.insert(0, sys.argv[1])

import hfcone.cli as cli  # noqa: E402

cli.build_parser()
sys.stdout.write("ready\n")
sys.stdout.flush()

job = sys.stdin.readline().strip()
if job:
    import contextlib
    import io
    import json
    import resource

    with open(job, encoding="utf-8") as fh:
        argvs = json.load(fh)
    failed = 0
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            failed += cli.main(argv) != 0
    # VmHWM is this image's high-water mark; ru_maxrss would also count
    # the parent's memory from before the exec
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb, "queries": len(argvs), "failed": failed}))
