"""In-memory spans around hfcone's public functions, from outside the package.

Each wrapper replaces a function under the name its caller looks it up
by (``hfcone.cone.smith_normal_form`` is what ``spinc_group`` calls, not
``hfcone.exactla.smith_normal_form``), so no file under ``src/`` changes.
A span records its name, start, end, parent span and query id in flat
arrays; self times are computed after the run. The time a wrapper spends
on its own bookkeeping (counters, signatures) lies outside its span and
is charged to no layer: it is subtracted from the parent's self time and
shows up only in the traced run's wall time.

A target that no longer exists is reported as absent, not as an error,
and a counter hook that fails marks its counters absent.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

# (module, attribute as looked up by its caller, span name)
TARGETS = (
    ("hfcone.cli", "main", "cli.main"),
    ("hfcone.cli", "surgery_report", "cone.surgery_report"),
    ("hfcone.cone", "spinc_group", "cone.spinc_group"),
    ("hfcone.cone", "smith_normal_form", "exactla.smith_normal_form"),
    ("hfcone.cfk", "snf_with_transforms", "exactla.snf_with_transforms"),
    ("hfcone.cfk", "mul", "exactla.mul"),
    ("hfcone.cfk", "homology", "cfk.homology"),
    ("hfcone.cfk", "validate", "cfk.validate"),
    ("hfcone.cfk", "to_profile", "cfk.to_profile"),
    ("hfcone.cfk", "staircase_from_alexander", "cfk.staircase_from_alexander"),
    ("hfcone.profiles", "parse", "profiles.parse"),
    ("hfcone.profiles", "serialize", "profiles.serialize"),
    ("hfcone.profiles", "unknot", "profiles.builtin"),
    ("hfcone.profiles", "lspace_knot", "profiles.builtin"),
    ("hfcone.profiles", "figure_eight", "profiles.builtin"),
    ("hfcone.profiles", "k_family", "profiles.builtin"),
    ("hfcone.profiles", "tau_extremal", "profiles.builtin"),
)


def _snf_counts(tracer, args, result):
    m = args[0]
    divisors = result[0]
    tracer.add("exactla.smith_normal_form.cells", m.rows * m.cols)
    tracer.add("exactla.smith_normal_form.nnz", len(m.entries) - m.entries.count(0))
    tracer.peak("exactla.smith_normal_form.max_cols", m.cols)
    tracer.add("exactla.smith_normal_form.torsion_divisors", sum(1 for d in divisors if d > 1))


def _spinc_counts(tracer, args, result):
    from hfcone.cone import phi, truncation_window

    profile, framing, i = args[:3]
    w = truncation_window(profile, framing, i)
    tracer.add("cone.window_slots", w.a_hi - w.a_lo + 1)
    # the cone matrix is fixed by the slot data in order and the B-range offsets
    p, q = framing.p, framing.q
    signature = (
        w.b_lo - w.a_lo,
        w.b_hi - w.a_hi,
        tuple(profile.local(phi(i, p, q, s)) for s in range(w.a_lo, w.a_hi + 1)),
    )
    tracer.signatures.add(signature)


def _to_profile_counts(tracer, args, result):
    tracer.add("cfk.generators", len(args[0].generators))


HOOKS = {
    "exactla.smith_normal_form": (
        _snf_counts,
        (
            "exactla.smith_normal_form.cells",
            "exactla.smith_normal_form.nnz",
            "exactla.smith_normal_form.max_cols",
            "exactla.smith_normal_form.torsion_divisors",
        ),
    ),
    "cone.spinc_group": (_spinc_counts, ("cone.window_slots", "cone.unique_signature_ratio")),
    "cfk.to_profile": (_to_profile_counts, ("cfk.generators",)),
}


class Tracer:
    """Spans and counters for one traced phase; call :meth:`install`
    before and :meth:`uninstall` after."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("d")  # wrapper bookkeeping outside the span
        self.parent = array("l")
        self.query = array("l")
        self._stack: list[int] = []
        self.query_id = -1
        self.counters: list[dict[str, float]] = []  # one dict per pass
        self.signatures: set = set()
        self.absent: set[str] = set()  # spans or counters with no data source
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        installed = set()
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(span)
                continue
            setattr(module, attr, self._wrap(original, span))
            self._patches.append((module, attr, original))
            installed.add(span)
        # a span name is absent only if none of its targets exists
        self.absent -= installed
        for span, (_, counters) in HOOKS.items():
            if span in self.absent:
                self.absent.update(counters)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, span: str):
        nid = self._name_ids.get(span)
        if nid is None:
            nid = self._name_ids[span] = len(self.names)
            self.names.append(span)
        hook = HOOKS.get(span)
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.query.append(tracer.query_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.extra.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.extra[idx] = t0 - t_in
            if hook is not None and hook[1][0] not in tracer.absent:
                try:
                    hook[0](tracer, args, result)
                except Exception:  # a later API change must not stop the run
                    tracer.absent.update(hook[1])
            tracer.extra[idx] += perf_counter() - t1
            return result

        return wrapper

    # -- per-pass counters -------------------------------------------------

    def begin_pass(self) -> None:
        self.counters.append({})
        self.signatures = set()

    def end_pass(self, classes: int) -> None:
        if self.signatures and classes:
            self.counters[-1]["cone.unique_signature_ratio"] = len(self.signatures) / classes
        self.signatures = set()

    def add(self, name: str, value: float) -> None:
        c = self.counters[-1]
        c[name] = c.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        c = self.counters[-1]
        c[name] = max(c.get(name, value), value)

    # -- results -----------------------------------------------------------

    def per_pass(self, queries_per_pass: int, scale: list[float]) -> list[dict[str, float]]:
        """calls, total_s and self_s per span name, plus the counters, for
        every traced pass. Query ids are pass * queries_per_pass + k, and
        ``scale[query id]`` turns that query's raw seconds into reference
        seconds."""
        n = len(self.start)
        child_cost = [0.0] * n
        for k in range(n):
            par = self.parent[k]
            if par >= 0:
                child_cost[par] += self.end[k] - self.start[k] + self.extra[k]
        out = [dict(c) for c in self.counters]
        for k in range(n):
            qid = self.query[k]
            if qid < 0:
                continue
            row = out[qid // queries_per_pass]
            name = self.names[self.name_id[k]]
            dur = self.end[k] - self.start[k]
            f = scale[qid]
            row[name + ".calls"] = row.get(name + ".calls", 0) + 1
            row[name + ".total_s"] = row.get(name + ".total_s", 0.0) + dur * f
            row[name + ".self_s"] = row.get(name + ".self_s", 0.0) + (dur - child_cost[k]) * f
        return out

    def write(self, path: str) -> None:
        """All spans as tab-separated lines, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            names, nid, start, end = self.names, self.name_id, self.start, self.end
            parent, query = self.parent, self.query
            fh.writelines(
                f"{k}\t{names[nid[k]]}\t{start[k] - t0:.7f}\t{end[k] - t0:.7f}"
                f"\t{parent[k]}\t{query[k]}\n"
                for k in range(len(start))
            )
