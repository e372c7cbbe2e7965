"""Child process for the benchmark: runs one permpat job, optionally traced.

    python3 perfbench/child.py [--rss FILE] [--spans FILE] cli ARG...
        run `permpat ARG...` through permpat.cli.main, as `python -m
        permpat` does
    python3 perfbench/child.py [--rss FILE] [--spans FILE] count N:PATTERNS...
        call permpat.enumeration.count_avoiders on each ad hoc set in one
        process, printing "N:PATTERNS COUNT" as each count completes

With --spans, wrappers are installed at the module attributes where the
package's callers look each layer up, spans are kept in memory, and they are
written to FILE as JSON when the job ends.  Nothing under src/ is changed.

With --rss, the job's peak resident set in KiB is written to FILE when it
ends: the larger of this process's VmHWM and the peak of its reaped children
(the verify pool's workers).  The launcher cannot take it from wait4(): a
child's maxrss starts from the launcher's own peak at the moment of exec.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import Counter
from functools import wraps

_clock = time.perf_counter_ns


class Tracer:
    """Spans for one process.  Every span adds to per-name totals (calls,
    inclusive ns, self ns); spans of coarse layers are also kept as records
    (id, name, parent id, start ns, end ns).  Self time is a span's duration
    minus the time its child spans cover."""

    def __init__(self) -> None:
        self.run_id = os.getpid()
        self.records: list[tuple[int, str, int, int, int]] = []
        self.totals: dict[str, list[int]] = {}
        self.counts: Counter[str] = Counter()
        self._seen_calls: set = set()
        self._stack = [[0, 0]]  # [span id, ns covered by closed children]
        self._next_id = 0

    def begin(self) -> int:
        self._next_id += 1
        self._stack.append([self._next_id, 0])
        return _clock()

    def end(self, name: str, start: int, keep: bool) -> None:
        stop = _clock()
        span_id, covered = self._stack.pop()
        parent = self._stack[-1]
        duration = stop - start
        parent[1] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        if keep:
            self.records.append((span_id, name, parent[0], start, stop))

    def note_entry(self, key) -> None:
        """Count a call into a counting or listing entry point, and whether
        its arguments repeat an earlier call in this process."""
        self.counts["entry.calls"] += 1
        if key in self._seen_calls:
            self.counts["entry.repeats"] += 1
        else:
            self._seen_calls.add(key)

    def dump(self, path: str) -> None:
        payload = {"run_id": self.run_id, "totals": self.totals,
                   "counts": dict(self.counts),
                   "spans": [dict(zip(("id", "name", "parent", "start_ns", "end_ns"), r))
                             for r in self.records]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _span(tracer: Tracer, name, fn, *, keep: bool = True, entry: bool = False,
          on_result=None):
    """Wrap fn in a span; `name` may be a function of the call's arguments."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        tracer.counts[label + ".calls"] += 1
        if entry:
            tracer.note_entry((fn.__name__, args, tuple(sorted(kwargs.items()))))
        start = tracer.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(label, start, keep)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _span_generator(tracer: Tracer, name, fn, *, entry: bool = False,
                    items: str | None = None):
    """Wrap a generator function: each step of the generator is a span, so
    the consumer's work between steps is not charged to it."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        tracer.counts[label + ".calls"] += 1
        if entry:
            tracer.note_entry((fn.__name__, args, tuple(sorted(kwargs.items()))))
        inner = fn(*args, **kwargs)
        while True:
            start = tracer.begin()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.end(label, start, False)
            if items is not None:
                tracer.counts[items] += 1
            yield item

    return wrapper


def install(tracer: Tracer) -> None:
    """Install the span wrappers at each layer boundary."""
    from permpat import cli, core, enumeration, families, verify

    def walker_name(n, pattern_set, *rest, **kw):
        family = pattern_set.kind in ("tkm", "union")
        return "enumeration.walk_family" if family else "enumeration.walk_generic"

    def pinned_result(result):
        if result:
            tracer.counts["core.pinned.found"] += 1

    # cli -> verify
    cli.run_suite = _span(tracer, "verify.run_suite", cli.run_suite)
    cli.write_report = _span(tracer, "verify.write_report", cli.write_report)
    verify.verify_claim = _span(
        tracer, lambda claim_id, params: "verify.claim." + claim_id,
        verify.verify_claim)
    # verify -> formulas
    for fname in ("formula_theorem1", "formula_corollary_interval",
                  "recurrence_coefficient", "formula_theorem3",
                  "formula_theorem4", "catalan", "noonan", "bona",
                  "robertson_single", "robertson_both"):
        setattr(verify, fname, _span(tracer, "formulas", getattr(verify, fname),
                                     keep=False))
    # entry points into enumeration, where repeated arguments are counted
    for module in (cli, verify, enumeration):
        for fname in ("count_avoiders", "count_exactly_once"):
            setattr(module, fname, _span(tracer, "enumeration.count",
                                         getattr(module, fname), entry=True))
    verify.occurrence_histogram = _span(tracer, "enumeration.scan",
                                        verify.occurrence_histogram, entry=True)
    verify._count_both_exactly_one = _span(tracer, "enumeration.scan",
                                           verify._count_both_exactly_one)
    enumeration._scan_count = _span(tracer, "enumeration.scan",
                                    enumeration._scan_count)
    for fname in ("enumerate_avoiders", "enumerate_exactly_once"):
        setattr(cli, fname, _span_generator(
            tracer, "enumeration.enumerate", getattr(cli, fname), entry=True,
            items="enumeration.enumerate.items"))
    # enumeration walkers
    enumeration._count_family = _span(tracer, "enumeration.walk_family",
                                      enumeration._count_family)
    enumeration._count_generic = _span(tracer, "enumeration.walk_generic",
                                       enumeration._count_generic)
    enumeration._count_exactly_once_rec = _span(
        tracer, "enumeration.walk_exactly_once",
        enumeration._count_exactly_once_rec)
    enumeration._iter_avoiders = _span_generator(tracer, walker_name,
                                                 enumeration._iter_avoiders)
    # enumeration -> families -> core
    for module in (enumeration, families):
        module.avoids_all = _span(tracer, "families.avoids_all",
                                  module.avoids_all, keep=False)
    enumeration.contains_exactly_once = _span(
        tracer, "families.contains_exactly_once",
        enumeration.contains_exactly_once, keep=False)
    families.count_occurrences = _span(tracer, "core.count_occurrences",
                                       families.count_occurrences, keep=False)
    enumeration.Permutation = _span(tracer, "core.Permutation",
                                    enumeration.Permutation, keep=False)
    core.PinnedPattern.count_ending_at = _span(
        tracer, "core.pinned", core.PinnedPattern.count_ending_at, keep=False,
        on_result=pinned_result)


def _count_job(queries: list[str]) -> int:
    from permpat import Permutation, adhoc_set, enumeration

    for text in queries:
        n, patterns = text.split(":")
        pattern_set = adhoc_set(Permutation(tuple(int(c) for c in p))
                                for p in patterns.split(","))
        value = enumeration.count_avoiders(int(n), pattern_set)
        print(f"{text} {value}", flush=True)
    return 0


def peak_rss_kib() -> int:
    """VmHWM of this process's own address space, which starts afresh at
    exec, or the peak of a reaped child if that is larger."""
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv: list[str]) -> int:
    options = {"--spans": None, "--rss": None}
    while argv[:1] and argv[0] in options:
        options[argv[0]], argv = argv[1], argv[2:]
    spans_path, rss_path = options["--spans"], options["--rss"]
    if rss_path is not None:
        try:
            return _run(argv, spans_path)
        finally:
            with open(rss_path, "w", encoding="ascii") as fh:
                fh.write(str(peak_rss_kib()))
    return _run(argv, spans_path)


def _run(argv: list[str], spans_path: str | None) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "cli":
        from permpat.cli import main as job
    elif mode == "count":
        job = _count_job
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    if spans_path is None:
        return job(args)
    tracer = Tracer()
    install(tracer)
    start = tracer.begin()
    try:
        return job(args)
    finally:
        tracer.end(mode, start, True)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
