"""Layer spans recorded from the benchmark's own files.

:meth:`Tracer.install` wraps the public entry points of each layer of the
``repro`` package (class attributes and module-level references, restored
by :meth:`Tracer.uninstall`); nothing under ``src/`` changes.  A span has a
name, the request it belongs to, its parent span and its start and end
times.  Spans are kept in memory and reduced when the run ends:

* a layer's *self time* is its spans' duration minus the part covered by
  their child spans;
* the per-request root span's self time is the latency no layer accounts
  for (``trace.unaccounted_frac``);
* spans opened on a thread with no current request (the async flush
  worker, the servers) are *background* work.

Counts are made where the work happens, in the wrapper hooks.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: Root span name of one client request.
REQUEST = "request"


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        #: ``[name, request id or None, parent index or None, start, end]``.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Checker objects seen on request paths -> statistics at first sight.
        self.checkers: Dict[int, tuple] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []
        self._next_request = 0
        #: Set by the traced closed loop: requests traced, and the traced
        #: half's calibrated time per request over the untraced half's, minus 1.
        self.requests = 0
        self.overhead_frac = 0.0

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        record = [
            name,
            getattr(self._local, "request", None),
            stack[-1] if stack else None,
            time.perf_counter(),
            None,
        ]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[4] = time.perf_counter()
        self._stack().pop()

    def request(self, operation: Callable[[], object]):
        """Run one client request under a fresh request id and root span."""
        self._local.request = self._next_request
        self._next_request += 1
        record = self.open(REQUEST)
        try:
            return operation()
        finally:
            self.close(record)
            self._local.request = None

    def span(self, name: str, operation: Callable[[], object]):
        """Run ``operation`` inside one span named ``name``."""
        record = self.open(name)
        try:
            return operation()
        finally:
            self.close(record)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attribute: str, name: str, hook=None) -> None:
        """Replace ``owner.attribute`` by a spanning wrapper until uninstall.

        ``hook(args, kwargs, result)`` runs after the call, inside the
        span, to count what the call did.
        """
        original = getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                tracer.close(record)

        self.replace(owner, attribute, wrapper)

    def replace(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute`` to ``replacement`` until :meth:`uninstall`."""
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    @property
    def installed(self) -> bool:
        """``True`` while the layer wrappers are in place."""
        return bool(self._patched)

    def install(self) -> "Tracer":
        """Wrap every layer's public entry points (see module docstring)."""
        from layers import install_wrappers

        install_wrappers(self)
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def note_checker(self, checker) -> None:
        """Remember ``checker``'s statistics the first time a request uses it."""
        if getattr(self._local, "request", None) is None:
            return
        key = id(checker)
        if key not in self.checkers:
            self.checkers[key] = (checker, dict(checker.statistics))

    def checker_deltas(self) -> Counter:
        """Statistics accumulated by the noted checkers since first sight."""
        total: Counter = Counter()
        for checker, before in self.checkers.values():
            for key, value in checker.statistics.items():
                total[key] += value - before.get(key, 0)
        return total

    # -- reduction ---------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Additive totals: self seconds and calls per span name.

        ``fg`` holds request-path spans, ``bg`` background spans;
        ``durations`` are whole-span seconds (for layers whose self time is
        not the question, such as a replica join).
        """
        children = defaultdict(float)
        for record in self.spans:
            if record[4] is not None and record[2] is not None:
                children[record[2]] += record[4] - record[3]
        result = {
            "fg_self": Counter(),
            "fg_calls": Counter(),
            "bg_self": Counter(),
            "bg_calls": Counter(),
            "durations": Counter(),
            "counts": Counter(self.counts),
        }
        for index, record in enumerate(self.spans):
            if record[4] is None:
                continue
            name = record[0]
            duration = record[4] - record[3]
            own = duration - children.get(index, 0.0)
            side = "fg" if record[1] is not None else "bg"
            result[f"{side}_self"][name] += own
            result[f"{side}_calls"][name] += 1
            result["durations"][name] += duration
        return result


def merge(summaries: List[Dict[str, Counter]]) -> Dict[str, Counter]:
    """Add per-process summaries (the serve-fabric client and primary)."""
    merged: Dict[str, Counter] = defaultdict(Counter)
    for summary in summaries:
        for key, counter in summary.items():
            merged[key].update(counter)
    return dict(merged)


def layer_metrics(
    summary: Dict[str, Counter],
    requests: int,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, tuple]:
    """The per-layer metric table from a (merged) trace summary.

    ``*.self_ms`` of a request-path layer is milliseconds per traced
    request; the other times are means per call.  Counts are totals over
    the traced requests.  ``eval.candidates_per_answer`` divides by at
    least one answer, so a run whose answers are all empty reports the
    candidates it examined.  ``extra`` supplies values read from the
    program's public counters (checker, maintenance and replica statistics).
    """
    fg_self, fg_calls = summary["fg_self"], summary["fg_calls"]
    counts, durations = summary["counts"], summary["durations"]
    all_self = fg_self + summary["bg_self"]
    all_calls = fg_calls + summary["bg_calls"]
    extra = extra or {}

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def per_request(*names: str) -> float:
        return 1e3 * ratio(sum(fg_self[name] for name in names), requests)

    def mean_ms(name: str, table: Counter = durations) -> float:
        return 1e3 * ratio(table[name], all_calls[name])

    fsyncs = counts["wal.fsyncs"]
    commits = counts["store.commits"]
    appends = counts["wal.appends"]
    checks = extra.get("checker.checks", 0)
    lookups = counts["cache.hits"] + counts["cache.misses"]
    metrics = {
        "calculus.completions": (counts["calculus.completions"], "count"),
        "calculus.rule_applications": (counts["calculus.rule_applications"], "count"),
        "calculus.self_ms": (per_request("calculus"), "ms"),
        "concepts.normalize_calls": (fg_calls["concepts"], "count"),
        "concepts.self_ms": (per_request("concepts"), "ms"),
        "checker.decisions": (fg_calls["checker"], "count"),
        "checker.memo_hit_ratio": (
            ratio(extra.get("checker.cache_hits", 0), checks), "ratio"
        ),
        "checker.shortcut_ratio": (ratio(extra.get("checker.shortcuts", 0), checks), "ratio"),
        "checker.self_ms": (per_request("checker"), "ms"),
        "lattice.checks_per_query": (ratio(counts["lattice.checks"], requests), "count"),
        "lattice.pruned_per_query": (ratio(counts["lattice.pruned"], requests), "count"),
        "optimizer.match_self_ms": (per_request("optimizer", "optimizer.batch"), "ms"),
        "matcher.items_per_batch": (
            ratio(counts["matcher.items"], fg_calls["optimizer.batch"]), "count"
        ),
        "eval.self_ms": (per_request("eval"), "ms"),
        "eval.candidates_per_answer": (
            counts["eval.candidates"] / max(counts["eval.answers"], 1), "ratio"
        ),
        "cache.round_trips": (counts["cache.round_trips"], "count"),
        "cache.round_trips_per_first_contact": (
            ratio(
                counts["cache.first_contact_round_trips"],
                counts["cache.first_contact_queries"],
            ),
            "count",
        ),
        "cache.rtt_ms": (mean_ms("cache"), "ms"),
        "cache.hit_rate": (ratio(counts["cache.hits"], lookups), "ratio"),
        "replica.join_ms": (mean_ms("replica.join"), "ms"),
        "replica.poll_self_ms": (mean_ms("replica.poll", all_self), "ms"),
        "replica.epochs_applied": (extra.get("replica.epochs_applied", 0), "count"),
        "replica.max_lag": (extra.get("replica.max_lag", 0), "count"),
        "store.mutate_ms": (1e3 * ratio(all_self["store.batch"], commits), "ms"),
        "store.deltas_per_commit": (ratio(counts["store.deltas"], commits), "count"),
        "wal.append_self_ms": (1e3 * ratio(all_self["wal.append"], appends), "ms"),
        "wal.fsyncs": (fsyncs, "count"),
        "wal.fsync_ms": (1e3 * ratio(all_self["wal.fsync"], fsyncs), "ms"),
        "wal.bytes_per_commit": (ratio(counts["wal.append_bytes"], appends), "bytes"),
        "wal.checkpoint_ms": (mean_ms("wal.checkpoint"), "ms"),
        "wal.checkpoint_bytes": (
            ratio(counts["wal.checkpoint_bytes"], counts["wal.checkpoints"]), "bytes"
        ),
        "commit.ack_wait_ms": (mean_ms("commit.ack_wait"), "ms"),
        "commit.commits_per_fsync": (ratio(extra.get("commit.acked", 0), fsyncs), "ratio"),
    }
    for name in (
        "maint.flushes",
        "maint.epochs_coalesced",
        "maint.views_evaluated",
        "maint.lattice_pruned",
        "recovery.replayed_epochs",
    ):
        metrics[name] = (extra.get(name, 0), "count")
    metrics["trace.unaccounted_frac"] = (
        ratio(fg_self[REQUEST], durations[REQUEST]),
        "ratio",
    )
    return metrics
