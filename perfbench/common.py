"""Shared pieces of the three workloads: inputs, the closed loop, results."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from calibrate import Calibrator, percentile, tail_supported

#: The catalog and the database are fixed: ``--seed`` draws the request
#: stream, so runs on different seeds measure one system on new traffic.
CATALOG_SEED = 0
STATE_SEED = 7
#: Tail percentile every workload reports (``query_p95_ms``): every run
#: serves enough queries to have at least ten samples beyond it.
TAIL = 0.95


@dataclass
class OpCounts:
    """Attempted and failed operations of one type."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Outcome:
    """What a workload measured, checked and counted."""

    #: End-to-end metric name -> (value, unit), calibrated.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: The same timings in raw wall-clock units (printed, never gated).
    raw: Dict[str, float] = field(default_factory=dict)
    ops: Dict[str, OpCounts] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    #: Facts about the run's configuration, printed with the result.
    notes: Dict[str, object] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only): name -> (value, unit).
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Counts that must repeat exactly for one seed (traced runs only).
    counts: Dict[str, int] = field(default_factory=dict)

    def op(self, name: str) -> OpCounts:
        return self.ops.setdefault(name, OpCounts())


def university_inputs():
    """(DL schema, SL schema, database state, 128-view catalog)."""
    from repro.dl.abstraction import schema_to_sl
    from repro.workloads.synthetic import generate_hierarchical_catalog
    from repro.workloads.university import (
        generate_university_state,
        university_concepts,
        university_dl_schema,
    )

    schema = university_dl_schema()
    sl_schema = schema_to_sl(schema)
    catalog = generate_hierarchical_catalog(
        sl_schema,
        128,
        seed=CATALOG_SEED,
        base_concepts=tuple(university_concepts().values()),
    )
    state = generate_university_state(seed=STATE_SEED)
    return schema, sl_schema, state, catalog


def distinct_queries(sl_schema, catalog, count: int, seed: int, exclude=()) -> list:
    """``count`` queries no checker has seen: distinct normalized concepts.

    Half specialize a catalog view, half are random misses
    (``generate_matching_queries``); a query equal to a view or an earlier
    query is dropped, so every request is a first contact.
    """
    from repro.concepts.intern import concept_id
    from repro.concepts.normalize import normalize_concept
    from repro.workloads.synthetic import generate_matching_queries

    seen = {concept_id(normalize_concept(concept)) for concept in catalog.values()}
    seen.update(exclude)
    queries: list = []
    batch = 0
    while len(queries) < count:
        for concept in generate_matching_queries(
            sl_schema, catalog, 2 * count, seed=seed * 1009 + batch
        ):
            key = concept_id(normalize_concept(concept))
            if key not in seen:
                seen.add(key)
                queries.append(concept)
        batch += 1
    return queries[:count]


def register_catalog(cal: Calibrator, schema, catalog, state, *, chunk: int = 8):
    """Build a lattice optimizer over ``catalog``, timed under ``"setup"``.

    Views are registered ``chunk`` at a time with a quiescent point after
    each chunk, so each piece is calibrated by the kernel runs around it.
    """
    from repro.optimizer import SemanticQueryOptimizer

    items = list(catalog.items())
    optimizer = SemanticQueryOptimizer(schema, lattice=True)
    for offset in range(0, len(items), chunk):
        start = time.perf_counter()
        for name, concept in items[offset : offset + chunk]:
            optimizer.register_view_concept(name, concept)
        cal.record("setup", time.perf_counter() - start)
        quiesce(cal)
    start = time.perf_counter()
    optimizer.catalog.refresh_all(state)
    cal.record("setup", time.perf_counter() - start)
    quiesce(cal)
    return optimizer


def quiesce(cal: Calibrator, idle: Optional[Callable[[], None]] = None) -> None:
    """Bring the program to rest, then run the calibration kernel.

    ``idle`` waits for the program's own background work (a flush worker)
    to finish first; a full collection keeps cyclic garbage from earlier
    segments out of the next one.
    """
    if idle is not None:
        idle()
    gc.collect()
    cal.quiesce()


def repeated_setup(cal: Calibrator, repeats: int, build: Callable[[], object]):
    """Run ``build`` ``repeats`` times; returns (last result, calibrated and raw medians).

    ``build`` records its timed pieces under ``"setup"`` and quiesces
    between them; each repetition's calibrated sum is one setup sample.
    """
    calibrated: List[float] = []
    raw: List[float] = []
    result = None
    for _ in range(repeats):
        quiesce(cal)
        before = len(cal.calibrated["setup"])
        raw_before = len(cal.raw["setup"])
        result = build()
        calibrated.append(sum(cal.calibrated["setup"][before:]))
        raw.append(sum(cal.raw["setup"][raw_before:]))
    return result, statistics.median(calibrated), statistics.median(raw)


def closed_loop(
    cal: Calibrator,
    seconds: float,
    segment_ops: int,
    step: Callable[[int], None],
    *,
    first: int = 0,
    min_ops: int = 0,
    label: str = "segment",
    idle: Optional[Callable[[], None]] = None,
) -> int:
    """One client, one request at a time, in calibrated segments.

    ``step(i)`` serves request ``i`` (numbered from ``first``) and records
    its own samples; the loop records each segment's wall time under
    ``label`` and quiesces after every ``segment_ops`` requests.  It stops
    at the first segment boundary after ``seconds`` of wall time once
    ``min_ops`` requests are done.  Returns the number of requests served.
    """
    quiesce(cal, idle)
    deadline = time.perf_counter() + seconds
    served = 0
    while True:
        start = time.perf_counter()
        for _ in range(segment_ops):
            step(first + served)
            served += 1
        cal.record(label, time.perf_counter() - start)
        quiesce(cal, idle)
        if served >= min_ops and time.perf_counter() >= deadline:
            return served


def measure(
    cal: Calibrator,
    seconds: float,
    segment_ops: int,
    step: Callable[[int], None],
    *,
    tracer=None,
    min_ops: int,
    trace_ops: int,
    idle: Optional[Callable[[], None]] = None,
    reset: Optional[Callable[[], None]] = None,
) -> int:
    """Run the closed loop untraced, or as an untraced + traced pair.

    Untraced (``tracer`` is ``None``): at least ``seconds`` and
    ``min_ops`` requests.  Traced: ``trace_ops`` requests untraced, then
    ``reset()`` and ``trace_ops`` requests with every layer wrapped, so
    the calibrated time per request of the two halves gives the tracing
    overhead and the traced half's counts repeat exactly for a seed.
    """
    if tracer is None:
        return closed_loop(cal, seconds, segment_ops, step, min_ops=min_ops, idle=idle)
    plain = closed_loop(
        cal, 0, segment_ops, step, min_ops=trace_ops, label="untraced", idle=idle
    )
    if reset is not None:
        reset()
    tracer.install()
    try:
        traced = closed_loop(
            cal,
            0,
            segment_ops,
            lambda index: tracer.request(lambda: step(index)),
            first=plain,
            min_ops=trace_ops,
            label="traced",
            idle=idle,
        )
    finally:
        tracer.uninstall()
    per_plain = sum(cal.calibrated["untraced"]) / plain
    per_traced = sum(cal.calibrated["traced"]) / traced
    tracer.overhead_frac = per_traced / per_plain - 1.0
    tracer.requests = traced
    return plain + traced


def latency_metrics(cal: Calibrator, outcome: Outcome, sample: str, prefix: str) -> None:
    """``<prefix>_p50_ms`` and ``<prefix>_p95_ms`` from one sample list."""
    calibrated = cal.calibrated[sample]
    if not tail_supported(calibrated, TAIL):
        raise RuntimeError(
            f"{len(calibrated)} {sample} samples cannot support a p95"
        )
    raw = cal.raw[sample]
    outcome.metrics[f"{prefix}_p50_ms"] = (1e3 * statistics.median(calibrated), "ms")
    outcome.metrics[f"{prefix}_p95_ms"] = (1e3 * percentile(calibrated, TAIL), "ms")
    outcome.raw[f"{prefix}_p50_ms"] = 1e3 * statistics.median(raw)
    outcome.raw[f"{prefix}_p95_ms"] = 1e3 * percentile(raw, TAIL)
    outcome.notes[f"{sample}_samples"] = len(calibrated)


def throughput(cal: Calibrator, outcome: Outcome, name: str, count: int) -> None:
    """``name`` = ``count`` per calibrated second of closed-loop time."""
    outcome.metrics[name] = (count / sum(cal.calibrated["segment"]), "1/s")
    outcome.raw[name] = count / sum(cal.raw["segment"])


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MiB (plus the largest reaped child's)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def environment_notes() -> Dict[str, object]:
    """The host facts every result is printed with."""
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def checker_extra(deltas) -> Dict[str, float]:
    """Checker statistics (deltas over the traced requests) as layer inputs."""
    return {
        "checker.checks": deltas["checks"],
        "checker.cache_hits": deltas["cache_hits"],
        "checker.shortcuts": deltas["told_shortcuts"]
        + deltas["profile_rejections"]
        + deltas["signature_rejections"],
    }


def finish_trace(
    outcome: Outcome, cal: Calibrator, tracer, summaries, extra, checker_deltas=None
) -> None:
    """Fill the outcome's per-layer metrics and exact counts from the trace.

    ``checker_deltas`` replaces this process's checker statistics when the
    requests ran in another process.
    """
    from spans import layer_metrics, merge

    summary = merge(summaries)
    extra = dict(extra)
    if checker_deltas is None:
        checker_deltas = tracer.checker_deltas()
    extra.update(checker_extra(checker_deltas))
    outcome.layers = layer_metrics(summary, tracer.requests, extra)
    outcome.layers["ref.kernel_ms"] = (cal.kernel_median_ms, "ms")
    outcome.layers["trace.overhead_frac"] = (tracer.overhead_frac, "ratio")
    outcome.counts = dict(summary["counts"])
    for name, value in extra.items():
        outcome.counts.setdefault(name, value)
    outcome.notes["traced_requests"] = tracer.requests


def epoch_cycle(sl_schema, state, seed: int, count: int, size: int) -> list:
    """A cycle of update epochs that keeps the state a Σ-state and bounded.

    A view-filtered answer equals the unfiltered one only on states that
    satisfy the schema -- the premise of the paper -- so the updates must
    not break it.  Candidates come from ``generate_update_stream``; each is
    tried on a trial copy of ``state`` and kept only when every
    constraint around the objects it touched still holds (the state was
    legal before, so nothing else can have broken).  Updates that change
    nothing are dropped, and so are object deletions.

    Returns ``count`` epochs of ``size`` updates followed by their inverses
    in reverse order, so cycling through the list walks the state away from
    ``state`` and back: a run's data size does not grow with its length.
    """
    from repro.database.store import DatabaseState
    from repro.workloads.driver import apply_update, generate_update_stream

    trial = DatabaseState.from_snapshot(state.snapshot())
    forward: list = []
    inverses: list = []
    epoch: list = []
    undo_epoch: list = []
    chunk = 0
    while len(forward) < count:
        candidates = generate_update_stream(
            sl_schema, trial, 4 * size * count, seed * 7919 + chunk
        )
        for op in candidates:
            if op[0] == "remove":
                continue
            undo = _undo_for(trial, op)
            generation = trial.generation
            apply_update(trial, op)
            if trial.generation == generation:
                continue
            if _legal_around(trial, sl_schema, _touched(op)):
                epoch.append(op)
                undo_epoch[:0] = undo
                if len(epoch) == size:
                    forward.append(tuple(epoch))
                    inverses.append(tuple(undo_epoch))
                    epoch, undo_epoch = [], []
                    if len(forward) == count:
                        break
            else:
                for inverse in undo:
                    apply_update(trial, inverse)
        chunk += 1
    return forward + inverses[::-1]


def _touched(op) -> tuple:
    return (op[1], op[3]) if op[0] in ("set", "unset") else (op[1],)


def _undo_for(state, op) -> list:
    """Update ops restoring ``state`` after ``op``, computed before it runs."""
    kind, subject = op[0], op[1]
    undo = []
    if kind in ("add", "assert"):
        classes = op[2] if kind == "add" else (op[2],)
        explicit = state.object_classes(subject)
        undo.extend(("retract", subject, name) for name in classes if name not in explicit)
        if subject not in state.objects:
            undo.append(("remove", subject))
    elif kind == "retract":
        if op[2] in state.object_classes(subject):
            undo.append(("assert", subject, op[2]))
    elif kind == "set":
        _, _, attribute, value = op
        if value not in state.attribute_values(subject, attribute):
            undo.append(("unset", subject, attribute, value))
        for created in (value, subject):
            if created not in state.objects:
                undo.append(("remove", created))
    elif kind == "unset":
        _, _, attribute, value = op
        if value in state.attribute_values(subject, attribute):
            undo.append(("set", subject, attribute, value))
    return undo


def _legal_around(state, schema, objects) -> bool:
    """``True`` when no schema constraint involving ``objects`` is violated."""
    names = schema.concept_names()
    typings = {}
    for typing in schema.attribute_typings:
        typings.setdefault(typing.attribute, []).append(typing)

    def classes_of(object_id):
        return [name for name in names if object_id in state.extent(name)]

    for object_id in objects:
        if object_id not in state.objects:
            continue
        for name in classes_of(object_id):
            for attribute in schema.necessary_attributes(name):
                if not state.attribute_values(object_id, attribute):
                    return False
            for attribute in schema.functional_attributes(name):
                if len(state.attribute_values(object_id, attribute)) > 1:
                    return False
        for attribute, subject, value in state.object_pairs(object_id):
            for typing in typings.get(attribute, ()):
                if subject not in state.extent(typing.domain):
                    return False
                if value not in state.extent(typing.range):
                    return False
            for name in classes_of(subject):
                for restricted, range_class in schema.value_restrictions(name):
                    if restricted == attribute and value not in state.extent(range_class):
                        return False
    return True
