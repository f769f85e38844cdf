"""``commit-mixed``: durable commits beside reads, then crash and recovery.

One process, one generator thread.  Each step commits one epoch of
``UPDATES_PER_EPOCH`` updates through a ``DurableMaintainer`` and waits for
``CommitTicket.wait_durable``, then serves ``QUERIES_PER_COMMIT`` queries
from ``AsyncMaintainer.serving_cut()``.  The run ends with ``kill()`` and
``DurableMaintainer.open()`` on the killed log.

Flush policy: the WAL lives in a temporary directory under ``.perfbench``
in the working directory (the local disk, not tmpfs: on tmpfs the flush
worker falls behind and coalesces a timing-dependent number of epochs),
real ``fsync``, ``sync_every=1``, a checkpoint every 64 commits.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Dict, List

from calibrate import Calibrator, percentile, tail_supported
from common import (
    STATE_SEED,
    TAIL,
    Outcome,
    distinct_queries,
    epoch_cycle,
    finish_trace,
    latency_metrics,
    measure,
    peak_rss_mb,
    quiesce,
    register_catalog,
    repeated_setup,
    throughput,
    university_inputs,
)

SETUP_REPEATS = 3
VIEWS = 32
UPDATES_PER_EPOCH = 8
#: Epochs walking away from the initial state (then back, and again).  The
#: walk is fixed and the seed orders the queries: eval cost follows the
#: states the walk reaches, so a walk per seed would measure the walk.
EPOCHS = 64
EPOCH_SEED = 4
QUERIES_PER_COMMIT = 4
#: Odd, so each concept takes every position after a commit in turn.
POOL = 63
POOL_SEED = 3
SYNC_EVERY = 1
CHECKPOINT_EVERY = 64
#: Steps per calibrated segment, and the least steps of an untraced run.
SEGMENT = 16
MIN_STEPS = 2048
TRACE_STEPS = 128
WAL_ROOT = ".perfbench"
#: Epochs committed after the newest checkpoint when the process is killed.
RECOVERY_TAIL = 32


def counting_filesystem(tracer):
    """An ``OsFileSystem`` that counts fsyncs and bytes (spans when traced)."""
    from repro.database.wal import OsFileSystem

    class CountingFileSystem(OsFileSystem):
        def _counting(self) -> bool:
            return tracer is not None and tracer.installed

        def append(self, path: str, data: bytes) -> None:
            if self._counting():
                tracer.counts["wal.append_bytes"] += len(data)
            super().append(path, data)

        def write(self, path: str, data: bytes) -> None:
            if self._counting():
                tracer.counts["wal.checkpoint_bytes"] += len(data)
            super().write(path, data)

        def fsync(self, path: str) -> None:
            if not self._counting():
                return super().fsync(path)
            tracer.counts["wal.fsyncs"] += 1
            tracer.span("wal.fsync", lambda: OsFileSystem.fsync(self, path))

    return CountingFileSystem()


def run(cal: Calibrator, seed: int, seconds: float, tracer=None) -> Outcome:
    from repro.core.checker import clear_shared_decision_cache
    from repro.database.commit import DurabilityError
    from repro.database.maintenance import DurableMaintainer
    from repro.optimizer import SemanticQueryOptimizer
    from repro.workloads.driver import apply_update
    from repro.workloads.university import generate_university_state

    outcome = Outcome()
    schema, sl_schema, _, full_catalog = university_inputs()
    catalog = dict(list(full_catalog.items())[:VIEWS])
    pool = distinct_queries(sl_schema, catalog, POOL, POOL_SEED)
    order = list(range(POOL))
    random.Random(seed).shuffle(order)
    os.makedirs(WAL_ROOT, exist_ok=True)
    live: Dict[str, object] = {}
    root = None

    def teardown() -> None:
        if live:
            live["maintainer"].close()
            shutil.rmtree(live["root"], ignore_errors=True)
            live.clear()

    def build():
        teardown()
        clear_shared_decision_cache()
        state = generate_university_state(seed=STATE_SEED)
        optimizer = register_catalog(cal, schema, catalog, state)
        start = time.perf_counter()
        root = tempfile.mkdtemp(prefix="wal-", dir=WAL_ROOT)
        maintainer = DurableMaintainer(
            state,
            optimizer.catalog,
            path=root,
            sync_every=SYNC_EVERY,
            checkpoint_every=CHECKPOINT_EVERY,
            fs=counting_filesystem(tracer),
        )
        maintainer.checkpoint()  # genesis: the seeded objects predate the log
        for concept in pool:
            optimizer.subsuming_views_for_concept(concept)
        cal.record("setup", time.perf_counter() - start)
        quiesce(cal, maintainer.sync)
        live.update(state=state, optimizer=optimizer, maintainer=maintainer, root=root)
        return state, optimizer, maintainer, root

    try:
        (state, optimizer, maintainer, root), setup_s, setup_raw = repeated_setup(
            cal, SETUP_REPEATS, build
        )
        outcome.metrics["setup_s"] = (setup_s, "s")
        outcome.raw["setup_s"] = setup_raw
        epochs = epoch_cycle(sl_schema, state, EPOCH_SEED, EPOCHS, UPDATES_PER_EPOCH)
        evaluator = optimizer.evaluator
        commits, queries = outcome.op("commit"), outcome.op("query")
        acked: Dict[int, int] = {}
        served: List[tuple] = []
        stats_before = {}

        def mutate(epoch) -> None:
            with state.batch():
                for op in epoch:
                    apply_update(state, op)

        def step(index: int) -> None:
            epoch = epochs[index % len(epochs)]
            commits.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is not None and tracer.installed:
                    tracer.span("store.batch", lambda: mutate(epoch))
                else:
                    mutate(epoch)
                ticket = state.last_commit_ticket
                durable = ticket.wait_durable(timeout=30.0) and ticket.error is None
            except DurabilityError:
                durable = False
            cal.record("commit", time.perf_counter() - start)
            if durable:
                acked[ticket.sequence] = index
            else:
                commits.failed += 1
            # Reads follow the commit they come after: waiting for its flush
            # keeps the pinned generation, and so the work, free of timing.
            if tracer is not None and tracer.installed:
                tracer.span("maint.sync", maintainer.sync)
            else:
                maintainer.sync()
            serving, extents = maintainer.serving_cut()
            for offset in range(QUERIES_PER_COMMIT):
                item = order[(index * QUERIES_PER_COMMIT + offset) % POOL]
                concept = pool[item]
                queries.attempted += 1
                start = time.perf_counter()
                matches = optimizer.subsuming_views_for_concept(concept)
                if matches:
                    answers = evaluator.concept_answers(
                        concept, serving, candidates=extents.get(matches[0].name, ())
                    )
                else:
                    answers = evaluator.concept_answers(concept, serving)
                cal.record("query", time.perf_counter() - start)
                served.append((item, serving, answers))

        def settle() -> None:
            # At a quiescent point: flush, then check and drop the segment's
            # answers against the unfiltered evaluation of their snapshots.
            maintainer.sync()
            for item, serving, answers in served:
                if answers != evaluator.concept_answers(pool[item], serving):
                    queries.failed += 1
                    outcome.mismatches.append(
                        f"pool concept {item}: wrong answer at generation "
                        f"{serving.generation}"
                    )
            served.clear()

        def maintenance_counts() -> Dict[str, int]:
            stats = maintainer.statistics
            return {
                "maint.flushes": stats.flushes,
                "maint.epochs_coalesced": stats.epochs_coalesced,
                "maint.views_evaluated": stats.views_evaluated,
                "maint.lattice_pruned": stats.views_lattice_pruned,
                "commit.acked": len(acked),
            }

        def start_traced_half() -> None:
            stats_before.update(maintenance_counts())

        steps = measure(
            cal,
            seconds,
            SEGMENT,
            step,
            tracer=tracer,
            min_ops=MIN_STEPS,
            trace_ops=TRACE_STEPS,
            idle=settle,
            reset=start_traced_half,
        )
        traced_counts = {
            name: value - stats_before.get(name, 0)
            for name, value in maintenance_counts().items()
        }

        # Every run leaves the same log tail behind a checkpoint for recovery.
        for index in range(steps, steps + (RECOVERY_TAIL - steps) % CHECKPOINT_EVERY):
            mutate(epochs[index % len(epochs)])
            ticket = state.last_commit_ticket
            if ticket.wait_durable(timeout=30.0) and ticket.error is None:
                acked[ticket.sequence] = index
            maintainer.sync()

        # Crash and recover: the loss check uses the ACKs actually collected.
        maintainer.drain()
        live_state = state.snapshot()
        live_extents = {view.name: view.stored_extent for view in optimizer.catalog}
        extents_fresh = all(
            view.stored_extent == evaluator.concept_answers(view.concept, state)
            for view in optimizer.catalog
        )
        maintainer.kill()
        live.clear()
        fresh = SemanticQueryOptimizer(schema, lattice=True)
        for name, concept in catalog.items():
            fresh.register_view_concept(name, concept)
        recovery_op = outcome.op("recovery")
        recovery_op.attempted += 1
        quiesce(cal)
        start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            recovered = DurableMaintainer.open(
                root, sl_schema, fresh.catalog, checkpoint_every=CHECKPOINT_EVERY
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        cal.record("recovery", time.perf_counter() - start)
        quiesce(cal)
        try:
            report = recovered.recovery_report
            lost = report.recovered_sequence < max(acked, default=0)
            same = (
                recovered.state.objects == live_state.objects
                and all(
                    recovered.state.extent(name) == live_state.extent(name)
                    for name in live_state.classes()
                )
                and {view.name: view.stored_extent for view in fresh.catalog}
                == live_extents
            )
        finally:
            recovered.kill()
        if lost or not same or not extents_fresh:
            recovery_op.failed += 1
            outcome.mismatches.append(
                f"recovery: acked lost={lost}, recovered==live {same}, "
                f"live extents fresh {extents_fresh}"
            )
    finally:
        teardown()
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)

    outcome.notes.update(
        views=VIEWS,
        flush_policy=f"WAL under {WAL_ROOT}/ in the working directory, real fsync, "
        f"sync_every={SYNC_EVERY}, checkpoint every {CHECKPOINT_EVERY} commits",
        commits=len(acked),
        recovered_epochs=report.replayed_epochs,
    )
    if tracer is not None:
        extra = dict(traced_counts)
        extra["recovery.replayed_epochs"] = report.replayed_epochs
        tracer.counts["store.commits"] = extra["commit.acked"]
        finish_trace(outcome, cal, tracer, [tracer.summary()], extra)
        return outcome

    latency_metrics(cal, outcome, "query", "query")
    throughput(cal, outcome, "queries_per_s", QUERIES_PER_COMMIT * steps)
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    # Commit-side figures, printed but not part of the gated metric set.
    commit_times = cal.calibrated["commit"]
    outcome.notes["commit_p50_ms"] = round(1e3 * statistics.median(commit_times), 4)
    if tail_supported(commit_times, TAIL):
        outcome.notes["commit_p95_ms"] = round(1e3 * percentile(commit_times, TAIL), 4)
    if tail_supported(commit_times, 0.99):
        outcome.notes["commit_p99_ms"] = round(1e3 * percentile(commit_times, 0.99), 4)
    outcome.notes["commits_per_s"] = round(steps / sum(cal.calibrated["segment"]), 4)
    outcome.notes["recovery_ms"] = round(1e3 * cal.calibrated["recovery"][0], 4)
    outcome.notes["raw_commit_p50_ms"] = round(1e3 * statistics.median(cal.raw["commit"]), 4)
    return outcome
