"""``serve-fabric``: a forked serving client over the replica + cache fabric.

Two processes.  The benchmark process is the primary: it runs a
``ReplicaServer`` and a ``DecisionCacheServer`` and, during set-up, warms
the cache with the decisions for a fixed pool of distinct concepts.  The
client is forked from it (interned ids, and so ``cache_namespace``, are
shared only within a fork family).  One client thread serves the pool in
Zipf popularity order through ``SnapshotReplica.answer_concept`` with a
``RemoteDecisionCache``.

The commit schedule follows the request count, not the clock: every
``COMMIT_EVERY`` requests the client asks the primary to commit one update
epoch, waits for it, and catches up with ``ensure_fresh`` (staleness bound
0), so every run does the same catch-up work.  Every ``REJOIN`` requests
the client joins afresh -- a new ``SnapshotReplica`` and a cleared
in-process decision cache -- as a newly started serving process would.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from calibrate import Calibrator
from common import (
    Outcome,
    distinct_queries,
    finish_trace,
    epoch_cycle,
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
#: Views in the served catalog (a replica join re-registers all of them).
VIEWS = 32
#: The fixed pool of distinct concepts; the seed draws their popularity.
POOL = 300
POOL_SEED = 2
ZIPF_EXPONENT = 1.0
#: Pool concepts warmed per calibrated set-up segment.
WARM_CHUNK = 20
COMMIT_EVERY = 16
UPDATES_PER_EPOCH = 4
REJOIN = 2048
#: Requests per calibrated segment; divides ``REJOIN``.
SEGMENT = 256
MIN_OPS = 8 * REJOIN
#: Update epochs walking away from the initial state (then back, and again).
#: The walk is fixed; the seed draws the requests.
EPOCHS = 64
EPOCH_SEED = 4
#: Requests per half of a traced run (one join each).
TRACE_OPS = REJOIN


def zipf_sequence(count: int, size: int, seed: int) -> List[int]:
    """``count`` pool indices; index ``r`` is drawn with weight ``1 / (r + 1)**s``.

    Popularity is a fixed property of the pool (its generation order); the
    seed draws the request sequence.  Shuffling the ranks per seed would
    make each run measure which concepts it happened to make popular.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size)]
    return random.Random(seed).choices(range(size), weights=weights, k=count)


def _client(config: Dict[str, object], channel, tracer) -> None:
    """The forked serving process: measures, ships everything back."""
    from repro.core.checker import clear_shared_decision_cache
    from repro.database.cacheserver import RemoteDecisionCache
    from repro.database.faults import StalenessError
    from repro.database.replica import ReplicaProtocolError, SnapshotReplica

    cal = Calibrator(config["nominal_ms"])
    pool = config["pool"]
    sequence: List[int] = config["sequence"]
    served: List[Tuple[int, int, Tuple[str, ...]]] = []
    ops = {name: [0, 0] for name in ("query", "poll", "join", "commit")}
    first_contact = set()
    remote = RemoteDecisionCache(config["cache_address"], config["namespace"])
    joined = {"replica": None, "max_lag": 0, "epochs": 0, "loads": 0}

    def join() -> None:
        old = joined["replica"]
        if old is not None:
            joined["epochs"] += old.epochs_applied
            joined["loads"] += old.snapshot_loads
            old.close()
        clear_shared_decision_cache()
        first_contact.clear()
        ops["join"][0] += 1
        start = time.perf_counter()
        joined["replica"] = SnapshotReplica(
            config["replica_address"], staleness_bound=0, remote=remote
        ).connect()
        cal.record("join", time.perf_counter() - start)

    def catch_up() -> None:
        ops["commit"][0] += 1
        channel.send(("commit",))
        if channel.recv()[0] != "committed":
            ops["commit"][1] += 1
        replica = joined["replica"]
        ops["poll"][0] += 1
        start = time.perf_counter()
        try:
            lag = replica.ensure_fresh()
        except (OSError, ReplicaProtocolError, StalenessError):
            ops["poll"][1] += 1
            return
        finally:
            cal.record("poll", time.perf_counter() - start)
        joined["max_lag"] = max(joined["max_lag"], lag)
        if lag > replica.staleness_bound or replica.degraded:
            ops["poll"][1] += 1

    def step(index: int) -> None:
        if index % REJOIN == 0:
            join()
        elif index % COMMIT_EVERY == 0:
            catch_up()
        replica = joined["replica"]
        item = sequence[index % len(sequence)]
        rounds_before = tracer.counts["cache.round_trips"] if tracer else 0
        ops["query"][0] += 1
        start = time.perf_counter()
        answers, generation = replica.answer_concept(pool[item])
        cal.record("query", time.perf_counter() - start)
        if replica.degraded:
            ops["query"][1] += 1
        if item not in first_contact:
            first_contact.add(item)
            if tracer is not None and tracer.installed:
                tracer.counts["cache.first_contact_queries"] += 1
                tracer.counts["cache.first_contact_round_trips"] += (
                    tracer.counts["cache.round_trips"] - rounds_before
                )
        served.append((item, generation, tuple(sorted(answers))))

    def start_traced_half() -> None:
        channel.send(("trace",))
        channel.recv()

    def verify_segment() -> None:
        # At a quiescent point: the primary checks this segment's answers
        # while the client waits, and both drop what they no longer need.
        channel.send(("verify", served[:]))
        served.clear()
        ops["query"][1] += channel.recv()[1]

    try:
        count = measure(
            cal,
            config["seconds"],
            SEGMENT,
            step,
            tracer=tracer,
            min_ops=MIN_OPS,
            trace_ops=TRACE_OPS,
            idle=verify_segment,
            reset=start_traced_half,
        )
        replica = joined["replica"]
        joined["epochs"] += replica.epochs_applied
        joined["loads"] += replica.snapshot_loads
        report = {
            "count": count,
            "ops": ops,
            "calibrated": dict(cal.calibrated),
            "raw": dict(cal.raw),
            "kernel_median_ms": cal.kernel_median_ms,
            "remote_hits": remote.hits,
            "remote_misses": remote.misses,
            "max_lag": joined["max_lag"],
            "epochs_applied": joined["epochs"],
            "snapshot_loads": joined["loads"],
        }
        if tracer is not None:
            report["trace"] = tracer.summary()
            report["checker_deltas"] = dict(tracer.checker_deltas())
            report["overhead_frac"] = tracer.overhead_frac
            report["requests"] = tracer.requests
            # The traced half ran on one replica; its maintenance queue's flushes.
            report["maint"] = dict(vars(replica.maintenance.statistics))
            report["traced_epochs_applied"] = replica.epochs_applied
        replica.close()
    finally:
        remote.close()
    channel.send(("done", report))


def run(cal: Calibrator, seed: int, seconds: float, tracer=None) -> Outcome:
    import multiprocessing

    from repro.core.checker import SubsumptionChecker, clear_shared_decision_cache
    from repro.database.cacheserver import (
        DecisionCacheServer,
        RemoteDecisionCache,
        cache_namespace,
    )
    from repro.database.query_eval import QueryEvaluator
    from repro.database.replica import ReplicaServer
    from repro.optimizer import ShardedMatcher
    from repro.workloads.driver import apply_update

    outcome = Outcome()
    schema, sl_schema, state, full_catalog = university_inputs()
    # Catalogs grow by specializing earlier views, so a prefix is a catalog.
    catalog = dict(list(full_catalog.items())[:VIEWS])
    pool = distinct_queries(sl_schema, catalog, POOL, POOL_SEED)
    servers: List[object] = []

    def build():
        for server in servers:
            server.close()
        servers.clear()
        clear_shared_decision_cache()
        optimizer = register_catalog(cal, schema, catalog, state)
        start = time.perf_counter()
        cache_server = DecisionCacheServer().start()
        replica_server = ReplicaServer(
            state, optimizer.catalog, tail_limit=4 * COMMIT_EVERY
        ).start()
        servers.extend([replica_server, cache_server])
        namespace = cache_namespace(optimizer.sl_schema, optimizer.catalog)
        # Publish the pool's decisions from a cold checker: only full
        # completions are written behind.
        warm = RemoteDecisionCache(cache_server.address, namespace)
        clear_shared_decision_cache()
        matcher = ShardedMatcher(
            SubsumptionChecker(optimizer.sl_schema),
            optimizer.catalog,
            shards=1,
            backend="serial",
            remote=warm,
        )
        for offset in range(0, len(pool), WARM_CHUNK):
            matcher.match_batch(pool[offset : offset + WARM_CHUNK])
            warm.stats()  # one round trip: every write-behind set has landed
            cal.record("setup", time.perf_counter() - start)
            quiesce(cal)
            start = time.perf_counter()
        warm.close()
        return optimizer, cache_server, replica_server, namespace

    (optimizer, cache_server, replica_server, namespace), setup_s, setup_raw = (
        repeated_setup(cal, SETUP_REPEATS, build)
    )
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.raw["setup_s"] = setup_raw

    sequence = zipf_sequence(1 << 16, len(pool), seed)
    epochs = epoch_cycle(sl_schema, state, EPOCH_SEED, EPOCHS, UPDATES_PER_EPOCH)
    history = {state.generation: state.snapshot()}
    evaluator = QueryEvaluator(None)
    oracle: Dict[Tuple[int, int], Tuple[str, ...]] = {}

    def check_answers(served) -> int:
        """Count served answers that differ from a fresh evaluation
        of the primary's snapshot of the generation they were pinned to."""
        wrong = 0
        for item, generation, answers in served:
            pinned = history.get(generation)
            if pinned is None:
                wrong += 1
                outcome.mismatches.append(f"pool concept {item}: no generation {generation}")
                continue
            key = (item, generation)
            if key not in oracle:
                expected = evaluator.concept_answers(pool[item], pinned)
                oracle[key] = tuple(sorted(expected))
            if answers != oracle[key]:
                wrong += 1
                outcome.mismatches.append(f"pool concept {item}: wrong at {generation}")
        return wrong

    config = {
        "nominal_ms": cal.nominal * 1e3,
        "pool": pool,
        "sequence": sequence,
        "seconds": seconds,
        "cache_address": cache_server.address,
        "replica_address": replica_server.address,
        "namespace": namespace,
    }
    context = multiprocessing.get_context("fork")
    channel, child_end = context.Pipe()
    client = context.Process(target=_client, args=(config, child_end, tracer))
    primary_commits = 0
    try:
        client.start()
        child_end.close()
        while True:
            if not channel.poll(120.0):
                raise RuntimeError("the serving client stopped answering")
            message = channel.recv()
            if message[0] == "commit":
                epoch = epochs[primary_commits % len(epochs)]

                def commit() -> None:
                    with state.batch():
                        for op in epoch:
                            apply_update(state, op)

                if tracer is not None and tracer.installed:
                    before = state.generation  # one generation per delta
                    tracer.span("store.batch", commit)
                    tracer.counts["store.commits"] += 1
                    tracer.counts["store.deltas"] += state.generation - before
                else:
                    commit()
                primary_commits += 1
                history[state.generation] = state.snapshot()
                channel.send(("committed", state.generation))
            elif message[0] == "trace":
                tracer.install()
                channel.send(("tracing",))
            elif message[0] == "verify":
                wrong = check_answers(message[1])
                # Later requests pin the current generation or a newer one.
                for generation in [g for g in history if g < state.generation]:
                    del history[generation]
                oracle.clear()
                channel.send(("verified", wrong))
            else:
                report = message[1]
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        client.join(timeout=30.0)
        if client.is_alive():
            client.terminate()
            client.join()
        for server in servers:
            server.close()

    for name, (attempted, failed) in report["ops"].items():
        counts = outcome.op(name)
        counts.attempted, counts.failed = attempted, failed

    lookups = report["remote_hits"] + report["remote_misses"]
    outcome.notes.update(
        views=VIEWS,
        pool=POOL,
        client_kernel_median_ms=round(report["kernel_median_ms"], 4),
        remote_hit_rate=report["remote_hits"] / lookups if lookups else 0.0,
        epochs_applied=report["epochs_applied"],
        snapshot_loads=report["snapshot_loads"],
        primary_commits=primary_commits,
        max_lag=report["max_lag"],
    )
    if tracer is not None:
        tracer.requests = report["requests"]
        tracer.overhead_frac = report["overhead_frac"]
        extra = {
            "replica.epochs_applied": report["traced_epochs_applied"],
            "replica.max_lag": report["max_lag"],
            "maint.flushes": report["maint"]["flushes"],
            "maint.epochs_coalesced": report["maint"]["epochs_coalesced"],
            "maint.views_evaluated": report["maint"]["views_evaluated"],
            "maint.lattice_pruned": report["maint"]["views_lattice_pruned"],
        }
        finish_trace(
            outcome,
            cal,
            tracer,
            [tracer.summary(), report["trace"]],
            extra,
            checker_deltas=report["checker_deltas"],
        )
        return outcome

    client_cal = Calibrator(cal.nominal * 1e3)
    client_cal.calibrated.update(report["calibrated"])
    client_cal.raw.update(report["raw"])
    latency_metrics(client_cal, outcome, "query", "query")
    throughput(client_cal, outcome, "queries_per_s", report["count"])
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(include_children=True), "MiB")
    return outcome
