"""Which entry point of which layer the tracer wraps, and what each counts."""

from __future__ import annotations


def install_wrappers(tracer) -> None:
    """Wrap each layer's public entry points with spans and counting hooks."""
    from repro.calculus import subsume as subsume_module
    from repro.calculus.engine import CompletionEngine
    from repro.core import checker as checker_module
    from repro.core.checker import SubsumptionChecker
    from repro.database import views as views_module
    from repro.database.cacheserver import RemoteDecisionCache
    from repro.database.commit import CommitTicket
    from repro.database.lattice import LatticeMatchStats, ViewLattice
    from repro.database.query_eval import QueryEvaluator
    from repro.database.replica import SnapshotReplica
    from repro.database.store import DatabaseState
    from repro.database.wal import WriteAheadLog
    from repro.optimizer import optimizer as optimizer_module
    from repro.optimizer import parallel as parallel_module
    from repro.optimizer.optimizer import SemanticQueryOptimizer
    from repro.optimizer.parallel import ShardedMatcher

    counts = tracer.counts

    def on_complete(args, kwargs, result):
        counts["calculus.completions"] += 1
        counts["calculus.rule_applications"] += result.statistics.total_applications

    def on_subsumes(args, kwargs, result):
        tracer.note_checker(args[0])

    def on_answers(args, kwargs, result):
        candidates = kwargs.get("candidates", args[3] if len(args) > 3 else None)
        state = args[2] if len(args) > 2 else kwargs["state"]
        pool = state.objects if candidates is None else candidates
        counts["eval.candidates"] += len(pool)
        counts["eval.answers"] += len(result)

    def on_get_many(args, kwargs, result):
        keys = list(args[1]) if len(args) > 1 else list(kwargs["keys"])
        counts["cache.round_trips"] += 1
        counts["cache.hits"] += len(result)
        counts["cache.misses"] += len(keys) - len(result)

    def on_match_batch(args, kwargs, result):
        counts["matcher.items"] += len(result)

    def on_append(args, kwargs, result):
        record = args[1]
        counts["wal.appends"] += 1
        counts["store.deltas"] += len(record.deltas)

    def on_checkpoint(args, kwargs, result):
        counts["wal.checkpoints"] += 1

    original_subsumers = ViewLattice.subsumers

    def subsumers(self, concept, checker, stats=None):
        own = stats if stats is not None else LatticeMatchStats()
        record = tracer.open("lattice")
        try:
            result = original_subsumers(self, concept, checker, own)
        finally:
            tracer.close(record)
        counts["lattice.checks"] += own.checks
        counts["lattice.pruned"] += own.pruned_views
        return result

    tracer.wrap(CompletionEngine, "complete", "calculus", on_complete)
    tracer.wrap(SubsumptionChecker, "normalized", "concepts")
    for module in (
        checker_module,
        parallel_module,
        optimizer_module,
        views_module,
        subsume_module,
    ):
        tracer.wrap(module, "normalize_concept", "concepts")
    tracer.wrap(SubsumptionChecker, "subsumes", "checker", on_subsumes)
    tracer.replace(ViewLattice, "subsumers", subsumers)
    tracer.wrap(SemanticQueryOptimizer, "subsuming_views_for_concept", "optimizer")
    tracer.wrap(ShardedMatcher, "match_batch", "optimizer.batch", on_match_batch)
    tracer.wrap(QueryEvaluator, "concept_answers", "eval", on_answers)
    tracer.wrap(RemoteDecisionCache, "get_many", "cache", on_get_many)
    tracer.wrap(SnapshotReplica, "connect", "replica.join")
    tracer.wrap(SnapshotReplica, "ensure_fresh", "replica.fresh")
    tracer.wrap(SnapshotReplica, "poll", "replica.poll")
    tracer.wrap(DatabaseState, "apply_delta", "store.apply_delta")
    tracer.wrap(WriteAheadLog, "append", "wal.append", on_append)
    tracer.wrap(WriteAheadLog, "write_checkpoint", "wal.checkpoint", on_checkpoint)
    tracer.wrap(CommitTicket, "wait_durable", "commit.ack_wait")
