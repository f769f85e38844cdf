"""``match-cold``: distinct first-contact queries against a 128-view catalog.

One process, one client.  Each request matches a query the checker has
never seen (``subsuming_views_for_concept``: cold Σ-subsumption over the
classified lattice), then evaluates it filtered through the most specific
subsuming view.  No socket and no WAL is touched.

The queries are a fixed corpus of distinct concepts, half specializations
of catalog views and half random misses, served in an order drawn from the
seed.  Cold matching cost varies tenfold between queries, so a run that
drew a fresh corpus per seed would mostly measure which queries it drew.
"""

from __future__ import annotations

import random
import time

from calibrate import Calibrator
from common import (
    Outcome,
    distinct_queries,
    finish_trace,
    latency_metrics,
    measure,
    peak_rss_mb,
    register_catalog,
    repeated_setup,
    throughput,
    university_inputs,
)

SETUP_REPEATS = 3
#: Requests per calibrated segment (about 0.2 s of cold matching).
SEGMENT = 8
#: The fixed corpus; every untraced run serves all of it at least once.
CORPUS = 512
CORPUS_SEED = 1
#: Requests per half of a traced run.
TRACE_OPS = 128


def run(cal: Calibrator, seed: int, seconds: float, tracer=None) -> Outcome:
    from repro.concepts.intern import concept_id
    from repro.concepts.normalize import normalize_concept
    from repro.core.checker import clear_shared_decision_cache

    outcome = Outcome()
    schema, sl_schema, state, catalog = university_inputs()

    def build():
        clear_shared_decision_cache()
        optimizer = register_catalog(cal, schema, catalog, state)
        return optimizer

    optimizer, setup_s, setup_raw = repeated_setup(cal, SETUP_REPEATS, build)
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.raw["setup_s"] = setup_raw

    queries = distinct_queries(sl_schema, catalog, CORPUS, CORPUS_SEED)
    random.Random(seed).shuffle(queries)
    served = []
    evaluator = optimizer.evaluator
    op = outcome.op("query")

    def step(index: int) -> None:
        if index >= len(queries):
            # A run faster than the corpus continues on further distinct batches.
            used = {concept_id(normalize_concept(query)) for query in queries}
            more = distinct_queries(
                sl_schema, catalog, CORPUS, CORPUS_SEED + len(queries), exclude=used
            )
            random.Random(seed).shuffle(more)
            queries.extend(more)
        concept = queries[index]
        op.attempted += 1
        start = time.perf_counter()
        matches = optimizer.subsuming_views_for_concept(concept)
        if matches:
            answers = evaluator.concept_answers(
                concept, state, candidates=matches[0].stored_extent
            )
        else:
            answers = evaluator.concept_answers(concept, state)
        cal.record("query", time.perf_counter() - start)
        served.append((concept, answers))

    count = measure(
        cal, seconds, SEGMENT, step, tracer=tracer, min_ops=CORPUS, trace_ops=TRACE_OPS
    )

    # Correctness: every filtered answer equals the unfiltered evaluation.
    for index, (concept, answers) in enumerate(served):
        if answers != evaluator.concept_answers(concept, state):
            op.failed += 1
            outcome.mismatches.append(f"query {index}: filtered answer differs")

    outcome.notes["views"] = len(catalog)
    outcome.notes["corpus"] = CORPUS
    if tracer is not None:
        finish_trace(outcome, cal, tracer, [tracer.summary()], {})
        return outcome
    latency_metrics(cal, outcome, "query", "query")
    throughput(cal, outcome, "queries_per_s", count)
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    return outcome
