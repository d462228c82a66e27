"""Every metric the benchmark prints, with its unit (``BENCHMARK.json``).

``--trace 0`` prints exactly :data:`END_TO_END`; ``--trace 1`` prints
exactly :data:`PER_LAYER`.  ``README.md`` says what each one measures.
"""

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "asyncserver.requests": "count",
    "asyncserver.self_ms": "ms",
    "wire.dispatch_calls": "count",
    "wire.dispatch_ms": "ms",
    "wire.result_bytes": "B",
    "specs.build_plan_ms": "ms",
    "scheduler.submits": "count",
    "scheduler.queue_wait_ms_p50": "ms",
    "scheduler.run_ms_p50": "ms",
    "scheduler.coalesced_frac": "ratio",
    "scheduler.retries": "count",
    "scheduler.rejected": "count",
    "workers.attempts": "count",
    "workers.execute_ms": "ms",
    "workers.cells_computed": "count",
    "workers.pickle_bytes_per_cell": "B",
    "store.fetch_ms": "ms",
    "store.hit_ratio": "ratio",
    "store.blob_get_calls": "count",
    "store.blob_get_ms": "ms",
    "store.blob_put_calls": "count",
    "store.blob_put_ms": "ms",
    "store.index_ms": "ms",
    "store.bytes_read": "B",
    "store.bytes_written": "B",
    "store.verify_failures": "count",
    "simulation.runs": "count",
    "simulation.setup_ms": "ms",
    "simulation.exchange_ms": "ms",
    "simulation.metrics_ms": "ms",
    "simulation.survey_ms": "ms",
    "simulation.trajectory_ms": "ms",
    "simulation.aging_ms": "ms",
    "simulation.template_hit_ratio": "ratio",
    "simulation.batch_fallbacks": "count",
    "obs.trace_overhead_pct": "%",
}
