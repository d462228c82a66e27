"""Job scheduler and HTTP serving layer for simulation workloads.

Turns the in-process simulator into a shared backend many clients can
drive over HTTP — the serving-stack counterpart to the run store:

* :mod:`repro.service.jobs` — job model and validated state machine.
* :mod:`repro.service.specs` — JSON params ⇄ scenarios / result payloads,
  laid out on the library's one grid
  (:func:`repro.simulation.experiment.grid`).
* :mod:`repro.service.scheduler` — bounded priority queue with request
  coalescing, backpressure, cancellation and crash retry.
* :mod:`repro.service.workers` — runs a job's plan through the run
  store, which computes missing cells on the library's one compute path
  (:func:`repro.simulation.cells.compute_cells`) over the scheduler's
  :class:`~repro.simulation.cells.WorkerPool` and stores each as it
  lands, so partial results survive crashes.
* :mod:`repro.service.events` — per-job sequence-numbered event logs.
* :mod:`repro.service.wire` — the v1 API surface (envelope, routing,
  content negotiation), independent of the transport.
* :mod:`repro.service.asyncserver` — the asyncio HTTP transport:
  thousands of keep-alive connections and live SSE/JSONL streams on
  one loop.
* :mod:`repro.service.client` — thin urllib client with streaming
  ``watch_job`` and typed error exceptions.
* :mod:`repro.service.chaos` — fault injection for the load harness.

Quick use::

    from repro.service import build_async_server, serve_async
    from repro.service import ServiceClient

    server = build_async_server(cache_dir=".repro-cache", workers=4)
    serve_async(server)
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
    result = client.compare("hackathon", "traditional", seeds=5)
    for event in client.watch_job(job_id):  # live progress
        print(event["event"], event.get("state"))

Or from a shell: ``repro-sim serve --workers 4`` then
``repro-sim job watch <id>`` — or plain ``curl -N`` on
``GET /v1/jobs/{id}/events``.
"""

from repro.service.asyncserver import (
    AsyncReproServiceServer,
    build_async_server,
    serve_async,
)
from repro.service.client import ServiceClient
from repro.service.events import EventHub, JobEventLog
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_KINDS,
    QUEUED,
    RUNNING,
    Job,
    JobProgress,
)
from repro.service.scheduler import Scheduler
from repro.service.specs import (
    JobPlan,
    build_plan,
    comparison_from_payload,
    resolve_scenario,
    sweep_from_payload,
)
from repro.service.wire import ServiceAPI
from repro.service.workers import execute_plan

__all__ = [
    "AsyncReproServiceServer",
    "CANCELLED",
    "DONE",
    "EventHub",
    "FAILED",
    "JOB_KINDS",
    "JobEventLog",
    "QUEUED",
    "RUNNING",
    "Job",
    "JobPlan",
    "JobProgress",
    "Scheduler",
    "ServiceAPI",
    "ServiceClient",
    "build_async_server",
    "build_plan",
    "comparison_from_payload",
    "execute_plan",
    "resolve_scenario",
    "serve_async",
    "sweep_from_payload",
]
