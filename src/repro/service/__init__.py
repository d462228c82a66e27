"""Job scheduler and HTTP serving layer for simulation workloads.

Turns the in-process simulator into a shared backend many clients can
drive over HTTP — the serving-stack counterpart to the run store:

* :mod:`repro.service.jobs` — job model and validated state machine;
  a :class:`~repro.service.jobs.Job` is the one record of a job, owning
  its event log and, while in flight, its plan.
* :mod:`repro.service.specs` — JSON params ⇄ scenarios / result payloads,
  laid out on the library's one grid
  (:func:`repro.simulation.experiment.grid`).
* :mod:`repro.service.scheduler` — bounded priority queue with request
  coalescing, backpressure, cancellation and crash retry over one job
  table; every job ends through one method.
* :mod:`repro.service.workers` — runs a job's plan through the run
  store, which computes missing cells on the library's one compute path
  (:func:`repro.simulation.cells.compute_cells`) over the scheduler's
  :class:`~repro.simulation.cells.WorkerPool` and stores each as it
  lands, so partial results survive crashes.
* :mod:`repro.service.events` — the sequence-numbered event log each
  job owns.
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

from repro.service.asyncserver import build_async_server, serve_async
from repro.service.client import ServiceClient
from repro.service.specs import resolve_scenario

# Everything else (the scheduler, job model, plans, executor and wire
# layer) is imported from its submodule.
__all__ = [
    "ServiceClient",
    "build_async_server",
    "resolve_scenario",
    "serve_async",
]
