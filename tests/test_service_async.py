"""End-to-end tests for the asyncio front end, event streaming, the
v1 error envelope and the chaos harness's failure paths."""

import asyncio
import json
import threading
import time
import urllib.request

import pytest

from repro.errors import (
    BackpressureError,
    BadRequestError,
    JobFailedError,
    JobNotFoundError,
    JobNotReadyError,
    ServiceError,
)
from repro.obs import REGISTRY
from repro.service import ServiceClient, build_async_server, serve_async
from repro.service.chaos import (
    corrupt_blobs,
    make_flaky_factory,
    pool_worker_pids,
)
from repro.store import RunCache

from test_service import quick_factory


def _raw(client, method, path, headers=None, body=None):
    """One raw request; returns (status, headers, raw body bytes)."""
    request = urllib.request.Request(
        client.base_url + path, data=body, headers=headers or {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=15) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


# -- streaming order and delivery -----------------------------------------


class TestStreaming:
    def test_jsonl_events_arrive_in_completion_order(self, service):
        jid = service.submit(
            "replicate", {"seeds": [4, 5, 6]})["job"]["id"]
        events = list(service.watch_job(jid))
        seqs = [e["seq"] for e in events]
        assert seqs == list(range(1, len(seqs) + 1)), (
            f"seqs not contiguous-from-1: {seqs}"
        )
        states = [e["state"] for e in events if e["event"] == "state"]
        assert states == ["queued", "running", "done"]
        cell_done = [e["done"] for e in events if e["event"] == "cell"]
        assert cell_done == [1, 2, 3]  # completion order, no gaps
        assert events[-1]["event"] == "state"  # terminal event closes

    def test_sse_frames_match_jsonl_events(self, service):
        jid = service.submit(
            "replicate", {"seeds": [7, 8]})["job"]["id"]
        jsonl_events = list(service.watch_job(jid))
        status, headers, raw = _raw(
            service, "GET", f"/v1/jobs/{jid}/events",
            headers={"Accept": "text/event-stream"},
        )
        assert status == 200
        assert headers["Content-Type"] == "text/event-stream"
        frames = [f for f in raw.decode().split("\n\n")
                  if f and not f.startswith(":")]
        assert len(frames) == len(jsonl_events)
        for frame, event in zip(frames, jsonl_events):
            lines = dict(line.split(": ", 1)
                         for line in frame.split("\n"))
            assert int(lines["id"]) == event["seq"]
            assert lines["event"] == event["event"]
            assert json.loads(lines["data"]) == event
        # Both streams are finished: the one open-streams gauge is back
        # at 0, and no second, never-moved gauge is exported.
        samples = dict(line.rsplit(" ", 1)
                       for line in service.metrics_text().splitlines()
                       if line and not line.startswith("#"))
        assert float(samples["service_async_streams_open"]) == 0
        assert "service_streams_open" not in samples

    def test_stream_resumes_after_seq(self, service):
        jid = service.submit(
            "replicate", {"seeds": [9, 10]})["job"]["id"]
        full = list(service.watch_job(jid))
        resumed = list(service.watch_job(jid, after=2))
        assert resumed == full[2:]

    def test_last_event_id_header_resumes(self, service):
        jid = service.submit(
            "replicate", {"seeds": [11]})["job"]["id"]
        list(service.watch_job(jid))  # run to completion
        status, _, raw = _raw(
            service, "GET", f"/v1/jobs/{jid}/events?format=jsonl",
            headers={"Last-Event-ID": "2",
                     "Accept": "application/x-ndjson"},
        )
        assert status == 200
        seqs = [json.loads(line)["seq"]
                for line in raw.decode().splitlines() if line.strip()]
        assert seqs and seqs[0] == 3

    def test_submit_job_stream_true(self, service):
        from repro.api import submit_job

        events = list(submit_job(
            "replicate", {"seeds": [21, 22]},
            url=service.base_url, stream=True,
        ))
        assert events[-1]["event"] == "state"
        assert events[-1]["state"] == "done"
        assert [e["done"] for e in events if e["event"] == "cell"] \
            == [1, 2]

    def test_events_unknown_job_404(self, service):
        with pytest.raises(JobNotFoundError) as excinfo:
            list(service.watch_job("j424242"))
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_job"


# -- worker crash mid-stream ----------------------------------------------


class TestChaosRetry:
    def test_mid_stream_worker_kill_retries_then_completes(self, tmp_path):
        seeds = list(range(12))
        factory = make_flaky_factory(tmp_path / "chaos", max_crashes=1)
        cache = RunCache(tmp_path / "store", runner_factory=factory)
        server = build_async_server(port=0, cache=cache, workers=2,
                                    max_retries=3, retry_backoff_s=0.01)
        serve_async(server)
        before = REGISTRY.counter("scheduler_retries_total").value
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_port}"
            )
            jid = client.submit(
                "replicate", {"seeds": seeds})["job"]["id"]
            events = list(client.watch_job(jid, timeout=60))
            retries = [e for e in events if e["event"] == "retry"]
            assert retries, "worker crash produced no retry event"
            # The retry event precedes the terminal done event.
            assert events[-1]["event"] == "state"
            assert events[-1]["state"] == "done"
            assert events.index(retries[0]) < len(events) - 1
            # KPIs are bit-identical to an undisturbed run.
            metrics = client.result(jid)["metrics"]
            assert metrics == [{"kpi": float(s)} for s in seeds]
        finally:
            server.shutdown()
            server.server_close()
        assert REGISTRY.counter("scheduler_retries_total").value \
            > before

    def test_corrupted_blobs_recompute_not_served(self, tmp_path):
        computed_on = []

        def recording_factory(scenario):
            computed_on.append(threading.current_thread().name)
            return quick_factory(scenario)

        cache = RunCache(tmp_path / "store",
                         runner_factory=recording_factory)
        server = build_async_server(port=0, cache=cache)
        serve_async(server)
        failures = REGISTRY.counter("store_blob_verify_failures_total")
        hits = REGISTRY.counter("cache_hits_total")
        misses = REGISTRY.counter("cache_misses_total")
        before = failures.value
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_port}"
            )
            params = {"seeds": [31, 32, 33]}
            jid = client.submit("replicate", params)["job"]["id"]
            client._await(jid, timeout=30)
            clean = client.result(jid)["metrics"]
            assert corrupt_blobs(tmp_path / "store") >= 3
            computed_on.clear()
            hits_before, misses_before = hits.value, misses.value
            jid = client.submit("replicate", params)["job"]["id"]
            client._await(jid, timeout=30)
            assert client.result(jid)["metrics"] == clean
            # The submit's inline attempt served nothing and computed
            # nothing: the dispatcher recomputed every forged cell.
            assert hits.value - hits_before == 0
            assert misses.value - misses_before == 3
            assert len(computed_on) == 3
            assert all(name.startswith("repro-dispatcher-")
                       for name in computed_on), computed_on
            states = [e["state"] for e in client.watch_job(jid)
                      if e["event"] == "state"]
            assert states == ["queued", "running", "done"]
        finally:
            server.shutdown()
            server.server_close()
        assert failures.value - before >= 3

    def test_shutdown_leaves_no_pool_workers(self, tmp_path):
        cache = RunCache(tmp_path / "store", runner_factory=quick_factory)
        server = build_async_server(port=0, cache=cache, workers=2)
        serve_async(server)
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_port}"
            )
            jid = client.submit(
                "replicate", {"seeds": [41, 42, 43]})["job"]["id"]
            client._await(jid, timeout=30)
            assert client.job(jid)["progress"]["cells_cached"] == 0
            # The pool outlives the job: it lives as long as the server.
            assert pool_worker_pids()
        finally:
            server.shutdown()
            server.server_close()
        assert pool_worker_pids() == []


# -- stored plans are answered inside the submit --------------------------


#: A stored 3-cell job's events (``ts`` and ``job_id`` dropped) and its
#: ``GET .../result`` body, as served before stored plans skipped the
#: queue.
STORED_JOB_EVENTS = [
    {"seq": 1, "event": "state", "state": "queued", "kind": "replicate"},
    {"seq": 2, "event": "state", "state": "running"},
    {"seq": 3, "event": "cell", "index": 0, "cached": True, "done": 1,
     "cached_count": 1, "total": 3, "attempt": 0},
    {"seq": 4, "event": "cell", "index": 1, "cached": True, "done": 2,
     "cached_count": 2, "total": 3, "attempt": 0},
    {"seq": 5, "event": "cell", "index": 2, "cached": True, "done": 3,
     "cached_count": 3, "total": 3, "attempt": 0},
    {"seq": 6, "event": "state", "state": "done", "error": None,
     "result_ready": True},
]
STORED_JOB_RESULT = (
    b'{"job_id": "j000001", "result": {"kind": "replicate", '
    b'"scenario": "megamart-hackathon", "seeds": [7, 8, 9], '
    b'"metrics": [{"kpi": 7.0}, {"kpi": 8.0}, {"kpi": 9.0}]}}'
)


class TestStoredPlans:
    def test_events_and_result_bytes_unchanged(self, service):
        params = {"seeds": [7, 8, 9]}
        service._await(service.submit("replicate", params)["job"]["id"],
                       timeout=30)
        submitted = service.submit("replicate", params)
        assert submitted["created"] is True
        assert submitted["job"]["state"] == "done"
        jid = submitted["job"]["id"]
        events = [{k: v for k, v in e.items() if k not in ("ts", "job_id")}
                  for e in service.watch_job(jid)]
        assert events == STORED_JOB_EVENTS
        status, _, body = _raw(service, "GET", f"/v1/jobs/{jid}/result")
        assert status == 200
        assert body == STORED_JOB_RESULT

    def test_answered_while_a_cold_job_holds_the_only_dispatcher(
            self, tmp_path):
        gate = threading.Event()

        def gated_factory(scenario):
            if scenario.seed >= 100:
                gate.wait(30)
            return quick_factory(scenario)

        cache = RunCache(tmp_path / "store", runner_factory=gated_factory)
        server = build_async_server(port=0, cache=cache, workers=1)
        serve_async(server)
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_port}"
            )
            stored = {"seeds": [1, 2]}
            client._await(client.submit("replicate", stored)["job"]["id"],
                          timeout=30)
            cold = client.submit("replicate", {"seeds": [100, 101]})["job"]
            deadline = time.monotonic() + 10
            while client.job(cold["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            status, _, raw = _raw(
                client, "POST", "/v1/jobs",
                headers={"Content-Type": "application/json"},
                body=json.dumps({"kind": "replicate",
                                 "params": stored}).encode(),
            )
            assert status == 201
            job = json.loads(raw)["job"]
            assert job["state"] == "done"
            assert client.result(job["id"])["metrics"] == [
                {"kpi": 1.0}, {"kpi": 2.0},
            ]
            assert client.job(cold["id"])["state"] == "running"
        finally:
            gate.set()
            server.shutdown()
            server.server_close()


# -- coalesced DELETE detaches, not cancels -------------------------------


class TestCoalescedDelete:
    def test_delete_with_second_waiter_detaches_only(
            self, slow_service):
        client = slow_service
        blocker = client.submit(
            "replicate", {"seeds": [90, 91, 92]})["job"]
        first = client.submit("replicate", {"seeds": [80, 81]})
        second = client.submit("replicate", {"seeds": [80, 81]})
        assert second["created"] is False
        assert second["job"]["id"] == first["job"]["id"]
        assert second["job"]["waiters"] == 2
        # First client detaches: shared computation must keep running.
        release = client.release(first["job"]["id"])
        assert release["detached"] is True
        assert release["job"]["state"] in ("queued", "running")
        assert release["job"]["waiters"] == 1
        # Second client still gets its result.
        final = client._await(first["job"]["id"], timeout=30)
        assert final["state"] == "done"
        assert client.result(first["job"]["id"])["metrics"] == [
            {"kpi": 80.0}, {"kpi": 81.0},
        ]
        # A detach event reached the stream.
        events = list(client.watch_job(first["job"]["id"]))
        assert any(e["event"] == "detach" and e["waiters"] == 1
                   for e in events)
        client._await(blocker["id"], timeout=30)

    def test_delete_last_waiter_cancels(self, slow_service):
        client = slow_service
        blocker = client.submit(
            "replicate", {"seeds": [93, 94, 95]})["job"]
        victim = client.submit("replicate", {"seeds": [85]})["job"]
        release = client.release(victim["id"])
        assert release["detached"] is False
        assert release["job"]["state"] == "cancelled"
        client._await(blocker["id"], timeout=30)


# -- v1 envelope, backpressure, pagination, negotiation -------------------


class TestV1Api:
    def test_error_envelope_shape_on_every_error(self, service):
        cases = [
            ("GET", "/v1/jobs/j424242", 404, "unknown_job"),
            ("GET", "/v1/nowhere", 404, "not_found"),
            ("DELETE", "/healthz", 405, "method_not_allowed"),
            ("GET", "/v1/jobs?state=bogus", 400, "bad_request"),
        ]
        for method, path, expected_status, expected_code in cases:
            status, _, raw = _raw(service, method, path)
            assert status == expected_status, (method, path)
            envelope = json.loads(raw)["error"]
            assert envelope["code"] == expected_code
            assert set(envelope) == {"code", "message", "detail"}

    def test_405_carries_allow_header(self, service):
        status, headers, _ = _raw(service, "DELETE", "/healthz")
        assert status == 405
        assert headers["Allow"] == "GET"

    def test_429_carries_retry_after(self, slow_service):
        client = slow_service
        blocker = client.submit(
            "replicate", {"seeds": list(range(8))})["job"]
        time.sleep(0.05)  # dispatcher picks the blocker up
        for seed in (60, 61):
            client.submit("replicate", {"seeds": [seed]})
        status, headers, raw = _raw(
            client, "POST", "/v1/jobs",
            headers={"Content-Type": "application/json"},
            body=json.dumps({"kind": "replicate",
                             "params": {"seeds": [64]}}).encode(),
        )
        assert status == 429
        assert headers["Retry-After"] == "1"
        envelope = json.loads(raw)["error"]
        assert envelope["code"] == "queue_full"
        assert envelope["detail"]["retry_after_s"] == 0.5
        with pytest.raises(BackpressureError) as excinfo:
            client.submit("replicate", {"seeds": [65]})
        assert excinfo.value.retry_after_s == 0.5
        client._await(blocker["id"], timeout=60)

    def test_submit_sets_location_header(self, service):
        status, headers, raw = _raw(
            service, "POST", "/v1/jobs",
            headers={"Content-Type": "application/json"},
            body=json.dumps({"kind": "replicate",
                             "params": {"seeds": [41]}}).encode(),
        )
        assert status == 201
        jid = json.loads(raw)["job"]["id"]
        assert headers["Location"] == f"/v1/jobs/{jid}"

    def test_jobs_list_filters_and_paginates(self, service):
        ids = []
        for seed in range(5):
            ids.append(service.submit(
                "replicate", {"seeds": [70 + seed]})["job"]["id"])
        for jid in ids:
            service._await(jid, timeout=30)
        page = service.jobs(state="done", limit=2)
        assert page["count"] == 2
        assert page["next_cursor"] == page["jobs"][-1]["id"]
        rest = service.jobs(state="done", limit=10,
                                  cursor=page["next_cursor"])
        assert rest["next_cursor"] is None
        walked = [j["id"] for j in service.iter_jobs(
            state="done", page_size=2)]
        assert walked == sorted(ids)
        assert service.jobs(state="failed")["jobs"] == []

    def test_accept_negotiation(self, service):
        jid = service.submit(
            "replicate", {"seeds": [75]})["job"]["id"]
        list(service.watch_job(jid))
        # Accept picks the stream format without ?format=.
        _, headers, _ = _raw(
            service, "GET", f"/v1/jobs/{jid}/events",
            headers={"Accept": "application/x-ndjson"},
        )
        assert headers["Content-Type"] == "application/x-ndjson"
        # JSON endpoints refuse an Accept that excludes JSON.
        status, _, raw = _raw(
            service, "GET", f"/v1/jobs/{jid}",
            headers={"Accept": "text/csv"},
        )
        assert status == 406
        assert json.loads(raw)["error"]["code"] == "not_acceptable"
        # And the stream endpoint refuses a JSON-only Accept.
        status, _, _ = _raw(
            service, "GET", f"/v1/jobs/{jid}/events",
            headers={"Accept": "application/json;q=1, */*;q=0"},
        )
        assert status == 406

    def test_typed_client_exceptions(self, slow_service):
        client = slow_service
        with pytest.raises(BadRequestError):
            client.submit("meditate", {})
        with pytest.raises(JobNotFoundError):
            client.job("j424242")
        jid = client.submit(
            "replicate", {"seeds": [77, 78]})["job"]["id"]
        with pytest.raises(JobNotReadyError):
            client.result(jid)
        client._await(jid, timeout=30)
        # All of them remain catchable as ServiceError with .status.
        try:
            client.job("j424242")
        except ServiceError as exc:
            assert exc.status == 404

    def test_wait_raises_job_failed(self, tmp_path):
        from test_service import always_crash_factory

        cache = RunCache(tmp_path / "store",
                         runner_factory=always_crash_factory)
        server = build_async_server(port=0, cache=cache, workers=2,
                                    max_retries=0, retry_backoff_s=0.01)
        serve_async(server)
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_port}"
            )
            jid = client.submit(
                "replicate", {"seeds": [0, 1]})["job"]["id"]
            with pytest.raises(JobFailedError, match="failed"):
                client._await(jid, timeout=30)
        finally:
            server.shutdown()
            server.server_close()


# -- scale: hundreds of concurrent keep-alive clients ---------------------


async def _keepalive_client(host, port, seed, results):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps({"kind": "replicate",
                           "params": {"seeds": [seed]}}).encode()
        writer.write(
            b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() +
            b"\r\n\r\n" + body
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        assert status == 201, head
        headers = {
            k.strip().lower(): v.strip()
            for k, _, v in (line.partition(":")
                            for line in head.decode().split("\r\n")[1:])
            if k
        }
        payload = json.loads(await reader.readexactly(
            int(headers["content-length"])))
        jid = payload["job"]["id"]
        # Same connection, second request: stream events (chunked).
        writer.write(
            f"GET /v1/jobs/{jid}/events?format=jsonl HTTP/1.1\r\n"
            f"Host: t\r\nAccept: application/x-ndjson\r\n\r\n".encode()
        )
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")
        buffer = b""
        events = []
        while True:
            size_line = await reader.readuntil(b"\r\n")
            size = int(size_line.strip(), 16)
            chunk = await reader.readexactly(size + 2)
            if size == 0:
                break
            buffer += chunk[:-2]
            while b"\n" in buffer:
                line, _, buffer = buffer.partition(b"\n")
                if line.strip():
                    events.append(json.loads(line))
        assert events[-1]["event"] == "state"
        assert events[-1]["state"] == "done"
        # Third request on the same connection proves keep-alive
        # survived the chunked stream.
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        assert b" 200 " in head.split(b"\r\n", 1)[0]
        length = int([line.partition(":")[2]
                      for line in head.decode().split("\r\n")
                      if line.lower().startswith("content-length")][0])
        await reader.readexactly(length)
        results.append(seed)
    finally:
        writer.close()


class TestConcurrency:
    CLIENTS = 500

    def test_500_concurrent_keepalive_clients(self, tmp_path):
        cache = RunCache(tmp_path / "store",
                         runner_factory=quick_factory)
        server = build_async_server(port=0, cache=cache,
                                    queue_depth=self.CLIENTS)
        serve_async(server)
        results = []
        try:
            async def fleet():
                await asyncio.gather(*(
                    _keepalive_client("127.0.0.1", server.server_port,
                                      seed, results)
                    for seed in range(self.CLIENTS)
                ))
            asyncio.run(fleet())
        finally:
            server.shutdown()
            server.server_close()
        assert len(results) == self.CLIENTS
        peak = REGISTRY.gauge("service_async_connections_open").value
        assert peak == 0  # every connection closed cleanly
