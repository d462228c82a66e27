"""End-to-end tests for the asyncio front end, event streaming, the
v1 error envelope and the chaos harness's failure paths."""

import asyncio
import json
import socket
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
from repro.service import (
    ServiceClient,
    build_async_server,
    build_server,
    serve,
    serve_async,
)
from repro.service.chaos import (
    corrupt_blobs,
    make_flaky_factory,
    pool_worker_pids,
)
from repro.store import RunCache

from test_service import quick_factory, sleepy_factory


@pytest.fixture
def async_service(tmp_path):
    """An asyncio-served scheduler over the instant fake runner."""
    cache = RunCache(tmp_path / "store", runner_factory=quick_factory)
    server = build_async_server(port=0, cache=cache, queue_depth=8,
                                retry_backoff_s=0.01)
    serve_async(server)
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.server_port}")
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def slow_async_service(tmp_path):
    cache = RunCache(tmp_path / "store", runner_factory=sleepy_factory)
    server = build_async_server(port=0, cache=cache, queue_depth=4,
                                retry_backoff_s=0.01)
    serve_async(server)
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.server_port}")
    finally:
        server.shutdown()
        server.server_close()


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
    def test_jsonl_events_arrive_in_completion_order(self, async_service):
        jid = async_service.submit(
            "replicate", {"seeds": [4, 5, 6]})["job"]["id"]
        events = list(async_service.watch_job(jid))
        seqs = [e["seq"] for e in events]
        assert seqs == list(range(1, len(seqs) + 1)), (
            f"seqs not contiguous-from-1: {seqs}"
        )
        states = [e["state"] for e in events if e["event"] == "state"]
        assert states == ["queued", "running", "done"]
        cell_done = [e["done"] for e in events if e["event"] == "cell"]
        assert cell_done == [1, 2, 3]  # completion order, no gaps
        assert events[-1]["event"] == "state"  # terminal event closes

    def test_sse_frames_match_jsonl_events(self, async_service):
        jid = async_service.submit(
            "replicate", {"seeds": [7, 8]})["job"]["id"]
        jsonl_events = list(async_service.watch_job(jid))
        status, headers, raw = _raw(
            async_service, "GET", f"/v1/jobs/{jid}/events",
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

    def test_stream_resumes_after_seq(self, async_service):
        jid = async_service.submit(
            "replicate", {"seeds": [9, 10]})["job"]["id"]
        full = list(async_service.watch_job(jid))
        resumed = list(async_service.watch_job(jid, after=2))
        assert resumed == full[2:]

    def test_last_event_id_header_resumes(self, async_service):
        jid = async_service.submit(
            "replicate", {"seeds": [11]})["job"]["id"]
        list(async_service.watch_job(jid))  # run to completion
        status, _, raw = _raw(
            async_service, "GET", f"/v1/jobs/{jid}/events?format=jsonl",
            headers={"Last-Event-ID": "2",
                     "Accept": "application/x-ndjson"},
        )
        assert status == 200
        seqs = [json.loads(line)["seq"]
                for line in raw.decode().splitlines() if line.strip()]
        assert seqs and seqs[0] == 3

    def test_submit_job_stream_true(self, async_service):
        from repro.api import submit_job

        events = list(submit_job(
            "replicate", {"seeds": [21, 22]},
            url=async_service.base_url, stream=True,
        ))
        assert events[-1]["event"] == "state"
        assert events[-1]["state"] == "done"
        assert [e["done"] for e in events if e["event"] == "cell"] \
            == [1, 2]

    def test_events_unknown_job_404(self, async_service):
        with pytest.raises(JobNotFoundError) as excinfo:
            list(async_service.watch_job("j424242"))
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
        cache = RunCache(tmp_path / "store", runner_factory=quick_factory)
        server = build_async_server(port=0, cache=cache)
        serve_async(server)
        failures = REGISTRY.counter("store_blob_verify_failures_total")
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
            jid = client.submit("replicate", params)["job"]["id"]
            client._await(jid, timeout=30)
            assert client.result(jid)["metrics"] == clean
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


# -- coalesced DELETE detaches, not cancels -------------------------------


class TestCoalescedDelete:
    def test_delete_with_second_waiter_detaches_only(
            self, slow_async_service):
        client = slow_async_service
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

    def test_delete_last_waiter_cancels(self, slow_async_service):
        client = slow_async_service
        blocker = client.submit(
            "replicate", {"seeds": [93, 94, 95]})["job"]
        victim = client.submit("replicate", {"seeds": [85]})["job"]
        release = client.release(victim["id"])
        assert release["detached"] is False
        assert release["job"]["state"] == "cancelled"
        client._await(blocker["id"], timeout=30)


# -- v1 envelope, backpressure, pagination, negotiation -------------------


class TestV1Api:
    def test_error_envelope_shape_on_every_error(self, async_service):
        cases = [
            ("GET", "/v1/jobs/j424242", 404, "unknown_job"),
            ("GET", "/v1/nowhere", 404, "not_found"),
            ("DELETE", "/healthz", 405, "method_not_allowed"),
            ("GET", "/v1/jobs?state=bogus", 400, "bad_request"),
        ]
        for method, path, expected_status, expected_code in cases:
            status, _, raw = _raw(async_service, method, path)
            assert status == expected_status, (method, path)
            envelope = json.loads(raw)["error"]
            assert envelope["code"] == expected_code
            assert set(envelope) == {"code", "message", "detail"}

    def test_405_carries_allow_header(self, async_service):
        status, headers, _ = _raw(async_service, "DELETE", "/healthz")
        assert status == 405
        assert headers["Allow"] == "GET"

    def test_429_carries_retry_after(self, slow_async_service):
        client = slow_async_service
        blocker = client.submit(
            "replicate", {"seeds": list(range(8))})["job"]
        time.sleep(0.05)  # dispatcher picks the blocker up
        for seed in (60, 61, 62, 63):
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

    def test_submit_sets_location_header(self, async_service):
        status, headers, raw = _raw(
            async_service, "POST", "/v1/jobs",
            headers={"Content-Type": "application/json"},
            body=json.dumps({"kind": "replicate",
                             "params": {"seeds": [41]}}).encode(),
        )
        assert status == 201
        jid = json.loads(raw)["job"]["id"]
        assert headers["Location"] == f"/v1/jobs/{jid}"

    def test_jobs_list_filters_and_paginates(self, async_service):
        ids = []
        for seed in range(5):
            ids.append(async_service.submit(
                "replicate", {"seeds": [70 + seed]})["job"]["id"])
        for jid in ids:
            async_service._await(jid, timeout=30)
        page = async_service.jobs(state="done", limit=2)
        assert page["count"] == 2
        assert page["next_cursor"] == page["jobs"][-1]["id"]
        rest = async_service.jobs(state="done", limit=10,
                                  cursor=page["next_cursor"])
        assert rest["next_cursor"] is None
        walked = [j["id"] for j in async_service.iter_jobs(
            state="done", page_size=2)]
        assert walked == sorted(ids)
        assert async_service.jobs(state="failed")["jobs"] == []

    def test_accept_negotiation(self, async_service):
        jid = async_service.submit(
            "replicate", {"seeds": [75]})["job"]["id"]
        list(async_service.watch_job(jid))
        # Accept picks the stream format without ?format=.
        _, headers, _ = _raw(
            async_service, "GET", f"/v1/jobs/{jid}/events",
            headers={"Accept": "application/x-ndjson"},
        )
        assert headers["Content-Type"] == "application/x-ndjson"
        # JSON endpoints refuse an Accept that excludes JSON.
        status, _, raw = _raw(
            async_service, "GET", f"/v1/jobs/{jid}",
            headers={"Accept": "text/csv"},
        )
        assert status == 406
        assert json.loads(raw)["error"]["code"] == "not_acceptable"
        # And the stream endpoint refuses a JSON-only Accept.
        status, _, _ = _raw(
            async_service, "GET", f"/v1/jobs/{jid}/events",
            headers={"Accept": "application/json;q=1, */*;q=0"},
        )
        assert status == 406

    def test_typed_client_exceptions(self, slow_async_service):
        client = slow_async_service
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

    @pytest.mark.parametrize("framing", [
        b"Transfer-Encoding: chunked\r\n",
        b"Transfer-Encoding: chunked\r\nContent-Length: 5\r\n",
    ], ids=["chunked", "chunked-and-length"])
    def test_chunked_body_gets_one_400_then_close(self, async_service,
                                                  framing):
        """A Transfer-Encoding body is refused once; its chunk bytes are
        never parsed as a second request on the same connection."""
        port = int(async_service.base_url.rsplit(":", 1)[1])
        body = json.dumps({"kind": "replicate",
                           "params": {"seeds": [80]}}).encode()
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Type: application/json\r\n"
                         + framing + b"\r\n" + chunked)
            received = b""
            while True:
                try:
                    data = sock.recv(65536)
                except ConnectionResetError:  # closed with bytes unread
                    break
                if not data:  # the server closed the connection
                    break
                received += data
        assert received.count(b"HTTP/1.1 ") == 1, received
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(payload)["error"]["code"] == "bad_request"
        assert async_service.jobs()["jobs"] == []


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


# -- transport equivalence ------------------------------------------------


class TestTransportEquivalence:
    def test_async_and_legacy_serve_identical_payloads(self, tmp_path):
        """Both transports, same store: byte-identical KPI payloads."""
        params = {"seeds": [1, 2, 3, 4]}
        results = {}
        for name, build, start in (
            ("legacy", build_server, serve),
            ("async", build_async_server, serve_async),
        ):
            cache = RunCache(tmp_path / f"store-{name}",
                             runner_factory=quick_factory)
            server = build(port=0, cache=cache)
            start(server)
            try:
                client = ServiceClient(
                    f"http://127.0.0.1:{server.server_port}"
                )
                jid = client.submit(
                    "replicate", params)["job"]["id"]
                client._await(jid, timeout=30)
                results[name] = json.dumps(
                    client.result(jid), sort_keys=True
                )
            finally:
                server.shutdown()
                server.server_close()
        assert results["legacy"] == results["async"]

    def test_legacy_server_streams_events_too(self, tmp_path):
        cache = RunCache(tmp_path / "store",
                         runner_factory=quick_factory)
        server = build_server(port=0, cache=cache)
        serve(server)
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_port}"
            )
            jid = client.submit(
                "replicate", {"seeds": [51, 52]})["job"]["id"]
            events = list(client.watch_job(jid, timeout=30))
            assert [e["seq"] for e in events] \
                == list(range(1, len(events) + 1))
            assert events[-1]["state"] == "done"
        finally:
            server.shutdown()
            server.server_close()
