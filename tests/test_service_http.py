"""End-to-end tests for the HTTP serving layer (server + client)."""

import json
import logging
import resource
import socket
import time
import urllib.request

import pytest

from repro.errors import ReproError, ServiceError
from repro.service import ServiceClient, build_async_server, serve_async
from repro.simulation import (
    baseline_timeline,
    compare_scenarios,
    megamart_timeline,
)
from repro.store import RunCache


class TestLifecycle:
    def test_healthz(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert "queued" in health["jobs"]

    def test_submit_poll_result(self, service):
        response = service.submit("replicate", {"seeds": [3, 4]})
        assert response["created"] is True
        job = service._await(response["job"]["id"], timeout=15)
        assert job["state"] == "done"
        assert job["progress"]["cells_done"] == 2
        result = service.result(job["id"])
        assert result["metrics"] == [{"kpi": 3.0}, {"kpi": 4.0}]

    def test_result_before_done_is_409(self, slow_service):
        job = slow_service.submit(
            "replicate", {"seeds": list(range(6))}
        )["job"]
        with pytest.raises(ServiceError) as excinfo:
            slow_service.result(job["id"])
        assert excinfo.value.status == 409
        slow_service._await(job["id"], timeout=30)

    def test_unknown_job_is_404(self, service):
        for call in (service.job, service.result, service.cancel):
            with pytest.raises(ServiceError) as excinfo:
                call("j424242")
            assert excinfo.value.status == 404

    def test_bad_requests_are_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit("meditate", {})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            service.submit("compare", {"seeds": -3})
        assert excinfo.value.status == 400
        # A huge plan is refused before any of its cells is built.
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            service.submit("replicate", {"seeds": 1000000000})
        assert time.monotonic() - start < 1.0
        assert excinfo.value.status == 400
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            - rss_kb < 50 * 1024

    @pytest.mark.parametrize("body", [
        b'{"kind": "sweep", "params": {"values": 5}}',
        b'{"kind": "sweep", "params": {"parameter": ["x"]}}',
        b'{"kind": "sweep", "params": {"values": [1' + b"0" * 400
        + b'], "seeds": 1}}',
        b'{"kind": "replicate", "params": {"scenario": '
        b'{"plenaries": [{"kind": 3}]}}}',
        b'{"kind": "replicate", "params": {"scenario": {"plenaries": '
        b'[{"name": "X", "month": "a", "kind": "hackathon"}]}}}',
        b'{"kind": "replicate", "params": {"scenario": {"plenaries": '
        b'[{"name": "X", "month": 0, "kind": "hackathon"}], '
        b'"per_owner_challenges": "x"}}}',
        b"[" * 50000,
        b'{"kind": "sweep", "params": {"parameter": "cadence", '
        b'"values": [NaN]}}',
        b'{"kind": "sweep", "params": {"parameter": "cadence", '
        b'"values": [Infinity]}}',
        b'{"kind": "sweep", "params": {"parameter": "cadence", '
        b'"values": [1e308]}}',
        b'{"kind": "sweep", "params": {"parameter": "session-hours", '
        b'"values": [1e6]}}',
    ], ids=["values-not-list", "parameter-not-str", "value-overflows",
            "plenary-kind-only", "month-not-number", "field-not-int",
            "nested-json", "nan", "infinity", "cadence-unbounded",
            "session-hours-unbounded"])
    def test_hostile_body_gets_one_400(self, service, body, caplog):
        received = _send_raw(service, body)
        _assert_one_400(received)
        assert not [r for r in caplog.records
                    if r.levelno >= logging.ERROR], caplog.text

    @pytest.mark.parametrize("length", [b"1_0", b"+10", b"-1", b" ",
                                        "\u0661".encode(), b"9" * 5000])
    def test_non_digit_content_length_gets_one_400(self, service, length,
                                                   caplog):
        # int() reads "1_0" and "+10" as 10, which would frame this
        # request and answer 200.
        received = _send_raw(service, b"x" * 10, length=length,
                             request_line=b"GET /healthz")
        _assert_one_400(received)
        assert not [r for r in caplog.records
                    if r.levelno >= logging.ERROR], caplog.text

    def test_unknown_endpoint_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._request("GET", "/v2/everything")
        assert excinfo.value.status == 404

    def test_malformed_json_body_is_400(self, service):
        request = urllib.request.Request(
            service.base_url + "/v1/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("framing", [
        b"Transfer-Encoding: chunked\r\n",
        b"Transfer-Encoding: chunked\r\nContent-Length: 5\r\n",
    ], ids=["chunked", "chunked-and-length"])
    def test_chunked_body_gets_one_400_then_close(self, service, framing):
        """A Transfer-Encoding body is refused once; its chunk bytes are
        never parsed as a second request on the same connection."""
        port = int(service.base_url.rsplit(":", 1)[1])
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
        assert received.count(b"HTTP/1.") == 1, received
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(payload)["error"]["code"] == "bad_request"
        assert service.jobs()["jobs"] == []

    def test_cache_stats_endpoint(self, service):
        job = service.submit("replicate", {"seeds": [7]})["job"]
        service._await(job["id"], timeout=15)
        stats = service.cache_stats()
        assert stats["runs"] >= 1
        assert stats["session_misses"] >= 1


def _port(client):
    return int(client.base_url.rsplit(":", 1)[1])


def _send_raw(client, body, length=None, request_line=b"POST /v1/jobs"):
    """One request with ``body`` on its own connection; bytes received."""
    length = str(len(body)).encode() if length is None else length
    with socket.create_connection(("127.0.0.1", _port(client)),
                                  timeout=10) as sock:
        sock.sendall(request_line + b" HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Connection: close\r\nContent-Length: " + length
                     + b"\r\n\r\n" + body)
        received = b""
        while True:
            try:
                data = sock.recv(65536)
            except ConnectionResetError:  # closed with bytes unread
                break
            if not data:
                break
            received += data
    return received


def _assert_one_400(received):
    assert received.count(b"HTTP/1.") == 1, received
    head, _, payload = received.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(payload)["error"]["code"] == "bad_request"


def _read_until(sock, done):
    received = b""
    while not done(received):
        data = sock.recv(65536)
        if not data:
            break
        received += data
    return received


class TestWireBytes:
    """What clients parse, pinned byte for byte at the socket."""

    def test_json_response_bytes(self, service):
        body = (b'{"error": {"code": "method_not_allowed", "message": '
                b'"method DELETE not allowed here", "detail": '
                b'{"allowed": ["GET"]}}}')
        expected = (b"HTTP/1.1 405 Method Not Allowed\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n"
                    b"Allow: GET\r\n"
                    b"Connection: keep-alive\r\n\r\n" % len(body)) + body
        with socket.create_connection(("127.0.0.1", _port(service)),
                                      timeout=10) as sock:
            for _ in range(2):  # the connection stays usable
                sock.sendall(b"DELETE /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                received = _read_until(
                    sock, lambda got: len(got) >= len(expected))
                assert received == expected

    def test_jsonl_stream_one_chunk_per_event(self, service):
        job = service.submit("replicate", {"seeds": [3, 4]})["job"]
        service._await(job["id"], timeout=15)
        with socket.create_connection(("127.0.0.1", _port(service)),
                                      timeout=10) as sock:
            sock.sendall(b"GET /v1/jobs/%s/events HTTP/1.1\r\nHost: x\r\n"
                         b"Accept: application/x-ndjson\r\n\r\n"
                         % job["id"].encode())
            received = _read_until(
                sock, lambda got: got.endswith(b"\r\n0\r\n\r\n"))
        head, _, rest = received.partition(b"\r\n\r\n")
        assert head == (b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/x-ndjson\r\n"
                        b"Cache-Control: no-cache\r\n"
                        b"Transfer-Encoding: chunked\r\n"
                        b"Connection: keep-alive")
        events = []
        while True:
            size, _, rest = rest.partition(b"\r\n")
            length = int(size, 16)
            chunk, rest = rest[:length], rest[length:]
            assert rest[:2] == b"\r\n"
            rest = rest[2:]
            if not length:
                break
            assert chunk.endswith(b"\n") and chunk.count(b"\n") == 1
            events.append(json.loads(chunk))
        assert rest == b""
        assert [e["seq"] for e in events] == [1, 2, 3, 4, 5]
        assert [e["event"] for e in events] == \
            ["state", "state", "cell", "cell", "state"]
        assert events[-1]["state"] == "done"


class TestServingSemantics:
    def test_duplicate_submissions_coalesce(self, slow_service):
        blocker = slow_service.submit(
            "replicate", {"seeds": [0, 1, 2]}
        )["job"]
        first = slow_service.submit("replicate", {"seeds": [50, 51]})
        dupe = slow_service.submit("replicate", {"seeds": [50, 51]})
        assert first["created"] is True
        assert dupe["created"] is False
        assert dupe["job"]["id"] == first["job"]["id"]
        assert dupe["job"]["coalesced"] == 1
        final = slow_service._await(first["job"]["id"], timeout=30)
        assert final["state"] == "done"
        slow_service._await(blocker["id"], timeout=30)

    def test_full_queue_yields_429(self, slow_service):
        blocker = slow_service.submit(
            "replicate", {"seeds": list(range(8))}
        )["job"]
        time.sleep(0.05)  # dispatcher picks the blocker up
        slow_service.submit("replicate", {"seeds": [60]})
        slow_service.submit("replicate", {"seeds": [61]})
        with pytest.raises(ServiceError) as excinfo:
            slow_service.submit("replicate", {"seeds": [62]})
        assert excinfo.value.status == 429
        slow_service._await(blocker["id"], timeout=30)

    def test_cancel_over_http(self, slow_service):
        blocker = slow_service.submit(
            "replicate", {"seeds": [0, 1, 2]}
        )["job"]
        victim = slow_service.submit("replicate", {"seeds": [70]})["job"]
        cancelled = slow_service.cancel(victim["id"])
        assert cancelled["state"] == "cancelled"
        final = slow_service._await(victim["id"], timeout=10)
        assert final["state"] == "cancelled"
        slow_service._await(blocker["id"], timeout=30)

    def test_wait_raises_on_failed_job(self, tmp_path):
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
            job = client.submit("replicate", {"seeds": [0, 1]})["job"]
            with pytest.raises(ReproError, match="failed"):
                client._await(job["id"], timeout=30)
        finally:
            server.shutdown()
            server.server_close()


class TestBitIdentical:
    def test_http_compare_matches_in_process(self, tmp_path):
        """The acceptance criterion: HTTP KPIs == in-process KPIs."""
        cache = RunCache(tmp_path / "store")  # real simulator
        server = build_async_server(port=0, cache=cache)
        serve_async(server)
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_port}"
            )
            over_http = client.compare(
                "hackathon", "traditional", seeds=1, timeout=120
            )
            in_process = compare_scenarios(
                megamart_timeline(), baseline_timeline(), seeds=[0]
            )
            assert over_http.metrics_a == in_process.metrics_a
            assert over_http.metrics_b == in_process.metrics_b
            # and the rebuilt result supports the full comparison API
            for comparison in over_http.all_comparisons():
                assert comparison.metric
        finally:
            server.shutdown()
            server.server_close()

    def test_http_sweep_round_trips(self, service):
        sweep = service.sweep(
            "cadence", values=[1.0, 2.0], seeds=2, timeout=60
        )
        assert sweep.labels() == ["every 1 months", "every 2 months"]
        assert sweep.points[0].metrics == [{"kpi": 0.0}, {"kpi": 1.0}]

    def test_inline_scenario_over_http(self, service):
        job = service.submit("replicate", {
            "scenario": {
                "name": "inline-http",
                "plenaries": [
                    {"name": "Rome", "month": 0.0,
                     "kind": "traditional"},
                    {"name": "Oslo", "month": 4.0, "kind": "hackathon"},
                ],
            },
            "seeds": [11],
        })["job"]
        service._await(job["id"], timeout=15)
        result = service.result(job["id"])
        assert result["scenario"] == "inline-http"
        assert result["metrics"] == [{"kpi": 11.0}]
