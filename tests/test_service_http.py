"""End-to-end tests for the HTTP serving layer (server + client)."""

import json
import time
import urllib.request

import pytest

from repro.errors import ReproError, ServiceError
from repro.service import ServiceClient, build_server, serve
from repro.simulation import (
    baseline_timeline,
    compare_scenarios,
    megamart_timeline,
)
from repro.store import RunCache

from test_service import quick_factory, sleepy_factory


@pytest.fixture
def service(tmp_path):
    """A served scheduler over the fast fake runner; yields a client."""
    cache = RunCache(tmp_path / "store", runner_factory=quick_factory)
    server = build_server(port=0, cache=cache, queue_depth=8,
                          retry_backoff_s=0.01)
    serve(server)
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.server_port}")
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def slow_service(tmp_path):
    cache = RunCache(tmp_path / "store", runner_factory=sleepy_factory)
    server = build_server(port=0, cache=cache, queue_depth=2,
                          retry_backoff_s=0.01)
    serve(server)
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.server_port}")
    finally:
        server.shutdown()
        server.server_close()


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

    def test_cache_stats_endpoint(self, service):
        job = service.submit("replicate", {"seeds": [7]})["job"]
        service._await(job["id"], timeout=15)
        stats = service.cache_stats()
        assert stats["runs"] >= 1
        assert stats["session_misses"] >= 1


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
        server = build_server(port=0, cache=cache, workers=2,
                              max_retries=0, retry_backoff_s=0.01)
        serve(server)
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
        server = build_server(port=0, cache=cache)
        serve(server)
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
