"""LOAD/CHAOS — flood the asyncio front end, then break things on
purpose.

Not a paper artefact: this harness prices and *proves* the serving
stack's resilience claims.  Four phases:

1. **Flood** — N asyncio clients (default 1000), each holding its own
   keep-alive connection, submit unique single-cell jobs and stream
   their SSE-equivalent JSONL events to completion.  429 answers are
   retried after the server's ``Retry-After`` — backpressure is part
   of the protocol, not a failure.  Records sustained HTTP RPS,
   submit round-trip p50/p99 and end-to-end job latency.
2. **Streamed vs polled** — the same job watched two ways; records
   how much sooner the event stream reports completion than a 50 ms
   poll loop.
3. **Worker crash** — a 20-seed job whose pool workers ``os._exit``
   twice mid-plan (deterministic O_EXCL crash tokens); asserts the
   retry path fires (``scheduler_retries_total``), a ``retry`` event
   reaches the stream, and the finished KPIs are bit-identical to an
   undisturbed run.
4. **Blob corruption** — every stored object is overwritten with
   valid gzip of forged content; asserts hash verification counts
   every read as a failure and the job *recomputes* to correct KPIs
   instead of serving the forgery.

Run standalone (``python benchmarks/bench_load.py --clients 1000
--record``) or from CI with a smaller fleet and a p99 ceiling
(``--clients 200 --p99-ms 2000``).  ``--record`` appends the numbers
to ``BENCH_perf.json``.
"""

import argparse
import asyncio
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.obs import REGISTRY
from repro.service import ServiceClient, build_async_server, serve_async
from repro.service.chaos import (
    WorkerKiller,
    corrupt_blobs,
    fast_factory,
    make_flaky_factory,
)
from repro.service.jobs import TERMINAL_STATES
from repro.store import RunCache

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


# -- minimal asyncio HTTP/1.1 client (keep-alive + chunked) ---------------


async def _read_headers(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return status, headers


async def _request(reader, writer, method, path, payload=None):
    """One keep-alive request; returns (status, headers, json body)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: bench\r\nAccept: application/json\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    status, headers = await _read_headers(reader)
    length = int(headers.get("content-length", "0"))
    raw = await reader.readexactly(length) if length else b""
    return status, headers, json.loads(raw) if raw else {}


async def _stream_events(reader, writer, job_id, after=0):
    """Consume a chunked JSONL event stream; returns the event list."""
    writer.write(
        f"GET /v1/jobs/{job_id}/events?format=jsonl&after={after} "
        f"HTTP/1.1\r\nHost: bench\r\n"
        f"Accept: application/x-ndjson\r\n\r\n".encode()
    )
    await writer.drain()
    status, headers = await _read_headers(reader)
    assert status == 200, f"events stream answered {status}"
    assert headers.get("transfer-encoding") == "chunked", headers
    events, buffer = [], b""
    while True:
        size_line = await reader.readuntil(b"\r\n")
        size = int(size_line.strip(), 16)
        chunk = await reader.readexactly(size + 2)  # payload + CRLF
        if size == 0:
            break
        buffer += chunk[:-2]
        while b"\n" in buffer:
            line, _, buffer = buffer.partition(b"\n")
            if line.strip():
                events.append(json.loads(line))
    return events


# -- phase 1: flood -------------------------------------------------------


async def _flood_client(host, port, seed, stats):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        t_submit = time.perf_counter()
        while True:
            status, headers, body = await _request(
                reader, writer, "POST", "/v1/jobs",
                {"kind": "replicate", "params": {"seeds": [seed]}},
            )
            stats["requests"] += 1
            if status == 429:
                stats["backpressured"] += 1
                retry_after = float(headers.get("retry-after", "1"))
                await asyncio.sleep(retry_after * 0.5)
                t_submit = time.perf_counter()
                continue
            assert status == 201, (status, body)
            break
        stats["submit_rtt"].append(time.perf_counter() - t_submit)
        job_id = body["job"]["id"]
        events = await _stream_events(reader, writer, job_id)
        stats["requests"] += 1
        terminal = events[-1]
        assert terminal["event"] == "state", terminal
        assert terminal["state"] == "done", terminal
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(set(seqs)), f"event seqs not unique: {seqs}"
        stats["job_latency"].append(time.perf_counter() - t_submit)
        stats["completed"] += 1
    finally:
        writer.close()


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def run_flood(clients=1000, queue_depth=256):
    """Phase 1: ``clients`` concurrent submit+stream lifecycles."""
    tmp = tempfile.mkdtemp(prefix="repro-load-")
    cache = RunCache(Path(tmp) / "store", runner_factory=fast_factory)
    server = build_async_server(port=0, cache=cache,
                                queue_depth=queue_depth)
    serve_async(server)
    stats = {"requests": 0, "backpressured": 0, "completed": 0,
             "submit_rtt": [], "job_latency": []}
    try:
        async def fleet():
            await asyncio.gather(*(
                _flood_client("127.0.0.1", server.server_port, i, stats)
                for i in range(clients)
            ))
        t0 = time.perf_counter()
        asyncio.run(fleet())
        elapsed = time.perf_counter() - t0
    finally:
        server.shutdown()
        server.server_close()
        shutil.rmtree(tmp, ignore_errors=True)
    assert stats["completed"] == clients, (
        f"only {stats['completed']}/{clients} jobs completed"
    )
    return {
        "load_clients": clients,
        "load_wall_s": round(elapsed, 3),
        "load_rps": round(stats["requests"] / elapsed, 1),
        "load_backpressured_submits": stats["backpressured"],
        "load_submit_rtt_p50_ms": round(
            _percentile(stats["submit_rtt"], 0.50) * 1000, 2),
        "load_submit_rtt_p99_ms": round(
            _percentile(stats["submit_rtt"], 0.99) * 1000, 2),
        "load_job_done_p50_ms": round(
            _percentile(stats["job_latency"], 0.50) * 1000, 2),
        "load_job_done_p99_ms": round(
            _percentile(stats["job_latency"], 0.99) * 1000, 2),
    }


# -- phase 2: streamed vs polled ------------------------------------------


def run_stream_vs_poll(jobs=12, cell_delay=0.075, poll_interval=0.2):
    """Phase 2: completion-notice latency, streamed vs 200 ms polling.

    The poll interval models a considerate remote client (sub-100 ms
    polling of a shared service is exactly the idiom event streams
    replace): the polled arm re-fetches the job snapshot every
    ``poll_interval`` until it is terminal.  The stream pays no such
    quantization — it is woken by the terminal event itself.
    """
    import functools

    tmp = tempfile.mkdtemp(prefix="repro-svp-")
    factory = functools.partial(fast_factory, delay=cell_delay)
    cache = RunCache(Path(tmp) / "store", runner_factory=factory)
    server = build_async_server(port=0, cache=cache, queue_depth=64)
    serve_async(server)
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
        streamed, polled = [], []
        for i in range(jobs):
            # Distinct seeds per job and per mode: no cache hits, no
            # coalescing — both modes pay the same compute.
            jid = client.submit(
                "replicate", {"seeds": [1000 + i]})["job"]["id"]
            t0 = time.perf_counter()
            client._await(jid, timeout=30)
            streamed.append(time.perf_counter() - t0)
            jid = client.submit(
                "replicate", {"seeds": [2000 + i]})["job"]["id"]
            t0 = time.perf_counter()
            deadline = t0 + 30
            while client.job(jid)["state"] not in TERMINAL_STATES:
                if time.perf_counter() >= deadline:
                    raise RuntimeError(f"job {jid} not done after 30s")
                time.sleep(poll_interval)
            polled.append(time.perf_counter() - t0)
    finally:
        server.shutdown()
        server.server_close()
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "notice_streamed_p50_ms": round(
            _percentile(streamed, 0.5) * 1000, 2),
        "notice_polled_p50_ms": round(
            _percentile(polled, 0.5) * 1000, 2),
    }


# -- phase 3: worker crashes ----------------------------------------------


def run_worker_crash(seeds=20, crashes=2, external_kill=False):
    """Phase 3: kill workers mid-job; the job must still finish right.

    ``external_kill=False`` crashes from the *inside* (``crashes``
    deterministic ``os._exit`` tokens); ``external_kill=True`` crashes
    from the *outside* only — no tokens, one SIGKILL from
    :class:`WorkerKiller` — so each mechanism is proven on its own.
    """
    if external_kill:
        crashes = 0
    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    factory = make_flaky_factory(tmp / "crash", max_crashes=crashes,
                                 delay=0.05 if external_kill else 0.0)
    cache = RunCache(tmp / "store", runner_factory=factory)
    server = build_async_server(port=0, cache=cache, workers=2,
                                max_retries=crashes + 2,
                                retry_backoff_s=0.02)
    serve_async(server)
    retries_before = REGISTRY.counter("scheduler_retries_total").value
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
        jid = client.submit(
            "replicate", {"seeds": list(range(seeds))})["job"]["id"]
        killer = WorkerKiller(interval_s=0.05, max_kills=1) \
            if external_kill else None
        if killer:
            killer.start()
        events = list(client.watch_job(jid, timeout=120))
        if killer:
            killer.stop()
            assert killer.kills >= 1, "WorkerKiller found no victim"
        terminal = events[-1]
        assert terminal["state"] == "done", f"job ended {terminal}"
        retry_events = [e for e in events if e["event"] == "retry"]
        assert retry_events, "no retry event despite injected crashes"
        metrics = client.result(jid)["metrics"]
        # Bit-identical to an undisturbed run of the same fake runner.
        assert metrics == [{"kpi": float(s)} for s in range(seeds)], \
            metrics
    finally:
        server.shutdown()
        server.server_close()
        shutil.rmtree(tmp, ignore_errors=True)
    retries = REGISTRY.counter("scheduler_retries_total").value \
        - retries_before
    assert retries >= 1, "scheduler_retries_total did not move"
    return {
        "chaos_injected_crashes": crashes,
        "chaos_scheduler_retries": int(retries),
        "chaos_retry_events_streamed": len(retry_events),
    }


# -- phase 4: blob corruption ---------------------------------------------


def run_corruption(seeds=8):
    """Phase 4: forge every stored blob; reads must verify-and-miss."""
    tmp = Path(tempfile.mkdtemp(prefix="repro-corrupt-"))
    cache = RunCache(tmp / "store", runner_factory=fast_factory)
    server = build_async_server(port=0, cache=cache, queue_depth=16)
    serve_async(server)
    failures_counter = REGISTRY.counter("store_blob_verify_failures_total")
    failures_before = failures_counter.value
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
        params = {"seeds": [5000 + s for s in range(seeds)]}
        jid = client.submit("replicate", params)["job"]["id"]
        client._await(jid, timeout=60)
        clean = client.result(jid)["metrics"]
        corrupted = corrupt_blobs(tmp / "store")
        assert corrupted >= seeds, f"corrupted only {corrupted} blobs"
        jid = client.submit("replicate", params)["job"]["id"]
        client._await(jid, timeout=60)
        recomputed = client.result(jid)["metrics"]
        assert recomputed == clean, (
            f"corrupted store changed results: {recomputed} != {clean}"
        )
    finally:
        server.shutdown()
        server.server_close()
        shutil.rmtree(tmp, ignore_errors=True)
    failures = failures_counter.value - failures_before
    assert failures >= seeds, (
        f"only {failures} verify failures for {seeds} forged cells"
    )
    return {
        "chaos_blobs_corrupted": corrupted,
        "chaos_verify_failures": int(failures),
    }


# -- driver ---------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--clients", type=int, default=1000,
                        help="concurrent flood clients (default 1000)")
    parser.add_argument("--queue-depth", type=int, default=256)
    parser.add_argument("--p99-ms", type=float, default=None,
                        help="fail if submit-RTT p99 exceeds this")
    parser.add_argument("--skip-chaos", action="store_true",
                        help="run only the flood phase")
    parser.add_argument("--record", action="store_true",
                        help="append results to BENCH_perf.json")
    args = parser.parse_args(argv)

    results = {}
    print(f"flood: {args.clients} concurrent clients ...", flush=True)
    results.update(run_flood(args.clients, args.queue_depth))
    print(json.dumps(results, indent=2))

    if not args.skip_chaos:
        print("streamed vs polled ...", flush=True)
        results.update(run_stream_vs_poll())
        print("worker crash (in-process exit) ...", flush=True)
        results.update(run_worker_crash())
        print("worker crash (external SIGKILL) ...", flush=True)
        kill = run_worker_crash(external_kill=True)
        results["chaos_external_kill_retries"] = \
            kill["chaos_scheduler_retries"]
        print("blob corruption ...", flush=True)
        results.update(run_corruption())
        print(json.dumps(results, indent=2))

    if args.p99_ms is not None:
        p99 = results["load_submit_rtt_p99_ms"]
        if p99 > args.p99_ms:
            print(f"FAIL: submit RTT p99 {p99:.1f}ms > "
                  f"ceiling {args.p99_ms:.1f}ms", file=sys.stderr)
            return 1
        print(f"p99 ok: {p99:.1f}ms <= {args.p99_ms:.1f}ms")

    if args.record:
        history = json.loads(OUTPUT.read_text()) if OUTPUT.exists() \
            else []
        history.append(results)
        OUTPUT.write_text(json.dumps(history, indent=2) + "\n")
        print(f"recorded to {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
