"""The three workloads: set-up, timed closed loops, checks and layers.

``cold_replicate`` calls ``repro.api.replicate`` in-process; the other
two drive an in-process ``build_async_server`` stack through
``client.Connection``.  Every simulation seed is derived from the
workload seed, and every run uses a fresh temporary store that is
removed before the run ends.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import random
import resource
import shutil
import socket
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.api as api
import repro.service.scheduler as scheduler_module
from repro.obs import REGISTRY, TRACER
from repro.service import build_async_server, resolve_scenario, serve_async
from repro.service.wire import StreamHandle
from repro.simulation.experiment import replicate as replicate_histories

from check import (
    Cells,
    cells_of,
    cells_of_replicate,
    compare_payload,
)
from client import Connection, HTTPError, parse_prometheus, scrape
from layers import (
    SIM_PHASES,
    Probes,
    delta,
    labelled_deltas,
    ratio,
    span_self_seconds,
    summarize,
)

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: A single operation slower than this counts as failed.
OP_TIMEOUT_S = 60.0
#: A timed phase still running this long after ``--seconds`` is cut.
PHASE_GRACE_S = 60.0
#: How long shutdown waits for cancelled jobs to reach a terminal state.
SETTLE_TIMEOUT_S = 30.0

COLD_ROTATION = ("hackathon", "traditional", "hackathon-everywhere",
                 "hybrid-balanced")
#: Every catalog scenario a workload runs (``COLD_ROTATION`` covers all).
SCENARIOS = COLD_ROTATION
COLD_SEEDS_PER_CALL = 10
MIXED_COLD_SCENARIO = "hackathon"
MIXED_COLD_SEEDS = 4
#: Client A's first jobs always run; their cells enter the digest.
MIXED_COLD_MIN_JOBS = 3
#: Share of client B's turns spent resubmitting A's in-flight job.
MIXED_RESUBMIT_SHARE = 0.25

NOT_COLLECTED = ("spans and counters recorded inside forked pool worker "
                 "processes (ROADMAP item 3): simulation.* and "
                 "sim_runs_total miss every cell a pool computes")


# -- seeds ----------------------------------------------------------------


class Seeds:
    """All simulation seeds of one ``(workload, seed)``.

    Set-up cells draw distinct seeds below 10**6; each stream of fresh
    seeds (one per client) counts up from its own base above it, so no
    seed is used twice and the n-th job always gets the same seeds.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.tag = f"{workload}/{seed}"
        self._rng = random.Random(self.tag)
        self._used: set = set()

    def pick(self, count: int) -> List[int]:
        out = []
        while len(out) < count:
            value = self._rng.randrange(1, 10 ** 6)
            if value not in self._used:
                self._used.add(value)
                out.append(value)
        return out

    def stream(self, name: str, width: int) -> Callable[[int], List[int]]:
        base = random.Random(f"{self.tag}/{name}").randrange(
            10 ** 6, 10 ** 9
        ) * 16

        def seeds_for(index: int) -> List[int]:
            return [base + index * width + i for i in range(width)]

        return seeds_for

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.tag}/{name}")


def job_set(seeds: Seeds, client: int) -> List[Tuple[str, Dict[str, Any]]]:
    """One client's jobs: a 1-cell replicate, a 5-seed compare, a sweep."""
    replicate_on, sweep_over = (("hackathon", "session-hours"),
                                ("hybrid-balanced", "remote-share"))[client]
    return [
        ("replicate", {"scenario": replicate_on, "seeds": seeds.pick(1)}),
        ("compare", {"a": "hackathon", "b": "traditional",
                     "seeds": seeds.pick(5)}),
        ("sweep", {"parameter": sweep_over, "seeds": seeds.pick(1)}),
    ]


def result_names() -> Dict[str, str]:
    """Catalog name of each scenario, by the name its results carry."""
    return {resolve_scenario(name).name: name for name in SCENARIOS}


def job_key(kind: str, params: Dict[str, Any]) -> str:
    return json.dumps({"kind": kind, "params": params}, sort_keys=True)


# -- records --------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop operation: a replicate call or a whole job."""

    latency_s: float
    cells: int = 0
    ok: bool = True
    hit: Optional[bool] = None  # every cell served from the store
    error: Optional[str] = None
    submitted: bool = False  # the service accepted the submission
    rejected: bool = False  # the service answered 429
    group: str = ""  # cold_replicate: the scenario called


@dataclass
class Phase:
    """One timed closed-loop phase."""

    ops: List[Op] = field(default_factory=list)
    elapsed_s: float = 0.0
    before: Dict[str, float] = field(default_factory=dict)
    after: Dict[str, float] = field(default_factory=dict)
    started_wall: float = 0.0
    roots: List[Any] = field(default_factory=list)  # traced phase only

    def done(self) -> List[Op]:
        return [op for op in self.ops if op.ok]

    def jobs_per_s(self) -> float:
        return len(self.done()) / self.elapsed_s

    def cells_per_s(self) -> float:
        return sum(op.cells for op in self.done()) / self.elapsed_s


class Ledger:
    """Every payload served, checked against the one expected for its job.

    ``expected`` holds the warm-up payloads; a job without one is
    checked against the first payload served for it.
    """

    def __init__(self, expected: Dict[str, Any]) -> None:
        self.expected = dict(expected)
        self.problems: List[str] = []
        self.checked = 0

    def check(self, key: str, payload: Any) -> Cells:
        reference = self.expected.setdefault(key, payload)
        self.checked += 1
        if reference is not payload:
            self.problems.extend(compare_payload(reference, payload, key))
        try:
            return cells_of(payload)
        except (KeyError, TypeError, ValueError) as exc:
            self.problems.append(f"{key}: malformed payload: {exc!r}")
            return {}


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    digest_cells: Cells
    sample: Cells
    report: Dict[str, Any]


# -- service stack --------------------------------------------------------


class Stack:
    """One server over a fresh temporary store; :meth:`close` tears down.

    Teardown order is the point: every submitted job must be terminal
    before the server shuts down, because the scheduler only joins its
    dispatcher for a few seconds and leaves a running job's process
    pool behind.
    """

    def __init__(self, workers: int) -> None:
        self.store = tempfile.mkdtemp(prefix="store-")
        self.server = build_async_server(cache_dir=self.store,
                                         workers=workers)
        serve_async(self.server)
        self.port = self.server.server_port

    def jobs(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        """Snapshots of every job (in ``state``), through all pages."""
        rows: List[Dict[str, Any]] = []
        cursor = None
        while True:
            page, cursor = self.server.scheduler.list_jobs(
                state=state, cursor=cursor, limit=1000)
            rows.extend(page)
            if cursor is None:
                return rows

    def settle(self) -> int:
        """Cancel every job not yet terminal, then wait for all of them."""
        cancelled = set()
        deadline = time.monotonic() + SETTLE_TIMEOUT_S
        while True:
            live = [job["id"] for state in ("queued", "running")
                    for job in self.jobs(state)]
            if not live:
                return len(cancelled)
            if time.monotonic() > deadline:
                raise RuntimeError(f"jobs still live after cancel: {live}")
            for job_id in live:
                if job_id not in cancelled:
                    self.server.scheduler.cancel(job_id)
                    cancelled.add(job_id)
            time.sleep(0.05)

    def close(self) -> List[str]:
        problems = []
        try:
            cancelled = self.settle()
            if cancelled:
                problems.append(f"{cancelled} job(s) cancelled at shutdown")
        finally:
            self.server.shutdown()
            self.server.server_close()
            shutil.rmtree(self.store, ignore_errors=True)
        try:
            socket.create_connection(("127.0.0.1", self.port),
                                     timeout=1.0).close()
            problems.append(f"port {self.port} still accepts connections")
        except OSError:
            pass
        if os.path.exists(self.store):
            problems.append(f"temporary store {self.store} not removed")
        return problems


async def run_job(conn: Connection, kind: str,
                  params: Dict[str, Any]) -> Tuple[Op, Any]:
    """Submit, stream events to the terminal one, fetch the result."""
    start = time.perf_counter()
    status, body = await conn.json("POST", "/v1/jobs",
                                   {"kind": kind, "params": params})
    if status not in (200, 201):
        return Op(time.perf_counter() - start, ok=False,
                  rejected=status == 429,
                  error=f"submit answered {status}: {body}"), None
    job_id = body["job"]["id"]
    events = await conn.events(job_id)
    terminal = events[-1] if events else {}
    if terminal.get("event") != "state" or terminal.get("state") != "done":
        return Op(time.perf_counter() - start, ok=False, submitted=True,
                  error=f"job {job_id} ended {terminal}"), None
    status, body = await conn.json("GET", f"/v1/jobs/{job_id}/result")
    latency = time.perf_counter() - start
    if status != 200:
        return Op(latency, ok=False, submitted=True,
                  error=f"result answered {status}: {body}"), None
    cells = [e for e in events if e["event"] == "cell"]
    return Op(latency, hit=all(e["cached"] for e in cells),
              submitted=True), body["result"]


Pick = Callable[[int], Tuple[str, Dict[str, Any]]]
Done = Callable[[int, str, Dict[str, Any], Op, Any], None]


async def client_loop(port: int, stop_at: float, pick: Pick, done: Done,
                      conns: List[Connection], min_ops: int = 0) -> None:
    """One closed-loop client on one keep-alive connection."""
    conn = await Connection.open(port)
    conns.append(conn)
    try:
        index = 0
        while index < min_ops or time.perf_counter() < stop_at:
            kind, params = pick(index)
            start = time.perf_counter()
            try:
                op, payload = await asyncio.wait_for(
                    run_job(conn, kind, params), OP_TIMEOUT_S)
            except (asyncio.TimeoutError, HTTPError, OSError,
                    asyncio.IncompleteReadError, ValueError) as exc:
                op, payload = Op(time.perf_counter() - start, ok=False,
                                 error=repr(exc)), None
                await conn.close()
                conn = await Connection.open(port)
                conns.append(conn)
            done(index, kind, params, op, payload)
            index += 1
    finally:
        await conn.close()


async def run_clients(seconds: float,
                      clients: List[Callable[[float], Any]],
                      phase: Phase) -> None:
    start = time.perf_counter()
    tasks = [asyncio.ensure_future(c(start + seconds)) for c in clients]
    _, pending = await asyncio.wait(tasks, timeout=seconds + PHASE_GRACE_S)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    phase.elapsed_s = time.perf_counter() - start
    if pending:
        phase.ops.extend(Op(phase.elapsed_s, ok=False, error="timeout")
                         for _ in pending)
    for task in tasks:
        if not task.cancelled():
            task.result()


async def warm_jobs(port: int, jobs: List[Tuple[str, Dict[str, Any]]]
                    ) -> Dict[str, Any]:
    conn = await Connection.open(port)
    try:
        payloads = {}
        for kind, params in jobs:
            op, payload = await run_job(conn, kind, params)
            if not op.ok:
                raise RuntimeError(f"warm-up {kind} failed: {op.error}")
            payloads[job_key(kind, params)] = payload
        return payloads
    finally:
        await conn.close()


# -- shared reporting -----------------------------------------------------


def setup_report(import_s: float, reps: List[float]) -> Dict[str, Any]:
    """Set-up timings, and the memory high-water mark once set up.

    ``peak_rss_mb`` is read after a fixed amount of work that ran every
    operation of the workload once — here for the services, whose set-up
    runs every job; after the first rotation for ``cold_replicate`` —
    not at the end of the run: the scheduler keeps every finished job,
    so memory at the end grows with the jobs a run completed, and a
    faster program would read as a fatter one.  The end-of-run figure
    is in the report.
    """
    return {"import_s": import_s, "repeats_s": reps,
            "setup_s": import_s + statistics.median(reps),
            "peak_rss_mb": peak_rss_mb()}


def end_to_end(phase: Phase, setup: Dict[str, Any]) -> Dict[str, float]:
    return {
        "setup_s": setup["setup_s"],
        "cells_per_s": phase.cells_per_s(),
        "jobs_per_s": phase.jobs_per_s(),
        "job_ms_p50": statistics.median(group_p50_ms(phase).values()),
        "peak_rss_mb": setup["peak_rss_mb"],
    }


def group_p50_ms(phase: Phase) -> Dict[str, float]:
    """Median latency of each operation group.

    Service jobs form one group.  ``cold_replicate`` groups calls by
    scenario, whose costs differ fivefold; a median over all calls
    would sit on the edge between two scenarios' clusters, so the
    end-to-end figure is the median of these per-scenario medians.
    """
    groups: Dict[str, List[float]] = {}
    for op in phase.done():
        groups.setdefault(op.group, []).append(op.latency_s)
    return {g: statistics.median(v) * 1000.0 for g, v in groups.items()}


def timings(phase: Phase) -> Dict[str, Any]:
    done = phase.done()
    return {
        "job_ms_p50_by_group": group_p50_ms(phase),
        "job": summarize([op.latency_s for op in done]),
        "hit_job": summarize([op.latency_s for op in done if op.hit]),
        "miss_job": summarize([op.latency_s for op in done
                               if op.hit is False]),
    }


def median_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1000.0 if seconds else 0.0


def registry_samples() -> Dict[str, float]:
    return parse_prometheus(REGISTRY.render_prometheus())


def per_layer(untraced: Phase, traced: Phase,
              probes: Optional[Probes], conns: List[Connection],
              stack: Optional[Stack], pickle_bytes: float
              ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Every per-layer metric of one traced phase, plus ratio bases."""
    b, a = traced.before, traced.after
    d = lambda family: delta(b, a, family)  # noqa: E731
    probes = probes or Probes()
    plain = probes.meter("wire.plain")
    stream = probes.meter("wire.stream")
    rtts = [s for conn in conns for kind, s in conn.rtts if kind == "plain"]
    requests = sum(len(conn.rtts) for conn in conns)
    self_ms = ((sum(rtts) - plain.seconds) * 1000.0 / len(rtts)
               if rtts else 0.0)
    rows = [job for job in (stack.jobs() if stack else [])
            if job["created_ts"] >= traced.started_wall]
    waits = [r["started_ts"] - r["created_ts"] for r in rows
             if r["started_ts"] is not None]
    runs = [r["finished_ts"] - r["started_ts"] for r in rows
            if r["started_ts"] is not None and r["finished_ts"] is not None]
    submits = sum(1 for op in traced.ops if op.submitted)
    rejected = sum(1 for op in traced.ops if op.rejected)
    coalesced, coalesced_base = ratio(d("service_jobs_coalesced_total"),
                                      submits)
    hits, misses = d("cache_hits_total"), d("cache_misses_total")
    hit_ratio, hit_base = ratio(hits, hits + misses)
    t_hits = d("batch_template_hits_total")
    t_ratio, t_base = ratio(t_hits, t_hits + d("batch_template_misses_total"))
    sim_runs = d("sim_runs_total")
    self_s = span_self_seconds(traced.roots)
    blob_get = probes.meter("store.blob_get")
    blob_put = probes.meter("store.blob_put")
    untraced_rate = untraced.jobs_per_s() if stack else untraced.cells_per_s()
    traced_rate = traced.jobs_per_s() if stack else traced.cells_per_s()
    execute = probes.meter("workers.execute")
    metrics: Dict[str, float] = {
        "asyncserver.requests": float(requests),
        "asyncserver.self_ms": self_ms,
        "wire.dispatch_calls": float(plain.calls + stream.calls),
        "wire.dispatch_ms": ((plain.seconds + stream.seconds) * 1000.0
                             / max(1, plain.calls + stream.calls)),
        "wire.result_bytes": probes.result_bytes / max(1, probes.results),
        "specs.build_plan_ms": probes.meter("specs.build_plan").ms_per_call(),
        "scheduler.submits": float(submits),
        "scheduler.queue_wait_ms_p50": median_ms(waits),
        "scheduler.run_ms_p50": median_ms(runs),
        "scheduler.coalesced_frac": coalesced,
        "scheduler.retries": d("scheduler_retries_total"),
        "scheduler.rejected": float(rejected),
        "workers.attempts": float(execute.calls),
        "workers.execute_ms": execute.ms_per_call(),
        "workers.cells_computed": misses,
        "workers.pickle_bytes_per_cell": pickle_bytes,
        "store.fetch_ms": probes.meter("store.fetch").ms_per_call(),
        "store.hit_ratio": hit_ratio,
        "store.blob_get_calls": float(blob_get.calls),
        "store.blob_get_ms": blob_get.ms_per_call(),
        "store.blob_put_calls": float(blob_put.calls),
        "store.blob_put_ms": blob_put.ms_per_call(),
        "store.index_ms": probes.meter("store.index").ms_per_call(),
        "store.bytes_read": d("store_blob_read_bytes_total"),
        "store.bytes_written": d("store_blob_write_bytes_total"),
        "store.verify_failures": d("store_blob_verify_failures_total"),
        "simulation.runs": sim_runs,
    }
    for span_name, suffix in SIM_PHASES.items():
        metrics["simulation." + suffix] = (
            self_s.get(span_name, 0.0) * 1000.0 / sim_runs if sim_runs
            else 0.0)
    metrics["simulation.template_hit_ratio"] = t_ratio
    metrics["simulation.batch_fallbacks"] = d("batch_fallback_total")
    metrics["obs.trace_overhead_pct"] = (
        (untraced_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0)
    extra = {
        "bases": {
            "scheduler.coalesced_frac": coalesced_base,
            "store.hit_ratio": hit_base,
            "simulation.template_hit_ratio": t_base,
        },
        "asyncserver.stream_requests": stream.calls,
        "batch_fallback_total": labelled_deltas(b, a, "batch_fallback_total"),
        "scheduler.queue_wait_samples": len(waits),
        "obs.trace_overhead_base": {"untraced": untraced_rate,
                                    "traced": traced_rate,
                                    "per": "job" if stack else "cell"},
        "workers.pickle_bytes_per_cell": (
            "computed: len(pickle.dumps(Scenario)) + "
            "len(pickle.dumps(ProjectHistory)) for one sample cell, "
            "recomputed in-process after the traced phase"
            if pickle_bytes else "no pool in this workload"),
        "not_collected": NOT_COLLECTED,
    }
    return metrics, extra


def computed_pickle_bytes(name: str, seed: int) -> float:
    scenario = resolve_scenario(name).with_seed(seed)
    history = replicate_histories(scenario, [seed])[0]
    return float(len(pickle.dumps(scenario)) + len(pickle.dumps(history)))


def counters(phase: Phase) -> Dict[str, float]:
    """Counter deltas over one phase, plus the 429s clients received."""
    b, a = phase.before, phase.after
    names = ("cache_hits_total", "cache_misses_total",
             "store_blob_verify_failures_total", "scheduler_retries_total",
             "service_jobs_submitted_total", "service_jobs_coalesced_total",
             "batch_fallback_total", "sim_runs_total")
    out = {name: delta(b, a, name) for name in names}
    out["http_429"] = float(sum(op.rejected for op in phase.ops))
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def pick_sample(rng: random.Random, cells: Cells, kind: str,
                count: int) -> List[Any]:
    keys = sorted((k for k in cells if k[0] == kind), key=repr)
    return rng.sample(keys, min(count, len(keys)))


def outcome(metrics: Dict[str, float], phases: List[Phase],
            problems: List[str], digest_cells: Cells, sample: Cells,
            report: Dict[str, Any]) -> Outcome:
    ops = [op for phase in phases for op in phase.ops]
    errors = [op.error for op in ops if op.error]
    report["op_errors"] = errors[:10]
    report["peak_rss_mb_end_of_run"] = peak_rss_mb()
    return Outcome(metrics=metrics, attempted=len(ops),
                   failed=sum(1 for op in ops if not op.ok),
                   problems=problems, digest_cells=digest_cells,
                   sample=sample, report=report)


# -- cold_replicate -------------------------------------------------------


def cold_replicate(seed: int, seconds: float, trace: bool,
                   import_s: float) -> Outcome:
    """In-process ``repro.api.replicate`` calls over fresh seeds."""
    seeds = Seeds("cold_replicate", seed)
    warm_seeds = {name: seeds.pick(1) for name in COLD_ROTATION}
    shown = {name: resolve_scenario(name).name for name in COLD_ROTATION}
    reps, warm_runs = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        api.scenarios()
        warm_runs.append({name: api.replicate(name, warm_seeds[name])
                          for name in COLD_ROTATION})
        reps.append(time.perf_counter() - start)
    setup = setup_report(import_s, reps)
    problems: List[str] = []
    warm_cells: Cells = {}
    for name in COLD_ROTATION:
        for run in warm_runs[1:]:
            problems.extend(compare_payload(warm_runs[0][name], run[name],
                                            f"set-up replicate {name}"))
        warm_cells.update(cells_of_replicate(shown[name], warm_seeds[name],
                                             warm_runs[0][name]))

    fresh = seeds.stream("calls", COLD_SEEDS_PER_CALL)
    calls = iter(range(10 ** 9))
    cells: Cells = {}
    prefix: Cells = {}  # the first rotation: always run, so digested

    def run_phase(phase: Phase) -> None:
        # Whole rotations only, so every phase runs the same scenario mix.
        phase.before = registry_samples()
        start = time.perf_counter()
        while True:
            for name in COLD_ROTATION:
                index = next(calls)
                call_seeds = fresh(index)
                t0 = time.perf_counter()
                try:
                    kpis = api.replicate(name, call_seeds)
                except Exception as exc:  # counted as failed, run goes on
                    phase.ops.append(Op(time.perf_counter() - t0, ok=False,
                                        error=repr(exc), group=name))
                    continue
                phase.ops.append(Op(time.perf_counter() - t0,
                                    cells=len(kpis), hit=False, group=name))
                got = cells_of_replicate(shown[name], call_seeds, kpis)
                cells.update(got)
                if index < len(COLD_ROTATION):
                    prefix.update(got)
                if index == len(COLD_ROTATION) - 1:
                    setup["peak_rss_mb"] = peak_rss_mb()
            if time.perf_counter() - start >= seconds:
                break
        phase.elapsed_s = time.perf_counter() - start
        phase.after = registry_samples()

    untraced = Phase()
    run_phase(untraced)
    phases = [untraced]
    report: Dict[str, Any] = {
        "setup": setup,
        "timings": timings(untraced),
        "counters": counters(untraced),
    }
    if trace:
        traced = Phase()
        TRACER.reset()
        TRACER.enabled = True
        try:
            run_phase(traced)
        finally:
            TRACER.enabled = False
            traced.roots = TRACER.roots()
            TRACER.reset()
        phases.append(traced)
        metrics, report["layers"] = per_layer(untraced, traced, None, [],
                                              None, 0.0)
        report["counters_traced"] = counters(traced)
    else:
        metrics = end_to_end(untraced, setup)
    rng = seeds.rng("sample")
    sample = {k: cells[k] for name in COLD_ROTATION
              for k in [rng.choice(sorted((k for k in prefix
                                           if k[1] == shown[name]),
                                          key=repr))]}
    sample.update(warm_cells)
    return outcome(metrics, phases, problems, {**warm_cells, **prefix},
                   sample, report)


# -- service workloads ----------------------------------------------------


def setup_stack(workers: int, jobs: List[Tuple[str, Dict[str, Any]]]
                ) -> Tuple[Stack, Dict[str, Any], List[float], List[str]]:
    """Set the stack up ``SETUP_REPEATS`` times; keep the last one.

    Each set-up discovers the catalog, starts a server over a fresh
    store and warms the store by running ``jobs`` through it.  Every
    set-up must serve payloads identical to the first one's.
    """
    reps: List[float] = []
    problems: List[str] = []
    first: Optional[Dict[str, Any]] = None
    stack: Optional[Stack] = None
    try:
        for _ in range(SETUP_REPEATS):
            if stack is not None:
                problems.extend(stack.close())
                stack = None
            start = time.perf_counter()
            api.scenarios()
            stack = Stack(workers)
            payloads = asyncio.run(warm_jobs(stack.port, jobs))
            reps.append(time.perf_counter() - start)
            if first is None:
                first = payloads
                continue
            for key, payload in first.items():
                problems.extend(compare_payload(payload, payloads[key],
                                                f"set-up {key}"))
    except BaseException:
        if stack is not None:
            stack.close()
        raise
    return stack, first, reps, problems


Client = Callable[[List[Connection], Phase, float], Any]


def service_phase(stack: Stack, seconds: float, clients: List[Client],
                  probes: Optional[Probes] = None
                  ) -> Tuple[Phase, List[Connection], Dict[str, Any]]:
    """One closed-loop phase, scraped before and after from outside."""
    phase = Phase(started_wall=time.time())
    phase.before, stats_before = asyncio.run(scrape(stack.port))
    conns: List[Connection] = []
    if probes is not None:
        probes.install(stack.server, scheduler_module, StreamHandle)
        TRACER.reset()
        TRACER.enabled = True
    try:
        asyncio.run(run_clients(
            seconds,
            [lambda stop_at, c=c: c(conns, phase, stop_at) for c in clients],
            phase,
        ))
    finally:
        if probes is not None:
            TRACER.enabled = False
            phase.roots = TRACER.roots()
            TRACER.reset()
            probes.uninstall()
    cancelled = stack.settle()
    phase.after, stats_after = asyncio.run(scrape(stack.port))
    stats = {k: stats_after[k] - stats_before[k]
             for k in ("hits_recorded", "misses_recorded", "session_hits",
                       "session_misses", "session_waits",
                       "session_bytes_served")}
    stats["jobs_cancelled_after_phase"] = cancelled
    return phase, conns, stats


def jobs_client(port: int, jobs: Callable[[int], Tuple[str, Dict[str, Any]]],
                ledger: Ledger, min_ops: int = 0,
                on_payload: Optional[Callable] = None) -> Client:
    """A closed-loop client whose payloads all go through ``ledger``."""

    def client(conns: List[Connection], phase: Phase, stop_at: float):
        def done(index, kind, params, op, payload):
            if payload is not None:
                got = ledger.check(job_key(kind, params), payload)
                op.cells = len(got)
                if on_payload is not None:
                    on_payload(kind, params, payload, got)
            phase.ops.append(op)

        return client_loop(port, stop_at, jobs, done, conns, min_ops)

    return client


def run_service(stack: Stack, seconds: float, trace: bool,
                clients: Callable[[], List[Client]], report: Dict[str, Any],
                after_traced: Callable[[], float] = lambda: 0.0
                ) -> Tuple[List[Phase], Optional[Dict[str, float]]]:
    """The untraced phase and, with ``trace``, the traced one after it."""
    untraced, _, stats = service_phase(stack, seconds, clients())
    report["timings"] = timings(untraced)
    report["counters"] = counters(untraced)
    report["cache_stats"] = stats
    if not trace:
        return [untraced], None
    probes = Probes()
    traced, conns, stats = service_phase(stack, seconds, clients(), probes)
    metrics, report["layers"] = per_layer(untraced, traced, probes, conns,
                                          stack, after_traced())
    report["counters_traced"] = counters(traced)
    report["cache_stats_traced"] = stats
    return [untraced, traced], metrics


def cached_jobs(seed: int, seconds: float, trace: bool,
                import_s: float) -> Outcome:
    """Two clients, each rotating through its own set of cached jobs."""
    seeds = Seeds("cached_jobs", seed)
    sets = [job_set(seeds, 0), job_set(seeds, 1)]
    stack, warm, reps, problems = setup_stack(1, sets[0] + sets[1])
    ledger = Ledger(warm)
    report: Dict[str, Any] = {"setup": setup_report(import_s, reps)}
    try:
        phases, metrics = run_service(
            stack, seconds, trace,
            lambda: [jobs_client(stack.port,
                                 lambda i, jobs=jobs: jobs[i % len(jobs)],
                                 ledger) for jobs in sets],
            report)
    finally:
        problems.extend(stack.close())
    for phase in phases:
        for family in ("cache_misses_total", "service_jobs_coalesced_total"):
            moved = delta(phase.before, phase.after, family)
            if moved:
                problems.append(f"{family} moved by {moved} on cached_jobs")
    problems.extend(ledger.problems)
    report["payloads_checked"] = ledger.checked
    if metrics is None:
        metrics = end_to_end(phases[0], report["setup"])
    warm_cells: Cells = {}
    for payload in warm.values():
        warm_cells.update(cells_of(payload))
    rng = seeds.rng("sample")
    sample_keys = []
    for jobs in sets:
        own: Cells = {}
        for kind, params in jobs:
            own.update(cells_of(warm[job_key(kind, params)]))
        sample_keys += pick_sample(rng, own, "scenario", 1)
        sample_keys += pick_sample(rng, own, "sweep", 1)
    sample = {k: warm_cells[k] for k in sample_keys}
    return outcome(metrics, phases, problems, warm_cells, sample, report)


def mixed_jobs(seed: int, seconds: float, trace: bool,
               import_s: float) -> Outcome:
    """Cold replicate jobs through a 2-worker pool beside cached reads."""
    seeds = Seeds("mixed_jobs", seed)
    b_jobs = job_set(seeds, 0)
    fresh = seeds.stream("a", MIXED_COLD_SEEDS)
    b_rng = seeds.rng("b")
    stack, warm, reps, problems = setup_stack(2, b_jobs)
    ledger = Ledger(warm)
    report: Dict[str, Any] = {"setup": setup_report(import_s, reps)}
    a_next = [0]
    inflight: Dict[str, Tuple[str, Dict[str, Any]]] = {}
    cold_cells: Cells = {}
    prefix: Cells = {}  # client A's first jobs: always run, so digested

    def a_pick(_: int) -> Tuple[str, Dict[str, Any]]:
        params = {"scenario": MIXED_COLD_SCENARIO,
                  "seeds": fresh(a_next[0])}
        a_next[0] += 1
        inflight["a"] = ("replicate", params)
        return inflight["a"]

    shown = resolve_scenario(MIXED_COLD_SCENARIO).name

    def a_payload(kind, params, payload, got) -> None:
        inflight.pop("a", None)
        if (payload.get("scenario"), payload.get("seeds")) != (
                shown, params["seeds"]):
            problems.append(f"job {params} answered for "
                            f"{payload.get('scenario')} "
                            f"{payload.get('seeds')}")
        cold_cells.update(got)
        if params["seeds"][0] < fresh(MIXED_COLD_MIN_JOBS)[0]:
            prefix.update(got)

    def b_pick(index: int) -> Tuple[str, Dict[str, Any]]:
        if b_rng.random() < MIXED_RESUBMIT_SHARE and "a" in inflight:
            return inflight["a"]
        return b_jobs[index % len(b_jobs)]

    def clients() -> List[Client]:
        return [
            jobs_client(stack.port, a_pick, ledger,
                        min_ops=MIXED_COLD_MIN_JOBS if not a_next[0] else 0,
                        on_payload=a_payload),
            jobs_client(stack.port, b_pick, ledger),
        ]

    try:
        phases, metrics = run_service(
            stack, seconds, trace, clients, report,
            after_traced=lambda: computed_pickle_bytes(
                MIXED_COLD_SCENARIO, fresh(0)[0]))
    finally:
        problems.extend(stack.close())
    problems.extend(ledger.problems)
    report["payloads_checked"] = ledger.checked
    if metrics is None:
        metrics = end_to_end(phases[0], report["setup"])
    warm_cells: Cells = {}
    for payload in warm.values():
        warm_cells.update(cells_of(payload))
    rng = seeds.rng("sample")
    sample_keys = pick_sample(rng, prefix, "scenario", 3)
    sample_keys += pick_sample(rng, warm_cells, "scenario", 1)
    sample_keys += pick_sample(rng, warm_cells, "sweep", 1)
    sample = {k: {**cold_cells, **warm_cells}[k] for k in sample_keys}
    return outcome(metrics, phases, problems, {**warm_cells, **prefix},
                   sample, report)


WORKLOADS = {
    "cold_replicate": cold_replicate,
    "cached_jobs": cached_jobs,
    "mixed_jobs": mixed_jobs,
}
