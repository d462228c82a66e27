"""Tests for the job model, specs and scheduler (repro.service)."""

import functools
import os
import pickle
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import (
    ConfigurationError,
    JobStateError,
    QueueFullError,
    UnknownJobError,
)
from repro.obs import REGISTRY
from repro.service.chaos import (
    fast_factory,
    make_flaky_factory,
    pool_worker_pids,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
)
from repro.service.scheduler import Scheduler
from repro.service.workers import execute_plan
from repro.service.specs import (
    build_plan,
    comparison_from_payload,
    resolve_scenario,
    resolve_seeds,
    sweep_from_payload,
    sweep_plan,
)
from repro.simulation import megamart_timeline
from repro.simulation.experiment import (
    _run_metrics,
    compare_scenarios,
    extract_metrics,
    replicate,
)
from repro.store import RunCache, scenario_fingerprint


# -- fast fake runners (module-level so they pickle into pool workers) ----


class _FakeHistory:
    def __init__(self, totals):
        self.totals = totals


class _QuickRunner:
    def __init__(self, scenario):
        self.scenario = scenario

    def run(self):
        return _FakeHistory({"kpi": float(self.scenario.seed)})


def quick_factory(scenario):
    return _QuickRunner(scenario)


class _SleepyRunner:
    def __init__(self, scenario, delay):
        self.scenario = scenario
        self.delay = delay

    def run(self):
        time.sleep(self.delay)
        return _FakeHistory({"kpi": float(self.scenario.seed)})


def sleepy_factory(scenario, delay=0.08):
    return _SleepyRunner(scenario, delay)


def crash_until_sentinel_factory(sentinel, scenario):
    """Kill the worker process until the sentinel file exists."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(13)
    return _QuickRunner(scenario)


def always_crash_factory(scenario):
    """Kill the worker process on every attempt."""
    os._exit(13)


class _PidRunner:
    def __init__(self, scenario):
        self.scenario = scenario

    def run(self):
        return _FakeHistory({"kpi": float(self.scenario.seed),
                             "pid": float(os.getpid())})


def pid_factory(scenario):
    """Report which process ran the cell."""
    return _PidRunner(scenario)


def _scheduler(tmp_path, factory=quick_factory, **kwargs):
    cache = RunCache(tmp_path / "store", runner_factory=factory)
    kwargs.setdefault("retry_backoff_s", 0.01)
    return Scheduler(cache, **kwargs)


# -- job state machine ----------------------------------------------------


class TestJobStateMachine:
    def _job(self):
        return Job(id="j0", kind="compare", params={}, key="k")

    def test_happy_path(self):
        job = self._job()
        assert job.state == QUEUED
        job.mark_running()
        assert job.state == RUNNING
        job.mark_done({"ok": 1})
        assert job.state == DONE and job.result == {"ok": 1}
        assert job.is_terminal

    def test_failure_path(self):
        job = self._job()
        job.mark_running()
        job.mark_failed("boom")
        assert job.state == FAILED and job.error == "boom"

    def test_cancel_from_queued_and_running(self):
        job = self._job()
        job.mark_cancelled()
        assert job.state == CANCELLED and job.cancel_event.is_set()
        job2 = self._job()
        job2.mark_running()
        job2.mark_cancelled()
        assert job2.state == CANCELLED

    @pytest.mark.parametrize("bad", [
        ("mark_done", {"x": 1}),  # queued -> done skips running
        ("mark_failed", "no"),
    ])
    def test_illegal_from_queued(self, bad):
        job = self._job()
        method, arg = bad
        with pytest.raises(JobStateError):
            getattr(job, method)(arg)

    def test_terminal_states_are_final(self):
        job = self._job()
        job.mark_running()
        job.mark_done({})
        for method, args in (
            ("mark_running", ()),
            ("mark_failed", ("x",)),
            ("mark_cancelled", ()),
        ):
            with pytest.raises(JobStateError):
                getattr(job, method)(*args)

    def test_to_dict_is_json_safe(self):
        import json

        job = self._job()
        payload = json.loads(json.dumps(job.to_dict()))
        assert payload["state"] == QUEUED
        assert payload["progress"]["cells_total"] == 0
        assert payload["result_ready"] is False


# -- specs ---------------------------------------------------------------


class TestSpecs:
    def test_resolve_named_timeline(self):
        scenario = resolve_scenario("hackathon")
        assert scenario.name == megamart_timeline().name

    def test_resolve_inline_scenario(self):
        scenario = resolve_scenario({
            "name": "mini",
            "plenaries": [
                {"name": "Rome", "month": 0.0, "kind": "traditional"},
                {"name": "Oslo", "month": 5.0, "kind": "hackathon"},
            ],
            "horizon_months": 9.0,
        })
        assert scenario.name == "mini"
        assert scenario.hackathon_count() == 1

    @pytest.mark.parametrize("spec", [
        "no-such-timeline",
        42,
        {"plenaries": []},
        {"plenaries": [{"name": "X", "month": 0.0, "kind": "party"}]},
        {"plenaries": [{"name": "X", "month": 0.0, "kind": "hackathon",
                        "vibe": "great"}]},
        {"plenaries": [{"name": "X", "month": 0.0,
                        "kind": "hackathon"}], "surprise": 1},
    ])
    def test_bad_scenario_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            resolve_scenario(spec)

    def test_resolve_seeds(self):
        assert resolve_seeds(3) == [0, 1, 2]
        assert resolve_seeds([5, 9]) == [5, 9]
        for bad in (0, -1, [], [1.5], ["a"], True, "3"):
            with pytest.raises(ConfigurationError):
                resolve_seeds(bad)

    def test_sweep_plan_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            sweep_plan("sauna-temperature")

    def test_plan_cells_and_key_stability(self):
        plan1 = build_plan("compare", {"seeds": 2})
        plan2 = build_plan(
            "compare",
            {"a": "hackathon", "b": "traditional", "seeds": [0, 1]},
        )
        # same resolved cells -> same coalescing key, however spelled
        assert plan1.key == plan2.key
        assert len(plan1.scenarios) == 4  # 2 arms x 2 seeds

    def test_plan_key_differs_when_work_differs(self):
        base = build_plan("compare", {"seeds": 2})
        assert base.key != build_plan("compare", {"seeds": 3}).key
        assert base.key != build_plan(
            "compare", {"a": "virtual", "seeds": 2}
        ).key
        assert base.key != build_plan("replicate", {"seeds": 2}).key

    def test_unknown_kind_and_params_rejected(self):
        with pytest.raises(ConfigurationError):
            build_plan("meditate", {})
        with pytest.raises(ConfigurationError):
            build_plan("compare", {"seeds": 2, "banana": 1})
        with pytest.raises(ConfigurationError):
            build_plan("compare", [1, 2])

    def test_payload_round_trips(self):
        plan = build_plan("compare", {"seeds": 2})
        fake = [{"kpi": float(i)} for i in range(4)]
        result = comparison_from_payload(plan.assemble(fake))
        assert result.metrics_a == fake[:2]
        assert result.metrics_b == fake[2:]
        splan = build_plan(
            "sweep", {"parameter": "cadence", "values": [1.0, 2.0],
                      "seeds": 2}
        )
        fake = [{"kpi": float(i)} for i in range(4)]
        sweep = sweep_from_payload(splan.assemble(fake))
        assert sweep.labels() == ["every 1 months", "every 2 months"]
        assert sweep.points[1].metrics == fake[2:]


# -- scheduler ------------------------------------------------------------


class TestScheduler:
    def test_replicate_job_runs_to_done(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        try:
            job, created = scheduler.submit(
                "replicate", {"scenario": "hackathon", "seeds": [4, 5]}
            )
            assert created
            final = scheduler.wait(job.id, timeout=10)
            assert final.state == DONE
            assert final.result["metrics"] == [{"kpi": 4.0}, {"kpi": 5.0}]
            assert final.progress.cells_done == 2
        finally:
            scheduler.shutdown()

    def test_cached_cells_reported_as_cached(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        try:
            first, _ = scheduler.submit("replicate", {"seeds": [1]})
            scheduler.wait(first.id, timeout=10)
            second, _ = scheduler.submit("replicate", {"seeds": [1, 2]})
            final = scheduler.wait(second.id, timeout=10)
            assert final.state == DONE
            assert final.progress.cells_cached == 1
            assert final.progress.cells_done == 2
        finally:
            scheduler.shutdown()

    def test_validation_errors_surface_at_submit(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        try:
            with pytest.raises(ConfigurationError):
                scheduler.submit("compare", {"seeds": 0})
            with pytest.raises(UnknownJobError):
                scheduler.get("j999999")
        finally:
            scheduler.shutdown()

    def test_coalescing_returns_same_job(self, tmp_path):
        scheduler = _scheduler(tmp_path, factory=sleepy_factory)
        try:
            blocker, _ = scheduler.submit(
                "replicate", {"seeds": [0, 1, 2]}
            )
            queued, created = scheduler.submit("replicate", {"seeds": 9})
            assert created
            dupe, dupe_created = scheduler.submit(
                "replicate", {"seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8]}
            )
            assert not dupe_created
            assert dupe.id == queued.id
            assert dupe.coalesced == 1
            final = scheduler.wait(queued.id, timeout=15)
            assert final.state == DONE
            scheduler.wait(blocker.id, timeout=15)
        finally:
            scheduler.shutdown()

    def test_backpressure_raises_queue_full(self, tmp_path):
        scheduler = _scheduler(
            tmp_path, factory=sleepy_factory, queue_depth=2
        )
        try:
            running, _ = scheduler.submit(
                "replicate", {"seeds": [0, 1, 2, 3]}
            )
            time.sleep(0.05)  # let the dispatcher pick it up
            scheduler.submit("replicate", {"seeds": [10]})
            scheduler.submit("replicate", {"seeds": [11]})
            with pytest.raises(QueueFullError):
                scheduler.submit("replicate", {"seeds": [12]})
            scheduler.wait(running.id, timeout=15)
        finally:
            scheduler.shutdown()

    def test_priority_order(self, tmp_path):
        scheduler = _scheduler(tmp_path, factory=sleepy_factory)
        try:
            blocker, _ = scheduler.submit(
                "replicate", {"seeds": [0, 1, 2]}
            )
            time.sleep(0.05)
            low, _ = scheduler.submit(
                "replicate", {"seeds": [20]}, priority=0
            )
            high, _ = scheduler.submit(
                "replicate", {"seeds": [21]}, priority=10
            )
            low_final = scheduler.wait(low.id, timeout=15)
            high_final = scheduler.wait(high.id, timeout=15)
            assert low_final.state == DONE and high_final.state == DONE
            assert high_final.finished_ts < low_final.finished_ts
        finally:
            scheduler.shutdown()

    def test_cancel_queued_job(self, tmp_path):
        scheduler = _scheduler(tmp_path, factory=sleepy_factory)
        try:
            blocker, _ = scheduler.submit(
                "replicate", {"seeds": [0, 1, 2]}
            )
            time.sleep(0.05)
            victim, _ = scheduler.submit("replicate", {"seeds": [30]})
            cancelled = scheduler.cancel(victim.id)
            assert cancelled.state == CANCELLED
            assert cancelled.progress.cells_done == 0
            scheduler.wait(blocker.id, timeout=15)
            # a fresh submission after cancel creates a new job
            again, created = scheduler.submit(
                "replicate", {"seeds": [30]}
            )
            assert created and again.id != victim.id
            scheduler.wait(again.id, timeout=15)
        finally:
            scheduler.shutdown()

    def test_cancel_running_job_between_cells(self, tmp_path):
        scheduler = _scheduler(tmp_path, factory=sleepy_factory)
        try:
            job, _ = scheduler.submit(
                "replicate", {"seeds": list(range(40, 52))}
            )
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                snapshot = scheduler.describe(job.id)
                if snapshot["progress"]["cells_done"] >= 1:
                    break
                time.sleep(0.005)
            scheduler.cancel(job.id)
            final = scheduler.wait(job.id, timeout=15)
            assert final.state == CANCELLED
            assert final.progress.cells_done < 12
        finally:
            scheduler.shutdown()

    def test_worker_crash_retries_and_completes(self, tmp_path):
        sentinel = tmp_path / "crashed-once"
        factory = functools.partial(
            crash_until_sentinel_factory, str(sentinel)
        )
        scheduler = _scheduler(
            tmp_path, factory=factory, workers=2, max_retries=3
        )
        try:
            job, _ = scheduler.submit(
                "replicate", {"seeds": [0, 1, 2]}
            )
            final = scheduler.wait(job.id, timeout=30)
            assert final.state == DONE, final.error
            assert final.attempts >= 1
            assert final.result["metrics"] == [
                {"kpi": 0.0}, {"kpi": 1.0}, {"kpi": 2.0}
            ]
        finally:
            scheduler.shutdown()

    def test_worker_crash_exhausts_retries_then_fails(self, tmp_path):
        scheduler = _scheduler(
            tmp_path, factory=always_crash_factory, workers=2,
            max_retries=1
        )
        try:
            job, _ = scheduler.submit("replicate", {"seeds": [0, 1]})
            final = scheduler.wait(job.id, timeout=30)
            assert final.state == FAILED
            assert final.attempts == 1
            assert "worker crashed" in final.error
        finally:
            scheduler.shutdown()

    def test_stats_counts(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        try:
            job, _ = scheduler.submit("replicate", {"seeds": [60]})
            scheduler.wait(job.id, timeout=10)
            stats = scheduler.stats()
            assert stats[DONE] == 1
            assert stats["queue_depth"] == 64
        finally:
            scheduler.shutdown()

    def test_invalid_construction(self, tmp_path):
        cache = RunCache(tmp_path / "store")
        for kwargs in (
            {"queue_depth": 0},
            {"workers": 0},
            {"max_retries": -1},
        ):
            with pytest.raises(ConfigurationError):
                Scheduler(cache, **kwargs)

    def test_compare_job_matches_in_process(self, tmp_path):
        """Scheduler compare == the cache's cells == fake in-process."""
        scheduler = _scheduler(tmp_path)
        try:
            job, _ = scheduler.submit("compare", {"seeds": 2})
            final = scheduler.wait(job.id, timeout=15)
            assert final.state == DONE
            rebuilt = comparison_from_payload(final.result)
            direct = comparison_from_payload(execute_plan(
                build_plan("compare", {"seeds": [0, 1]}), scheduler.cache))
            assert rebuilt.metrics_a == direct.metrics_a
            assert rebuilt.metrics_b == direct.metrics_b
        finally:
            scheduler.shutdown()

    def test_crash_preserves_completed_cells(self, tmp_path):
        """Cells stored before a crash are hits on the retry attempt."""
        sentinel = tmp_path / "crash-flag"
        factory = functools.partial(
            crash_until_sentinel_factory, str(sentinel)
        )
        # pre-store one cell with a working runner so the retry only
        # needs the rest; the crashing cache opens afterwards so its
        # index (loaded at construction) includes the pre-stored cell
        warm = RunCache(tmp_path / "store",
                        runner_factory=quick_factory)
        warm.fetch_metrics([resolve_scenario("hackathon").with_seed(0)])
        cache = RunCache(tmp_path / "store", runner_factory=factory)
        scheduler = Scheduler(cache, workers=2, max_retries=3,
                              retry_backoff_s=0.01)
        try:
            job, _ = scheduler.submit(
                "replicate", {"seeds": [0, 1, 2]}
            )
            final = scheduler.wait(job.id, timeout=30)
            assert final.state == DONE, final.error
            # seed 0 was never recomputed: it is reported as cached
            assert final.progress.cells_cached >= 1
        finally:
            scheduler.shutdown()


# -- concurrent dispatch over one long-lived pool ---------------------------


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestConcurrentDispatch:
    def test_cached_job_does_not_wait_behind_cold_job(self, tmp_path):
        scheduler = _scheduler(tmp_path, factory=sleepy_factory, workers=2)
        try:
            warm, _ = scheduler.submit("replicate", {"seeds": [90]})
            assert scheduler.wait(warm.id, timeout=15).state == DONE
            cold, _ = scheduler.submit(
                "replicate", {"seeds": list(range(8))}
            )
            _wait_for(lambda: scheduler.get(cold.id).state == RUNNING)
            hit, created = scheduler.submit("replicate", {"seeds": [90]})
            assert created
            hit_final = scheduler.wait(hit.id, timeout=15)
            cold_final = scheduler.wait(cold.id, timeout=15)
            assert hit_final.state == DONE and cold_final.state == DONE
            assert hit_final.progress.cells_cached == 1
            assert hit_final.finished_ts < cold_final.finished_ts
        finally:
            scheduler.shutdown()

    def test_consecutive_jobs_reuse_the_pool(self, tmp_path):
        scheduler = _scheduler(tmp_path, factory=pid_factory, workers=2)
        try:
            ran = []
            alive = []
            for seeds in ([0, 1, 2, 3], [4, 5, 6, 7]):
                job, _ = scheduler.submit("replicate", {"seeds": seeds})
                final = scheduler.wait(job.id, timeout=15)
                assert final.state == DONE, final.error
                metrics = final.result["metrics"]
                assert [m["kpi"] for m in metrics] == seeds
                ran.append({int(m["pid"]) for m in metrics})
                alive.append(set(pool_worker_pids()))
            assert alive[0] == alive[1]
            assert ran[0] | ran[1] <= alive[0]
            assert os.getpid() not in ran[0] | ran[1]
        finally:
            scheduler.shutdown()

    def test_pool_returns_kpi_dicts_only(self, tmp_path, monkeypatch):
        shipped = []
        submit = ProcessPoolExecutor.submit

        def spy(pool, fn, *args, **kwargs):
            future = submit(pool, fn, *args, **kwargs)
            shipped.append((fn, future))
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
        scheduler = Scheduler(RunCache(tmp_path / "store"), workers=2)
        try:
            job, _ = scheduler.submit(
                "replicate", {"scenario": "hackathon", "seeds": [0, 1]}
            )
            final = scheduler.wait(job.id, timeout=60)
            assert final.state == DONE, final.error
        finally:
            scheduler.shutdown()
        assert len(shipped) == 2
        for fn, future in shipped:
            assert fn is _run_metrics
            returned = future.result()
            assert type(returned) is dict
            assert len(pickle.dumps(returned)) < 4096
        in_process = [
            extract_metrics(history) for history in replicate(
                resolve_scenario("hackathon"), [0, 1])
        ]
        assert final.result["metrics"] == in_process
        assert [future.result() for _, future in shipped] == in_process

    def test_crash_on_shared_pool_retries_every_job_once(self, tmp_path):
        # Cells take 0.1 s, so the surviving worker cannot drain a
        # job's cells before the pool notices the crash.
        factory = make_flaky_factory(tmp_path / "chaos", max_crashes=1,
                                     delay=0.1)
        scheduler = _scheduler(tmp_path, factory=factory, workers=2,
                               max_retries=3)
        replaced = REGISTRY.counter("store_pool_replacements_total")
        before = replaced.value
        try:
            # Occupy both workers so the two jobs' cells queue up behind;
            # the first of them to run then kills its worker while every
            # cell of both jobs is in the pool.
            executor = scheduler._pool.executor()
            for _ in range(scheduler.workers):
                executor.submit(time.sleep, 0.3)
            seed_sets = ([0, 1, 2, 3], [10, 11, 12, 13])
            jobs = [
                scheduler.submit("compare", {"a": "hackathon",
                                             "b": "traditional",
                                             "seeds": seeds})[0]
                for seeds in seed_sets
            ]
            finals = [scheduler.wait(j.id, timeout=30) for j in jobs]
        finally:
            scheduler.shutdown()
        for final, seeds in zip(finals, seed_sets):
            assert final.state == DONE, final.error
            assert final.attempts == 1
            rebuilt = comparison_from_payload(final.result)
            direct = compare_scenarios(
                resolve_scenario("hackathon"),
                resolve_scenario("traditional"),
                seeds=seeds, runner_factory=fast_factory,
            )
            assert rebuilt.metrics_a == direct.metrics_a
            assert rebuilt.metrics_b == direct.metrics_b
        assert replaced.value - before == 1

    def test_overlapping_jobs_compute_each_cell_once(self, tmp_path):
        """Dispatchers racing on shared cells: single-flight holds."""
        scheduler = _scheduler(tmp_path, workers=2)
        seed_sets = [list(range(start, start + 6)) for start in range(12)]
        seed_sets += [seeds[::-1] for seeds in seed_sets]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [scheduler.submit("replicate", {"seeds": seeds})[0]
                    for seeds in seed_sets]
            finals = [scheduler.wait(j.id, timeout=60) for j in jobs]
        finally:
            sys.setswitchinterval(switch)
            scheduler.shutdown()
        for final, seeds in zip(finals, seed_sets):
            assert final.state == DONE, final.error
            assert final.result["metrics"] == [
                {"kpi": float(s)} for s in seeds
            ]
        distinct = {s for seeds in seed_sets for s in seeds}
        assert scheduler.cache.session_misses == len(distinct)

    def test_crossed_claims_do_not_deadlock(self, tmp_path):
        """A job never waits on another flight while holding claims.

        The test thread holds seed 5 open.  Job ``up`` needs 0, 5, 9
        and job ``down`` needs 9, 0.  A claimant that waited on 5 while
        holding 0 would block ``down`` on 0, and ``down`` holding 9
        would then block ``up`` for good once 5 lands.
        """
        started = set()
        gate = threading.Event()

        def gated_factory(scenario):
            # A closure cannot be pickled, so every cell runs in the
            # thread of the flight that claimed it.
            started.add(scenario.seed)
            if scenario.seed == 5:
                gate.wait(10)
            return _QuickRunner(scenario)

        scheduler = _scheduler(tmp_path, factory=gated_factory, workers=2)
        holder = threading.Thread(
            target=scheduler.cache.fetch_metrics,
            args=(build_plan("replicate", {"seeds": [5]}).scenarios,),
        )
        try:
            holder.start()
            _wait_for(lambda: 5 in started)
            up, _ = scheduler.submit("replicate", {"seeds": [0, 5, 9]})
            _wait_for(lambda: scheduler.get(up.id).state == RUNNING)
            time.sleep(0.2)  # up now waits on 5
            down, _ = scheduler.submit("replicate", {"seeds": [9, 0]})
            _wait_for(lambda: scheduler.get(down.id).state != QUEUED)
            time.sleep(0.2)
            gate.set()
            holder.join(10)
            for job, seeds in ((up, [0, 5, 9]), (down, [9, 0])):
                final = scheduler.wait(job.id, timeout=10)
                assert final.state == DONE, (final.state, final.error)
                assert final.result["metrics"] == [
                    {"kpi": float(s)} for s in seeds
                ]
        finally:
            gate.set()
            scheduler.shutdown()
        assert scheduler.cache.session_misses == 3

    def test_job_waiting_on_another_jobs_cell_can_be_cancelled(
        self, tmp_path
    ):
        factory = functools.partial(sleepy_factory, delay=3.0)
        scheduler = _scheduler(tmp_path, factory=factory, workers=2)
        try:
            holder, _ = scheduler.submit("replicate", {"seeds": [0, 1]})
            # Both cells are claimed once both workers are busy.
            _wait_for(lambda: len(pool_worker_pids()) >= scheduler.workers)
            waiter, created = scheduler.submit("replicate", {"seeds": [0]})
            assert created
            _wait_for(lambda: scheduler.get(waiter.id).state == RUNNING)
            time.sleep(0.2)  # let it block on the holder's cell
            start = time.monotonic()
            scheduler.cancel(waiter.id)
            assert scheduler.wait(waiter.id, timeout=5).state == CANCELLED
            assert time.monotonic() - start < 1.0
            assert scheduler.get(holder.id).state == RUNNING
            final = scheduler.wait(holder.id, timeout=15)
            assert final.state == DONE, final.error
            assert final.result["metrics"] == [{"kpi": 0.0}, {"kpi": 1.0}]
        finally:
            scheduler.shutdown()

    def test_shutdown_kills_workers_still_busy(self, tmp_path):
        factory = functools.partial(sleepy_factory, delay=5.0)
        scheduler = _scheduler(tmp_path, factory=factory, workers=2)
        job, _ = scheduler.submit("replicate", {"seeds": [0, 1, 2]})
        _wait_for(lambda: len(pool_worker_pids()) >= scheduler.workers)
        start = time.monotonic()
        scheduler.shutdown(timeout=0.2)
        assert time.monotonic() - start < 4.0
        assert pool_worker_pids() == []
        assert scheduler.wait(job.id, timeout=5).state == CANCELLED
