"""The run path imports and keeps only what it uses.

* scipy serves only compare statistics and networkx only the analytics
  helpers, so running experiments through :mod:`repro.api` must not
  import either (checked in a fresh interpreter, where nothing else has
  loaded them yet);
* KPI-returning calls run one cell at a time and drop each history
  before the next cell starts.
"""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import repro
from repro.simulation import baseline_timeline, megamart_timeline, run_sweep
from repro.simulation.experiment import (
    compare_scenarios,
    extract_metrics,
    replicate,
    replicate_metrics,
)
from repro.simulation.runner import LongitudinalRunner

SRC = str(Path(repro.__file__).resolve().parents[1])

COLD_SCRIPT = """
import sys
import repro.api as api

cache_dir = sys.argv[1]
api.replicate("hackathon", seeds=1)
api.replicate("hybrid-balanced", seeds=[3], cache=True, cache_dir=cache_dir)
result = api.compare("hackathon", "traditional", seeds=2)
api.compare("hackathon", "traditional", seeds=2, cache=True,
            cache_dir=cache_dir)
api.sweep("cadence", values=[2.0, 6.0], seeds=1)
api.sweep("cadence", values=[2.0, 6.0], seeds=1, cache=True,
          cache_dir=cache_dir)
loaded = sorted(m for m in ("scipy", "networkx") if m in sys.modules)
assert not loaded, loaded
comparisons = result.all_comparisons()
assert comparisons and "scipy" in sys.modules
print(len(comparisons))
"""


def test_run_path_leaves_scipy_and_networkx_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", COLD_SCRIPT, str(tmp_path / "store")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.strip()) > 0


class _RecordingRunner(LongitudinalRunner):
    def run(self):
        history = super().run()
        self.produced.append(weakref.ref(history))
        return history


class _Recorder:
    """A runner factory that remembers every history it produced (by
    weak reference) and, whenever it is asked for the next runner,
    how many of those histories were still alive."""

    def __init__(self):
        self.produced = []
        self.alive_at_start = []

    def __call__(self, scenario):
        self.alive_at_start.append(
            sum(ref() is not None for ref in self.produced)
        )
        runner = _RecordingRunner(scenario)
        runner.produced = self.produced
        return runner


class TestOneHistoryAtATime:
    def test_compare_drops_each_history_before_the_next_cell(self):
        recorder = _Recorder()
        result = compare_scenarios(
            megamart_timeline(), baseline_timeline(), seeds=[0, 1, 2],
            runner_factory=recorder,
        )
        assert len(recorder.produced) == 6
        assert recorder.alive_at_start == [0] * 6
        assert all(ref() is None for ref in recorder.produced)
        assert result.metrics_a == [
            extract_metrics(h) for h in replicate(megamart_timeline(), [0, 1, 2])
        ]

    def test_replicate_metrics_and_sweep_hold_one_history(self):
        recorder = _Recorder()
        got = replicate_metrics(megamart_timeline(), [4, 5],
                                runner_factory=recorder)
        assert got == [
            extract_metrics(h) for h in replicate(megamart_timeline(), [4, 5])
        ]
        run_sweep(
            "seed-offset", [0, 10], lambda v, s: megamart_timeline(seed=v + s),
            seeds=[1, 2], runner_factory=recorder,
        )
        assert len(recorder.produced) == 6
        assert recorder.alive_at_start == [0] * 6

    def test_replicate_still_returns_live_histories(self):
        recorder = _Recorder()
        histories = replicate(megamart_timeline(), [0, 1],
                              runner_factory=recorder)
        assert [ref() for ref in recorder.produced] == histories
