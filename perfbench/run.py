"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cached_jobs --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same loop untraced and then traced, and prints the per-layer metrics.
The line before the last is a JSON report: provenance, percentiles
with their sample counts, counter deltas with ratio bases, the output
digest and every problem the checks found.  The last line is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything the run writes lives under ``.bench_tmp/`` in the checkout
and is removed before it exits; processes it starts are waited for,
and any child still present at the end fails the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Files the benchmark must never create or change.
GUARDED = (".repro-cache", "BENCH_perf.json")
REFERENCE_TIMEOUT_S = 120.0


class Interrupted(KeyboardInterrupt):
    """SIGTERM or SIGINT arrived; unwind through every ``finally``.

    A ``KeyboardInterrupt`` subclass, because asyncio re-raises those out
    of the event loop (cancelling the client tasks) instead of treating
    them as a failed read on one connection.
    """


def _interrupt(signum: int, _frame: Any) -> None:
    raise Interrupted(signal.Signals(signum).name)


def children() -> List[int]:
    pids = set()
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids.update(int(p) for p in
                        (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(pids)


def reap_children() -> List[str]:
    """Kill and reap every child still present; describe each one."""
    found = []
    for pid in children():
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
            name = cmdline.replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            name = "?"
        found.append(f"child process {pid} left running: {name.strip()}")
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return found


def guard_state() -> Dict[str, Optional[tuple]]:
    state = {}
    for name in GUARDED:
        try:
            st = (ROOT / name).stat()
            state[name] = (st.st_mtime_ns, st.st_size)
        except FileNotFoundError:
            state[name] = None
    return state


def commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            return (git / ref).read_text().strip()
        except FileNotFoundError:
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes), for runs outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def reference(sample: Dict[tuple, Any], names: Dict[str, str],
              tmp: str) -> Dict[tuple, Any]:
    """KPIs of ``sample``'s cells from a fresh interpreter."""
    env = dict(os.environ, TMPDIR=tmp, PYTHONDONTWRITEBYTECODE="1")
    # Its own session, so a timeout can kill the per-cell children too.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "reference.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=str(ROOT), env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(
            json.dumps({"names": names, "cells": [list(k) for k in sample]}),
            timeout=REFERENCE_TIMEOUT_S,
        )
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"reference failed: {err[-2000:]}")
    return {tuple(k): v for k, v in json.loads(out)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    # KPIs depend on the interpreter's string-hash seed by one ULP (see
    # README.md), so it is an input like any other: derived from the
    # workload seed and shared with the reference, which makes a run
    # reproducible and its check compare like with like.
    hash_seed = str(zlib.crc32(f"{args.workload}/{args.seed}".encode()))
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=hash_seed))

    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    guard = guard_state()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=tmp_root)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        start = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import numpy
        import workloads
        import_s = time.perf_counter() - start

        if args.workload not in workloads.WORKLOADS:
            print(f"unknown workload {args.workload!r}; known: "
                  f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        run = workloads.WORKLOADS[args.workload]
        result = run(args.seed, args.seconds, bool(args.trace), import_s)

        from check import compare_cells, digest

        problems = list(result.problems)
        if not result.sample:
            problems.append("no cells sampled for the reference check")
        problems.extend(compare_cells(
            reference(result.sample, workloads.result_names(), tmp),
            result.sample))
    except Interrupted as exc:
        print(f"interrupted by {exc}; cleaned up, no result",
              file=sys.stderr)
        return 128 + (signal.SIGTERM if str(exc) == "SIGTERM"
                      else signal.SIGINT)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        leftovers = reap_children()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    problems.extend(leftovers)
    if os.path.exists(tmp):
        problems.append(f"temporary directory {tmp} not removed")
    if guard_state() != guard:
        problems.append(f"one of {GUARDED} was created or changed")

    table = PER_LAYER if args.trace else END_TO_END
    if set(result.metrics) != set(table):
        raise RuntimeError(f"metrics {sorted(result.metrics)} do not match "
                           f"the table {sorted(table)}")
    report = dict(result.report)
    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "pythonhashseed": hash_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "digest": digest(result.digest_cells),
        "digest_cells": len(result.digest_cells),
        "reference_cells": len(result.sample),
        "problems": problems,
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
