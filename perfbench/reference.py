"""Reference KPIs for a list of cells, each computed with no history.

Reads ``{"names": {result name: catalog name}, "cells": [key, ...]}``
(cell keys as in ``check.py``) on stdin and writes ``[[key, kpis], ...]``
on stdout.  Each cell is one single-seed call of the public API —
``repro.api.replicate(name, [seed])`` or
``repro.api.sweep(parameter, [value], seeds=[seed])`` — made in its own
process, forked from this interpreter right after ``import repro.api``.
So no cell sees another cell's process history: computing one
scenario can shift a later one's KPIs by one ULP (ROADMAP item 4), and
the reference must not.  ``run.py`` starts this script after the timed
region and waits for it.
"""

import json
import os
import sys
import traceback

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import repro.api as api  # noqa: E402


def reference(key, names):
    if key[0] == "scenario":
        _, name, seed = key
        return api.replicate(names[name], [seed])[0]
    _, parameter, value, seed = key
    return api.sweep(parameter, [value], seeds=[seed]).points[0].metrics[0]


def in_fresh_process(key, names):
    """``reference(key)`` in a child forked from this import-only state."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 0
        try:
            with os.fdopen(write_end, "w") as out:
                json.dump(reference(key, names), out)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as result:
        data = result.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"reference cell {key} failed")
    return json.loads(data)


def main():
    request = json.load(sys.stdin)
    json.dump([[key, in_fresh_process(key, request["names"])]
               for key in request["cells"]], sys.stdout)


if __name__ == "__main__":
    main()
