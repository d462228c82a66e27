"""Command-line interface.

Eleven subcommands, all seeded and deterministic:

* ``repro-sim run`` — run one timeline and print the per-plenary table.
* ``repro-sim compare`` — hackathon vs traditional over N seeds.
* ``repro-sim figures`` — regenerate the paper's Figs. 1-4 as text.
* ``repro-sim hackathon`` — one standalone hackathon event.
* ``repro-sim sweep`` — sweep hackathon cadence or session length.
* ``repro-sim export`` — run a timeline and export the full history.
* ``repro-sim scenarios`` — list, show or validate scenario specs.
* ``repro-sim cache`` — inspect, garbage-collect or clear the run store.
* ``repro-sim serve`` — serve compare/sweep/replicate jobs over HTTP
  from one asyncio event loop.
* ``repro-sim job`` — watch a served job's live event stream or page
  through the server's job table.
* ``repro-sim metrics`` — print metrics (local or scraped off a server).

Scenario names resolve through the shared plugin catalog
(:mod:`repro.registry`): builtin timelines, bundled plugin families
(virtual/hybrid/adversarial), anything registered via the
``repro.plugins`` entry-point group or the ``REPRO_PLUGINS``
environment variable, and ``scenario-spec/v1`` JSON/TOML files —
``compare --scenario path/to/spec.toml`` works like any registered
name.

``compare`` and ``sweep`` run through :mod:`repro.api` (the path a
served job takes).  They take ``--workers N`` to fan seeds out over a
process pool, and ``--cache`` to memoize per-seed KPI dictionaries in
the content-addressed run store (``--cache-dir``, default
``.repro-cache``) so repeated invocations only compute missing cells.
``--trace PATH`` (also on ``serve``) records a span tree of where the
wall time went and writes it as JSONL — see :mod:`repro.obs`.
``serve`` turns the same machinery into a shared HTTP backend with a
coalescing, bounded job queue (see :mod:`repro.service`).

Errors raised by the library (unknown scenarios, invalid knobs, bad
flag combinations) exit with code 2 and a one-line ``error: ...``
message instead of a traceback.

Usage (installed via the ``repro-sim`` console script, or
``python -m repro.cli``)::

    repro-sim run --timeline hackathon --seed 3
    repro-sim compare --seeds 5 --workers 4 --cache
    repro-sim compare --scenario hybrid-balanced --baseline hackathon
    repro-sim sweep --parameter remote-share --seeds 2
    repro-sim scenarios list
    repro-sim scenarios validate examples/scenario_specs/*.toml
    repro-sim serve --port 8347 --workers 4 --queue-depth 32
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from contextlib import nullcontext

from repro import RngHub, api, build_framework, megamart2
from repro.errors import ConfigurationError, ReproError
from repro.obs import REGISTRY, tracing
from repro.core.variants import ALL_VARIANTS, build_variant_event
from repro.culture import MEGAMART_COUNTRIES, render_ascii_chart
from repro.reporting import (
    ascii_table,
    bar_chart,
    export_history_json,
    export_trajectory_csv,
    histogram,
    to_json,
)
from repro.registry import CATALOG, load_spec_file
from repro.simulation import LongitudinalRunner, megamart_timeline
from repro.store import DEFAULT_CACHE_DIR, RunCache

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Simulate collaboration dynamics in large collaborative "
        "projects (MegaM@Rt2 hackathon case study, DATE 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    timelines = CATALOG.scenario_names()

    run = sub.add_parser("run", help="run one timeline end to end")
    run.add_argument("--timeline", choices=timelines, default="hackathon")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also export totals as JSON")

    compare = sub.add_parser("compare",
                             help="hackathon vs traditional over N seeds")
    compare.add_argument("--seeds", type=int, default=3,
                         help="number of replicate seeds (default 3)")
    compare.add_argument("--scenario", default="hackathon", metavar="SPEC",
                         help="intervention arm: a catalog name or a "
                              "scenario-spec file (default hackathon)")
    compare.add_argument("--baseline", default="traditional", metavar="SPEC",
                         help="baseline arm: a catalog name or a "
                              "scenario-spec file (default traditional)")
    _add_execution_options(compare)

    figures = sub.add_parser("figures", help="regenerate Figs. 1-4 as text")
    figures.add_argument("--seed", type=int, default=0)

    hack = sub.add_parser("hackathon", help="run one standalone hackathon")
    hack.add_argument("--variant", choices=sorted(ALL_VARIANTS),
                      default="megamart")
    hack.add_argument("--seed", type=int, default=0)
    hack.add_argument("--json", metavar="PATH", default=None)

    sweep = sub.add_parser("sweep",
                           help="sweep hackathon cadence or session length")
    sweep.add_argument("--parameter", choices=CATALOG.sweep_names(),
                       default="cadence")
    sweep.add_argument("--seeds", type=int, default=2)
    sweep.add_argument("--scenario", default=None, metavar="SPEC",
                       help="base scenario for sweeps that support one "
                            "(a catalog name or a scenario-spec file)")
    _add_execution_options(sweep)

    export = sub.add_parser("export",
                            help="run a timeline and export the history")
    export.add_argument("--timeline", choices=timelines,
                        default="hackathon")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--json", metavar="PATH", required=True)
    export.add_argument("--trajectory-csv", metavar="PATH", default=None)

    scenarios = sub.add_parser(
        "scenarios", help="list, show or validate scenario specs")
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_action",
                                             required=True)
    scenarios_sub.add_parser("list", help="list every catalog entry")
    show = scenarios_sub.add_parser(
        "show", help="describe one scenario (name or spec file)")
    show.add_argument("spec", metavar="NAME_OR_PATH")
    validate = scenarios_sub.add_parser(
        "validate", help="check scenario-spec files without running them")
    validate.add_argument("specs", metavar="PATH", nargs="+")

    cache = sub.add_parser("cache",
                           help="inspect or maintain the run store")
    cache.add_argument("action", choices=("stats", "gc", "clear"))
    cache.add_argument("--cache-dir", metavar="DIR",
                       default=DEFAULT_CACHE_DIR,
                       help=f"store location (default {DEFAULT_CACHE_DIR})")

    serve = sub.add_parser(
        "serve", help="serve simulation jobs over HTTP")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8347,
                       help="bind port; 0 picks a free one (default 8347)")
    serve.add_argument("--workers", type=int, default=1,
                       help="jobs run at once; from 2 up, also the size of "
                            "the one worker-process pool that lives as long "
                            "as the server (default 1: one job at a time, "
                            "computed in the server process)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       default=DEFAULT_CACHE_DIR,
                       help=f"run store location (default {DEFAULT_CACHE_DIR})")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max queued jobs before 429s (default 64)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="retries after a worker crash (default 2)")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="write served jobs' span trees as JSONL on "
                            "shutdown")

    job = sub.add_parser(
        "job", help="watch or list jobs on a running serve endpoint")
    job_sub = job.add_subparsers(dest="job_action", required=True)
    watch = job_sub.add_parser(
        "watch", help="stream one job's live events (SSE-equivalent)")
    watch.add_argument("job_id", metavar="JOB_ID")
    watch.add_argument("--url", metavar="URL",
                       default="http://127.0.0.1:8347",
                       help="serve endpoint (default "
                            "http://127.0.0.1:8347)")
    watch.add_argument("--after", type=int, default=0,
                       help="resume after this event seq (default 0)")
    listing = job_sub.add_parser(
        "list", help="page through the server's job table")
    listing.add_argument("--url", metavar="URL",
                         default="http://127.0.0.1:8347",
                         help="serve endpoint (default "
                              "http://127.0.0.1:8347)")
    listing.add_argument("--state", default=None,
                         choices=("queued", "running", "done", "failed",
                                  "cancelled"),
                         help="only jobs in this state")
    listing.add_argument("--limit", type=int, default=50,
                         help="page size (default 50)")

    metrics = sub.add_parser(
        "metrics", help="print metrics in Prometheus text format")
    metrics.add_argument("--url", metavar="URL", default=None,
                         help="scrape a running repro-sim serve endpoint "
                              "instead of this process")
    return parser


def _add_execution_options(sub_parser: argparse.ArgumentParser) -> None:
    """``--workers`` / ``--cache`` knobs shared by compare and sweep."""
    sub_parser.add_argument(
        "--workers", type=int, default=1,
        help="processes for the per-seed runs (default 1 = serial)")
    sub_parser.add_argument(
        "--cache", action="store_true",
        help="memoize per-seed KPI results in the run store")
    sub_parser.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"store location (default {DEFAULT_CACHE_DIR})")
    sub_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span tree of the run and write it as JSONL")


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = CATALOG.resolve(args.timeline, seed=args.seed)
    history = LongitudinalRunner(scenario).run()
    rows = [
        [r.spec.name, r.spec.kind, len(r.meeting.attendee_ids),
         round(r.meeting.technical_share, 2),
         r.network_metrics.inter_org_ties, r.applications_started]
        for r in history.records
    ]
    print(ascii_table(
        ["plenary", "kind", "attendees", "tech share", "inter-org ties",
         "tool apps"],
        rows, title=f"timeline {scenario.name!r} (seed {args.seed})",
    ))
    print("\ntotals:")
    for key in sorted(history.totals):
        print(f"  {key}: {history.totals[key]:.2f}")
    if args.json:
        to_json(args.json, history.totals)
        print(f"\ntotals written to {args.json}")
    return 0


def _check_execution_options(args: argparse.Namespace) -> None:
    if args.seeds < 1:
        raise ConfigurationError(f"--seeds must be >= 1, got {args.seeds}")
    if args.workers < 1:
        raise ConfigurationError(
            f"--workers must be >= 1, got {args.workers}"
        )


def _print_trace_summary(args: argparse.Namespace) -> None:
    if args.trace:
        print(f"\ntrace written to {args.trace}")


def _arm_label(spec: str, name: str) -> str:
    """Column label for a compare arm: the name as the user typed it,
    or the resolved scenario name when the spec was a file path."""
    from repro.registry import looks_like_spec_path

    return name if looks_like_spec_path(spec) else spec


def _execution_kwargs(args: argparse.Namespace) -> dict:
    """The ``repro.api`` keywords that ``compare`` and ``sweep`` flags set."""
    return {"seeds": args.seeds, "workers": args.workers,
            "cache": args.cache, "cache_dir": args.cache_dir,
            "trace": args.trace}


def _cache_counts() -> Tuple[float, float]:
    return (REGISTRY.counter("cache_hits_total").value,
            REGISTRY.counter("cache_misses_total").value)


def _print_cache_summary(args: argparse.Namespace,
                         before: Tuple[float, float]) -> None:
    """With ``--cache``, the cells served and computed since ``before``."""
    if args.cache:
        hits, misses = _cache_counts()
        print(f"\ncache: {hits - before[0]:.0f} hit(s), "
              f"{misses - before[1]:.0f} computed ({args.cache_dir})")


def _cmd_compare(args: argparse.Namespace) -> int:
    _check_execution_options(args)
    # Both arms resolve through the catalog: registered names (builtin
    # or plugin) and scenario-spec files are interchangeable here.
    before = _cache_counts()
    result = api.compare(args.scenario, args.baseline,
                         **_execution_kwargs(args))
    label_a = _arm_label(args.scenario, result.name_a)
    label_b = _arm_label(args.baseline, result.name_b)
    rows = []
    for comparison in result.all_comparisons():
        rows.append([
            comparison.metric,
            round(comparison.summary_a.mean, 1),
            round(comparison.summary_b.mean, 1),
            "inf" if comparison.ratio == float("inf")
            else round(comparison.ratio, 1),
            round(comparison.test.p_value, 4),
        ])
    print(ascii_table(
        ["KPI", label_a, label_b, "ratio", "p (MWU)"],
        rows, title=f"{label_a} vs {label_b} over {args.seeds} seeds",
    ))
    _print_cache_summary(args, before)
    _print_trace_summary(args)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    history = LongitudinalRunner(megamart_timeline(seed=args.seed)).run()
    helsinki = history.record_for("Helsinki")

    print("FIG1 — Hofstede country comparison")
    print(render_ascii_chart(MEGAMART_COUNTRIES, width=30))

    print("FIG2 — challenge evaluation (criterion means, 0-5)")
    for challenge_id, means in helsinki.outcome.score_table()[:3]:
        print(f"  {challenge_id}")
        for criterion, mean in means.items():
            print(f"    {criterion:<26} {mean:.2f}")

    print("\nFIG3 — best parts of the plenary")
    print(bar_chart(helsinki.survey.best_parts_ranked(), width=30))

    print("\nFIG4 — comment sentiment")
    print(histogram(helsinki.sentiment, width=30))
    return 0


def _cmd_hackathon(args: argparse.Namespace) -> int:
    hub = RngHub(args.seed)
    consortium = megamart2(hub)
    framework = build_framework(consortium, hub)
    variant = ALL_VARIANTS[args.variant]()
    event = build_variant_event(variant, consortium, framework, hub)
    outcome = event.run(consortium.members)

    print(f"variant: {variant.key} — {variant.description}")
    rows = [
        [score.challenge_id, round(score.overall, 2),
         outcome.demo_for(score.challenge_id).is_convincing]
        for score in outcome.scores
    ]
    print(ascii_table(["challenge", "overall score", "convincing"], rows))
    print(f"showcases: {', '.join(outcome.showcase_ids)}")
    if args.json:
        payload = {
            "variant": variant.key,
            "scores": {s.challenge_id: s.overall for s in outcome.scores},
            "showcases": outcome.showcase_ids,
            "convincing": len(outcome.convincing_demos()),
        }
        to_json(args.json, payload)
        print(f"outcome written to {args.json}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_execution_options(args)
    # The sweepable parameters live in one registry shared with the
    # HTTP service, so CLI sweeps and served sweeps stay identical.
    before = _cache_counts()
    result = api.sweep(args.parameter, base=args.scenario,
                       **_execution_kwargs(args))
    metrics = ("convincing_demos", "knowledge_transferred",
               "final_burnout_rate")
    print(ascii_table(
        [args.parameter] + list(metrics),
        result.table_rows(metrics),
        title=f"sweep of {args.parameter} over {args.seeds} seed(s)",
    ))
    _print_cache_summary(args, before)
    _print_trace_summary(args)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    scenario = CATALOG.resolve(args.timeline, seed=args.seed)
    history = LongitudinalRunner(scenario).run()
    path = export_history_json(history, args.json)
    print(f"history written to {path}")
    if args.trajectory_csv:
        csv_path = export_trajectory_csv(history, args.trajectory_csv)
        print(f"trajectory written to {csv_path}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.scenarios_action == "list":
        listing = CATALOG.describe()
        print(ascii_table(
            ["scenario", "plugin", "source", "plenaries", "hackathons"],
            [[s["name"], s["plugin"], s["source"], s["plenaries"],
              s["hackathons"]] for s in listing["scenarios"]],
            title="scenario catalog",
        ))
        print()
        print(ascii_table(
            ["sweep parameter", "plugin", "default grid", "base?"],
            [[p["name"], p["plugin"],
              ", ".join(p["labels"]), "yes" if p["supports_base"] else "no"]
             for p in listing["sweep_parameters"]],
            title="sweepable parameters",
        ))
        return 0
    if args.scenarios_action == "show":
        from repro.registry import looks_like_spec_path

        if looks_like_spec_path(args.spec):
            entry = load_spec_file(args.spec)
        else:
            entry = CATALOG.scenario(args.spec)
        info = entry.describe()
        scenario = entry.build()
        for key in ("name", "plugin", "spec_version", "source",
                    "description"):
            print(f"{key}: {info[key]}")
        print(f"scenario name: {scenario.name}")
        print(f"plenaries ({len(scenario.plenaries)}):")
        for spec in scenario.plenaries:
            lane = (f", remote_share={spec.remote_share:g}"
                    if spec.remote_share is not None else "")
            print(f"  month {spec.month:>5.1f}  {spec.kind:<12} "
                  f"{spec.mode}{lane}  — {spec.name}")
        return 0
    # validate: parse every file, fail on the first malformed one with
    # the usual one-line exit-2 error.
    for path in args.specs:
        entry = load_spec_file(path)
        scenario = entry.build()
        print(f"ok: {path} -> {scenario.name!r} "
              f"(plugin {entry.plugin}, {len(scenario.plenaries)} "
              f"plenaries)")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "stats" and not os.path.isdir(args.cache_dir):
        print(f"cache {args.cache_dir!r} is empty (directory not created)")
        return 0
    cache = RunCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        rows = [
            ["scenarios (fingerprints)", stats.fingerprints],
            ["cached runs", stats.runs],
            ["hits recorded", stats.hits_recorded],
            ["misses recorded", stats.misses_recorded],
            ["hit ratio", round(stats.hit_ratio, 3)],
            ["objects on disk", stats.objects],
            ["store size (KiB)", round(stats.total_bytes / 1024, 1)],
        ]
        print(ascii_table(["metric", "value"], rows,
                          title=f"run store at {args.cache_dir}"))
    elif args.action == "gc":
        report = cache.gc()
        print(
            f"gc: removed {report['blobs_removed']} unreferenced blob(s), "
            f"dropped {report['runs_dropped']} dangling run(s)"
        )
    else:  # clear
        cache.clear()
        print(f"cleared run store at {args.cache_dir}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the offline subcommands never pay for the
    # service stack.
    from repro.service.asyncserver import build_async_server, serve_async

    server = build_async_server(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_retries=args.max_retries,
    )
    thread = serve_async(server)
    print(f"repro-sim service on http://{args.host}:{server.server_port} "
          f"(asyncio, workers={args.workers}, "
          f"queue-depth={args.queue_depth}, cache={args.cache_dir})")
    print("endpoints: POST/GET /v1/jobs  GET /v1/jobs/{id}[/result]  "
          "GET /v1/jobs/{id}/events (SSE|JSONL)  DELETE /v1/jobs/{id}  "
          "GET /v1/scenarios  GET /v1/cache/stats  GET /v1/metrics  "
          "GET /healthz")
    try:
        with tracing(args.trace) if args.trace else nullcontext():
            thread.join()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown()
        server.server_close()
        _print_trace_summary(args)
    return 0


def _cmd_job(args: argparse.Namespace) -> int:
    # Imported here so the offline path never pays for the client.
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.job_action == "watch":
        for event in client.watch_job(args.job_id, after=args.after):
            line = (f"[{event['seq']:>4}] {event['event']:<7}"
                    f" {_event_detail(event)}")
            print(line, flush=True)
        return 0
    # list
    page = client.jobs(state=args.state, limit=args.limit)
    rows = [
        [j["id"], j["kind"], j["state"],
         f"{j['progress']['cells_done']}/{j['progress']['cells_total']}",
         j["attempts"], j["waiters"]]
        for j in page["jobs"]
    ]
    print(ascii_table(
        ["job", "kind", "state", "cells", "attempts", "waiters"],
        rows, title=f"{page['count']} job(s) on {args.url}",
    ))
    if page["next_cursor"]:
        print(f"more: --limit {args.limit} "
              f"(next cursor {page['next_cursor']})")
    return 0


def _event_detail(event: dict) -> str:
    """One-line human rendering of a job event's payload."""
    etype = event["event"]
    if etype == "state":
        detail = event["state"]
        if event.get("error"):
            detail += f" — {event['error']}"
        return detail
    if etype == "cell":
        source = "cache" if event.get("cached") else "computed"
        return (f"{event['done']}/{event['total']} ({source}, "
                f"attempt {event['attempt']})")
    if etype == "retry":
        return f"attempt {event['attempt']} — {event.get('error', '')}"
    if etype == "detach":
        return f"{event['waiters']} waiter(s) remain"
    return ""


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.url:
        # Imported here so the offline path never pays for the client.
        from repro.service.client import ServiceClient

        sys.stdout.write(ServiceClient(args.url).metrics_text())
    else:
        sys.stdout.write(REGISTRY.render_prometheus())
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "figures": _cmd_figures,
    "hackathon": _cmd_hackathon,
    "sweep": _cmd_sweep,
    "export": _cmd_export,
    "scenarios": _cmd_scenarios,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "job": _cmd_job,
    "metrics": _cmd_metrics,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Library errors (:class:`~repro.errors.ReproError`) exit 2 with a
    one-line message on stderr instead of a raw traceback, so shell
    callers can branch on the exit code.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
