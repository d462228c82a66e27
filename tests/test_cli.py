"""Tests for the repro-sim CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.timeline == "hackathon"
        assert args.seed == 0

    def test_unknown_timeline_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--timeline", "party"])

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hackathon", "--variant", "nope"])

    def test_compare_execution_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.workers == 1
        assert args.cache is False
        assert args.cache_dir == ".repro-cache"

    def test_sweep_accepts_workers_and_cache(self):
        args = build_parser().parse_args(
            ["sweep", "--workers", "4", "--cache", "--cache-dir", "/tmp/c"]
        )
        assert args.workers == 4
        assert args.cache is True
        assert args.cache_dir == "/tmp/c"

    def test_cache_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8347
        assert args.workers == 1
        assert args.queue_depth == 64
        assert args.max_retries == 2
        assert args.cache_dir == ".repro-cache"

    def test_serve_accepts_knobs(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4",
             "--queue-depth", "8", "--cache-dir", "/tmp/c"]
        )
        assert args.port == 0 and args.workers == 4
        assert args.queue_depth == 8 and args.cache_dir == "/tmp/c"
        # serve has one transport, so no flag picks one.
        for flag in ("--legacy", "--async"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", flag])

    def test_docstring_lists_every_subcommand(self):
        """The module docstring count stays in sync with the parser."""
        import repro.cli as cli_module

        documented = {
            line.split("``")[1].split()[1]
            for line in cli_module.__doc__.splitlines()
            if line.startswith("* ``repro-sim ")
        }
        sub_actions = [
            a for a in build_parser()._actions
            if hasattr(a, "choices") and a.choices
            and "compare" in a.choices
        ]
        assert documented == set(sub_actions[0].choices)
        count_words = {1: "One", 2: "Two", 3: "Three", 4: "Four", 5: "Five",
                       6: "Six", 7: "Seven", 8: "Eight", 9: "Nine",
                       10: "Ten", 11: "Eleven", 12: "Twelve"}
        assert cli_module.__doc__.splitlines()[2].startswith(
            f"{count_words[len(documented)]} subcommands"
        )


class TestCommands:
    def test_run_prints_timeline_table(self, capsys):
        assert main(["run", "--timeline", "traditional", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Rome" in out
        assert "totals:" in out

    def test_run_json_export(self, tmp_path, capsys):
        path = tmp_path / "totals.json"
        assert main(["run", "--timeline", "traditional",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert "knowledge_transferred" in payload

    def test_compare(self, capsys):
        assert main(["compare", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "hackathon" in out and "traditional" in out
        assert "new_inter_org_ties" in out

    def test_compare_invalid_seeds(self, capsys):
        assert main(["compare", "--seeds", "0"]) == 2

    def test_compare_invalid_workers(self, capsys):
        assert main(["compare", "--workers", "0"]) == 2

    def test_compare_with_workers(self, capsys):
        assert main(["compare", "--seeds", "1", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "new_inter_org_ties" in out

    def test_figures(self, capsys):
        assert main(["figures", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        for marker in ("FIG1", "FIG2", "FIG3", "FIG4"):
            assert marker in out
        assert "Sweden" in out  # Fig. 1 content
        assert "hackathon session" in out  # Fig. 3 content

    def test_hackathon_variant(self, tmp_path, capsys):
        path = tmp_path / "outcome.json"
        assert main(["hackathon", "--variant", "tghl", "--seed", "2",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Think Global Hack Local" in out
        payload = json.loads(path.read_text())
        assert payload["variant"] == "tghl"
        assert payload["showcases"]


class TestCacheCommands:
    def test_compare_cache_cold_then_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["compare", "--seeds", "1", "--cache",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hit(s), 2 computed" in out
        assert main(["compare", "--seeds", "1", "--cache",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache: 2 hit(s), 0 computed" in out

    def test_compare_cache_extends_seed_range(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["compare", "--seeds", "1", "--cache",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["compare", "--seeds", "2", "--cache",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache: 2 hit(s), 2 computed" in out

    def test_sweep_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["sweep", "--seeds", "1", "--cache",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hit(s), 3 computed" in out

    def test_sweep_invalid_workers(self, capsys):
        assert main(["sweep", "--workers", "0"]) == 2

    def test_cache_stats_missing_dir(self, tmp_path, capsys):
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path / "absent")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_stats_gc_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        main(["compare", "--seeds", "1", "--cache", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cached runs" in out and "| 2" in out
        assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
        assert "removed 0 unreferenced" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "| 0" in capsys.readouterr().out


class TestErrorMapping:
    """Library errors exit 2 with a one-line message, not a traceback."""

    def test_serve_invalid_workers_one_line_error(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "workers" in err
        assert "Traceback" not in err

    def test_serve_invalid_queue_depth(self, capsys):
        assert main(["serve", "--queue-depth", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_compare_invalid_seeds_message(self, capsys):
        assert main(["compare", "--seeds", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--seeds" in err

    def test_export_to_unwritable_path_is_clean(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be")
        target = blocker / "out.json"
        code = main(["export", "--timeline", "traditional",
                     "--json", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestSweepAndExport:
    def test_sweep_cadence(self, capsys):
        assert main(["sweep", "--parameter", "cadence", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "every 1 months" in out
        assert "convincing_demos" in out

    def test_sweep_session_hours(self, capsys):
        assert main(["sweep", "--parameter", "session-hours",
                     "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 x 4 h" in out

    def test_sweep_invalid_seeds(self):
        assert main(["sweep", "--seeds", "0"]) == 2

    def test_export_full_history(self, tmp_path, capsys):
        json_path = tmp_path / "history.json"
        csv_path = tmp_path / "trajectory.csv"
        assert main(["export", "--timeline", "traditional",
                     "--json", str(json_path),
                     "--trajectory-csv", str(csv_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert "plenaries" in payload and "trajectory" in payload
        assert csv_path.exists()

    def test_export_requires_json(self):
        with pytest.raises(SystemExit):
            main(["export"])
