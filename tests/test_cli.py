"""Tests for the command-line interface."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.runner import ResultCache


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep every CLI invocation's result cache out of the repo tree."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


class TestInfo:
    def test_lists_architectures_and_thresholds(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("up-OFS", "up-HDFS", "out-OFS", "out-HDFS"):
            assert name in out
        assert "32GB" in out and "16GB" in out and "10GB" in out
        assert "wordcount" in out


class TestRun:
    def test_runs_job_and_prints_phases(self, capsys):
        assert main(["run", "--app", "grep", "--size", "1GB", "--arch", "up-OFS"]) == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "map phase" in out
        assert "scale-up" in out

    def test_hybrid_routes_by_size(self, capsys):
        assert main(["run", "--app", "wordcount", "--size", "1GB"]) == 0
        assert "scale-up" in capsys.readouterr().out

    def test_unknown_arch_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--arch", "mainframe"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Hybrid" in err  # --help/errors enumerate the architectures

    def test_infeasible_job_reports_capacity(self, capsys):
        code = main(["run", "--app", "wordcount", "--size", "200GB",
                     "--arch", "up-HDFS"])
        assert code == 1
        assert "infeasible" in capsys.readouterr().out

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        import json

        path = tmp_path / "run.json"
        assert main(["run", "--app", "grep", "--size", "1GB",
                     "--arch", "up-OFS", "--trace-out", str(path)]) == 0
        assert "written to" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"X", "i", "C", "M"} <= phases


class TestSweep:
    def test_custom_sizes_print_four_panels(self, capsys):
        assert main(["sweep", "--app", "grep", "--sizes", "1GB,4GB"]) == 0
        out = capsys.readouterr().out
        assert "normalized execution time" in out
        assert "shuffle phase duration" in out
        assert "reduce phase duration" in out
        assert "4GB" in out

    def test_parallel_sweep_reports_runner_stats(self, capsys):
        assert main(["sweep", "--app", "grep", "--sizes", "1GB,2GB",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "[runner]" in out
        assert "8 cells" in out

    def test_workers_flag_is_uniform_across_grid_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in (["sweep"], ["crosspoints"], ["replay"],
                        ["resilience"], ["figures"]):
            args = parser.parse_args(command + ["--workers", "2"])
            assert args.workers == 2, command

    def test_second_run_is_fully_cached(self, capsys):
        args = ["sweep", "--app", "grep", "--sizes", "1GB,2GB"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "8 simulated" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "8 cached, 0 simulated" in second
        # Identical tables either way.
        assert first.split("[runner]")[0] == second.split("[runner]")[0]

    def test_no_cache_always_simulates(self, capsys):
        args = ["sweep", "--app", "grep", "--sizes", "1GB", "--no-cache"]
        for _ in range(2):
            assert main(args) == 0
            assert "4 simulated" in capsys.readouterr().out


class TestCache:
    def test_reports_empty_store(self, capsys):
        assert main(["cache"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_inventories_and_clears(self, capsys):
        assert main(["sweep", "--app", "grep", "--sizes", "1GB"]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out
        assert "isolated" in out and "ok" in out
        assert main(["cache", "--clear"]) == 0
        assert "cleared 4" in capsys.readouterr().out
        assert main(["cache"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_explicit_dir_option(self, tmp_path, capsys):
        assert main(["cache", "--dir", str(tmp_path / "elsewhere")]) == 0
        out = capsys.readouterr().out
        assert "elsewhere" in out and "empty" in out

    def test_stats_counts_holes_by_error_type(self, capsys):
        assert main(["sweep", "--app", "grep", "--sizes", "1GB"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "results.sqlite" in out and "4 entries" in out

    def test_migrate_then_sqlite_grid_is_warm(self, tmp_path, capsys):
        # A legacy cache kept one ab/<key>.json file per cell.  Rebuild
        # one from a cold sweep's payloads, then empty the store.
        assert main(["sweep", "--app", "grep", "--sizes", "1GB"]) == 0
        capsys.readouterr()
        root = tmp_path / "repro-cache"
        for key, payload in ResultCache(root).entries():
            path = root / key[:2] / f"{key}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(payload, sort_keys=True))
        assert main(["cache", "--clear"]) == 0
        capsys.readouterr()
        assert main(["cache", "migrate"]) == 0
        assert "migrated 4 entries" in capsys.readouterr().out
        # The migrated store serves the same grid without simulating.
        assert main(["sweep", "--app", "grep", "--sizes", "1GB"]) == 0
        out = capsys.readouterr().out
        assert "4 cached" in out and "0 simulated" in out

    def test_vacuum_reports_sizes(self, capsys):
        assert main(["sweep", "--app", "grep", "--sizes", "1GB"]) == 0
        capsys.readouterr()
        assert main(["cache", "vacuum"]) == 0
        assert "vacuumed store" in capsys.readouterr().out

    def test_sqlite_store_round_trips(self, capsys):
        assert main(["sweep", "--app", "grep", "--sizes", "1GB"]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "results.sqlite" in out and "4 entries" in out
        assert main(["cache", "--clear"]) == 0
        assert "cleared 4" in capsys.readouterr().out


class TestMission:
    def test_renders_from_frames_file(self, tmp_path, capsys):
        from repro.telemetry.bus import KIND_RUNNER, MetricsBus

        bus = MetricsBus(tmp_path / "frames.ndjson")
        bus.publish(KIND_RUNNER, 0.5, {"cells": 4, "done": 4,
                                       "cache_hits": 0, "simulated": 4,
                                       "infeasible": 0, "failures": 0,
                                       "retries": 0, "timeouts": 0,
                                       "store": "json"})
        out_path = tmp_path / "mission.html"
        assert main(["mission", "--frames", str(tmp_path / "frames.ndjson"),
                     "--out", str(out_path)]) == 0
        assert "1 frame(s)" in capsys.readouterr().out
        html = out_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html and "http://" not in html

    def test_requires_exactly_one_source(self, capsys):
        assert main(["mission"]) == 1
        assert "exactly one" in capsys.readouterr().err


class TestTrace:
    def test_prints_cdf_and_shares(self, capsys):
        assert main(["trace", "--jobs", "500", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "CDF" in out
        assert "<1MB" in out

    def test_writes_trace_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["trace", "--jobs", "50", "--out", str(path)]) == 0
        assert path.exists()
        from repro.workload.trace import Trace

        assert len(Trace.load(path)) == 50


class TestReplay:
    def test_prints_percentile_table(self, capsys):
        assert main(["replay", "--jobs", "60"]) == 0
        out = capsys.readouterr().out
        assert "Hybrid" in out and "THadoop" in out and "RHadoop" in out
        assert "scale-up jobs" in out and "scale-out jobs" in out

    def test_empty_job_class_prints_dashes(self, capsys):
        # All seven jobs of this trace are scale-up jobs.
        assert main(["replay", "--jobs", "7", "--seed", "3"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if "scale-out jobs" in line]
        assert len(rows) == 3
        assert all(row[-4:] == ["-"] * 4 for row in rows)

    def test_trace_out_records_hybrid_replay(self, tmp_path, capsys):
        import json

        path = tmp_path / "replay.json"
        assert main(["replay", "--jobs", "20", "--trace-out", str(path)]) == 0
        assert "Hybrid replay trace" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        categories = {
            e["cat"] for e in payload["traceEvents"] if e["ph"] != "M"
        }
        assert {"job", "task", "storage", "scheduler"} <= categories


class TestObservedReplayPins:
    """``replay --trace-out/--metrics-out/--timeline`` write the bytes the
    former ``trace-export``, ``metrics --out`` and ``timeline`` commands
    wrote for the same trace."""

    @pytest.mark.parametrize("args, digests", [
        (("--jobs", "30"), (
            "33477767dba067c8ebfc717e8041022ceff03f7d660cde56ea75134c793e3c1d",
            "fbe980795c790b671f77a07f76e996e46aa5ce4086854bad8e271fdc3c835e15",
            "eedaa121e93cff32993602f2ea2f4319197a34a7ea6e79b88d37bb4b0a89bcfb",
        )),
        (("--jobs", "7", "--seed", "3"), (
            "23421c099b2492361b8d380dbf51675de06839ee1ebd49f87194c33a1ce640cf",
            "4f2055c95546d7e6b2ac1bc8b2be154c24eb5bfd805d49aada8439ee1e839158",
            "3bffbd231ddcbadb78e169bea761048d319e777c0d7abfeee3bc7c93f281d840",
        )),
    ])
    def test_outputs_are_byte_identical(self, tmp_path, capsys, args, digests):
        trace, dump = tmp_path / "trace.json", tmp_path / "metrics.json"
        assert main(["replay", *args, "--trace-out", str(trace),
                     "--metrics-out", str(dump), "--timeline"]) == 0
        out = capsys.readouterr().out
        # The timeline follows the table's blank line and precedes the
        # "written to" lines of the two files.
        timeline = out.split("\n\n", 1)[1]
        timeline = timeline[:timeline.index("Hybrid replay trace")]
        assert tuple(
            hashlib.sha256(data).hexdigest()
            for data in (trace.read_bytes(), dump.read_bytes(), timeline.encode())
        ) == digests


class TestTraceExport:
    def test_writes_perfetto_loadable_json(self, tmp_path, capsys):
        path = tmp_path / "export.json"
        assert main(["replay", "--jobs", "20", "--trace-out", str(path)]) == 0
        assert "Hybrid replay trace" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        names = {e["name"] for e in payload["traceEvents"]}
        assert "job_submit" in names and "map_task" in names


class TestMetrics:
    def test_prints_and_dumps_registry(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["replay", "--jobs", "20", "--metrics-out", str(path)]) == 0
        assert "Hybrid replay metrics written" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        completed = [k for k in payload if k.endswith("jobs_completed")]
        assert completed and sum(payload[k] for k in completed) == 20


class TestTimeline:
    def test_renders_gantt_and_totals(self, capsys):
        assert main(["replay", "--jobs", "8", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert out.index("Fig 10") < out.index("legend")
        assert "phase totals" in out
        assert "fb2009-00000" in out


class TestAdvise:
    def test_recommends_a_split(self, capsys):
        assert main(["advise", "--jobs", "40", "--objective", "p50"]) == 0
        out = capsys.readouterr().out
        assert "equal-cost splits" in out
        assert "recommended (p50):" in out
        assert "2up+12out" in out


class TestFigures:
    def test_writes_all_panels(self, tmp_path, capsys):
        assert main(["figures", "--out", str(tmp_path), "--jobs", "200"]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        for stem in ("fig3", "fig5_wordcount", "fig6_grep", "fig7", "fig8",
                     "fig9_dfsio"):
            assert f"{stem}.txt" in names
            assert f"{stem}.json" in names
        import json

        payload = json.loads((tmp_path / "fig7.json").read_text())
        assert "wordcount_cross_point" in payload["notes"]


class TestServeAndSubmit:
    """The daemon and its client, end to end through the CLI."""

    def _start_daemon(self, tmp_path, extra=()):
        import threading
        import time

        port_file = tmp_path / "port.txt"
        thread = threading.Thread(
            target=main,
            args=(["serve", "--port", "0",
                   "--port-file", str(port_file),
                   "--checkpoint", str(tmp_path / "state.json"),
                   *extra],),
            daemon=True,
        )
        thread.start()
        for _ in range(200):
            if port_file.exists() and port_file.read_text().strip():
                break
            time.sleep(0.05)
        else:
            pytest.fail("daemon never wrote its port file")
        url = f"http://127.0.0.1:{port_file.read_text().strip()}"
        return thread, url

    def test_trace_submit_drain_shutdown(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["trace", "--jobs", "15", "--out", str(trace_path)]) == 0
        capsys.readouterr()

        thread, url = self._start_daemon(tmp_path)
        assert main(["submit", "--url", url, "--trace", str(trace_path),
                     "--drain"]) == 0
        out = capsys.readouterr().out
        assert "15 accepted" in out
        assert "drained: 15/15 finished" in out

        assert main(["submit", "--url", url, "--shutdown"]) == 0
        assert "shut down" in capsys.readouterr().out
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert (tmp_path / "state.json").exists()

    def test_ndjson_file_submit(self, tmp_path, capsys):
        import json

        from repro.core.api import JobSubmission

        batch = tmp_path / "jobs.ndjson"
        batch.write_text("".join(
            json.dumps(
                JobSubmission(job_id=f"j{i}", input_bytes=2**30).to_wire()
            ) + "\n"
            for i in range(5)
        ))
        thread, url = self._start_daemon(tmp_path)
        try:
            assert main(["submit", "--url", url, "--file", str(batch),
                         "--drain"]) == 0
            out = capsys.readouterr().out
            assert "5 accepted" in out and "0 rejected" in out
        finally:
            main(["submit", "--url", url, "--shutdown"])
            thread.join(timeout=10)

    def test_submit_without_action_errors(self, capsys):
        assert main(["submit"]) == 1
        assert "nothing to do" in capsys.readouterr().err

    def test_submit_unreachable_daemon_fails_cleanly(self, capsys):
        assert main(["submit", "--url", "http://127.0.0.1:9",
                     "--drain"]) == 1
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["trace-export"], ["metrics"], ["timeline"],
        ["sweep", "--jobs", "2"], ["crosspoints", "--jobs", "2"],
    ])
    def test_folded_commands_and_jobs_alias_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
