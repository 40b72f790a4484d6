"""CLI telemetry surface: --trace files and the --json telemetry block."""

import json

import pytest

from repro.cli import main
from repro.gdsii import layout_to_gds, write_gds
from repro.layout import figure1_layout


@pytest.fixture
def figure1_gds(tmp_path):
    path = str(tmp_path / "fig1.gds")
    write_gds(layout_to_gds(figure1_layout()), path)
    return path


def load_stdout_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestTraceFlag:
    def test_flow_writes_valid_chrome_trace(self, figure1_gds, tmp_path,
                                            capsys):
        trace = str(tmp_path / "trace.json")
        main(["flow", figure1_gds, "--incremental", "--jobs", "1",
              "--trace", trace])
        with open(trace) as fh:
            data = json.load(fh)
        names = {e["name"] for e in data["traceEvents"]
                 if e["ph"] == "X"}
        assert {"flow", "shifters", "detect", "correct", "verify",
                "assign"} <= names
        assert "otherData" in data

    def test_jsonl_suffix_writes_span_log(self, figure1_gds, tmp_path,
                                          capsys):
        trace = str(tmp_path / "trace.jsonl")
        main(["flow", figure1_gds, "--incremental", "--jobs", "1",
              "--trace", trace])
        with open(trace) as fh:
            records = [json.loads(line) for line in fh]
        assert records[0]["event"] == "span"
        assert records[0]["name"] == "flow"
        assert records[-1]["event"] == "metrics"

    def test_chip_trace_and_pure_json_stdout(self, figure1_gds,
                                             tmp_path, capsys):
        trace = str(tmp_path / "chip-trace.json")
        main(["chip", figure1_gds, "--tiles", "2", "--jobs", "1",
              "--json", "--trace", trace])
        out = load_stdout_json(capsys)  # stdout must stay pure JSON
        assert "telemetry" in out
        with open(trace) as fh:
            data = json.load(fh)
        assert any(e["name"] == "chip" for e in data["traceEvents"])

    def test_verbose_prints_span_summary(self, figure1_gds, tmp_path,
                                         capsys):
        trace = str(tmp_path / "trace.json")
        main(["flow", figure1_gds, "--incremental", "--jobs", "1",
              "--trace", trace, "-v"])
        err = capsys.readouterr().err
        assert "span" in err and "wall_s" in err
        assert "flow" in err


class TestTelemetryBlock:
    def test_flow_json_carries_telemetry(self, figure1_gds, capsys):
        main(["flow", figure1_gds, "--incremental", "--jobs", "1",
              "--json"])
        out = load_stdout_json(capsys)
        telemetry = out["telemetry"]
        roots = telemetry["spans"]
        assert roots[0]["name"] == "flow"
        stage_rows = {c["name"]: c for c in roots[0]["children"]
                      if c["cat"] == "stage"}
        assert set(stage_rows) == {"shifters", "detect", "correct",
                                   "verify", "assign"}
        # The telemetry block repeats the pipeline accounting exactly.
        pipeline = out["pipeline"]
        detect = stage_rows["detect"]["attrs"]
        assert detect["cache_hits"] == pipeline["detect_cache"]["hits"]
        assert (detect["cache_misses"]
                == pipeline["detect_cache"]["misses"])
        assert "cache.tile.misses" in telemetry["metrics"]["counters"]
        # Each stage row carries the RSS high-water mark at its exit.
        assert all(row["peak_rss_mb"] > 0 for row in stage_rows.values())

    def test_flow_json_counts_the_tjoin_elimination(self, tmp_path,
                                                    capsys):
        """D3 at ``--tiles 3``: the T-join instances lose 51 degree-2
        faces, 29 of them terminals that force an edge, and the matcher
        is handed 90 nodes (408 with the degree-2 faces kept)."""
        from repro.bench import build_design

        gds = str(tmp_path / "d3.gds")
        write_gds(layout_to_gds(build_design("D3")), gds)
        main(["flow", gds, "--tiles", "3", "--jobs", "1", "--json"])
        counters = load_stdout_json(capsys)["telemetry"]["metrics"][
            "counters"]
        assert (counters["tjoin.eliminated"], counters["tjoin.forced"],
                counters["matcher.nodes"]) == (51, 29, 90)

    def test_eco_json_carries_telemetry(self, figure1_gds, tmp_path,
                                        capsys):
        trace = str(tmp_path / "eco-trace.json")
        main(["eco", figure1_gds, figure1_gds, "--tiles", "2",
              "--jobs", "1", "--json", "--trace", trace])
        out = load_stdout_json(capsys)
        roots = out["telemetry"]["spans"]
        assert roots[0]["name"] == "eco"
        child_names = {c["name"] for c in roots[0]["children"]}
        assert "plan" in child_names and "flow" in child_names
        with open(trace) as fh:
            json.load(fh)

    def test_bench_json_carries_telemetry(self, capsys):
        main(["bench", "--designs", "D1", "--jobs", "1", "--json"])
        out = load_stdout_json(capsys)
        assert "telemetry" in out
        assert out["telemetry"]["spans"][0]["name"] == "flow"

    def test_no_trace_no_json_stays_untraced(self, figure1_gds,
                                             capsys, tmp_path):
        # Without --trace/--json the null tracer stays installed and
        # nothing telemetry-shaped leaks into the text output.
        main(["flow", figure1_gds, "--incremental", "--jobs", "1"])
        out = capsys.readouterr().out
        assert "telemetry" not in out
