"""CLI tests (direct main() invocation, no subprocess)."""

import pytest

from repro.cli import main
from repro.gdsii import layout_to_gds, write_gds
from repro.layout import figure1_layout, grating_layout


@pytest.fixture
def figure1_gds(tmp_path):
    path = str(tmp_path / "fig1.gds")
    write_gds(layout_to_gds(figure1_layout()), path)
    return path


@pytest.fixture
def clean_gds(tmp_path):
    path = str(tmp_path / "grating.gds")
    write_gds(layout_to_gds(grating_layout(5)), path)
    return path


class TestDetect:
    def test_conflicted_design_exit_code(self, figure1_gds, capsys):
        assert main(["detect", figure1_gds]) == 1
        out = capsys.readouterr().out
        assert "phase-assignable: False" in out
        assert "conflicts (1)" in out

    def test_clean_design(self, clean_gds, capsys):
        assert main(["detect", clean_gds]) == 0
        assert "phase-assignable: True" in capsys.readouterr().out

    def test_fg_graph_option(self, figure1_gds):
        assert main(["detect", figure1_gds, "--graph", "fg"]) == 1


class TestChip:
    def test_chip_detects_and_reports(self, figure1_gds, capsys):
        assert main(["chip", figure1_gds, "--tiles", "2", "--jobs", "1",
                     "-v"]) == 1
        out = capsys.readouterr().out
        assert "2x2 grid" in out
        assert "detected 1 conflicts" in out
        assert "tile[" in out

    def test_chip_clean_design(self, clean_gds, capsys):
        assert main(["chip", clean_gds, "--tiles", "1x2",
                     "--jobs", "1"]) == 0
        assert "phase-assignable: True" in capsys.readouterr().out

    def test_chip_cache_roundtrip(self, figure1_gds, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["chip", figure1_gds, "--tiles", "2", "--jobs", "1",
              "--cache-dir", cache])
        capsys.readouterr()
        main(["chip", figure1_gds, "--tiles", "2", "--jobs", "1",
              "--cache-dir", cache])
        assert "cache 4/4 hits" in capsys.readouterr().out

    def test_chip_bad_tiles_spec(self, figure1_gds, capsys):
        with pytest.raises(SystemExit):
            main(["chip", figure1_gds, "--tiles", "nope"])

    def test_flow_with_tiles(self, figure1_gds, capsys):
        assert main(["flow", figure1_gds, "--tiles", "2",
                     "--jobs", "1"]) == 0
        assert "success: True" in capsys.readouterr().out


class TestGenerateSeed:
    def test_seed_variants_differ_deterministically(self, tmp_path,
                                                    capsys):
        a1 = str(tmp_path / "a1.gds")
        a2 = str(tmp_path / "a2.gds")
        b = str(tmp_path / "b.gds")
        assert main(["generate", "--design", "D1", "--seed", "5",
                     "-o", a1]) == 0
        assert main(["generate", "--design", "D1", "--seed", "5",
                     "-o", a2]) == 0
        assert main(["generate", "--design", "D1", "--seed", "6",
                     "-o", b]) == 0
        with open(a1, "rb") as f1, open(a2, "rb") as f2, \
                open(b, "rb") as f3:
            one, two, three = f1.read(), f2.read(), f3.read()
        assert one == two        # deterministic
        assert one != three      # seed actually steers the generator


class TestFlow:
    def test_flow_fixes_and_writes(self, figure1_gds, tmp_path, capsys):
        out_path = str(tmp_path / "fixed.gds")
        assert main(["flow", figure1_gds, "-o", out_path]) == 0
        out = capsys.readouterr().out
        assert "success: True" in out
        # The written GDS is clean when re-checked.
        assert main(["detect", out_path]) == 0

    def test_flow_exact_cover(self, figure1_gds):
        assert main(["flow", figure1_gds, "--cover", "exact"]) == 0

    def test_flow_json_report(self, figure1_gds, tmp_path):
        import json

        path = str(tmp_path / "report.json")
        assert main(["flow", figure1_gds, "--report", path]) == 0
        with open(path) as f:
            data = json.load(f)
        assert data["success"] is True
        assert data["detection"]["conflicts"] == [[0, 5]]


class TestJsonOutput:
    def test_flow_json_is_pure_machine_readable(self, figure1_gds,
                                                tmp_path, capsys):
        import json

        out_path = str(tmp_path / "fixed.gds")
        assert main(["flow", figure1_gds, "--json",
                     "-o", out_path]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)  # stdout must be valid JSON, nothing else
        assert data["success"] is True
        assert data["detection"]["conflicts"] == [[0, 5]]
        assert data["correction"]["num_windows"] == 1
        assert "stage_seconds" in data["pipeline"]
        assert "hit_rate" in data["pipeline"]["cache"]

    def test_chip_json_counts_and_cache(self, figure1_gds, tmp_path,
                                        capsys):
        import json

        cache = str(tmp_path / "cache")
        main(["chip", figure1_gds, "--tiles", "2", "--jobs", "1",
              "--cache-dir", cache, "--json"])
        capsys.readouterr()
        assert main(["chip", figure1_gds, "--tiles", "2", "--jobs", "1",
                     "--cache-dir", cache, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["grid"] == {"nx": 2, "ny": 2, "halo": data["grid"]["halo"]}
        assert data["cache"]["hits"] == 4
        assert data["cache"]["hit_rate"] == 1.0
        assert data["detection"]["num_features"] == 3
        assert "wall_seconds" in data

    def test_flow_incremental_reports_cache(self, figure1_gds, tmp_path,
                                            capsys):
        import json

        cache = str(tmp_path / "cache")
        assert main(["flow", figure1_gds, "--incremental",
                     "--cache-dir", cache, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["pipeline"]["tiled"] is True
        assert first["pipeline"]["cache"]["hits"] == 0
        assert main(["flow", figure1_gds, "--incremental",
                     "--cache-dir", cache, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["pipeline"]["cache"]["misses"] == 0
        for report in (first, second):
            report["detection"].pop("detect_seconds")
        assert second["detection"] == first["detection"]


def write_eco_pair(tmp_path):
    """D1 and its canonical ECO edit as two GDS files."""
    from repro.bench import build_design
    from repro.layout import Technology
    from repro.pipeline import propose_eco_edit

    base_layout = build_design("D1")
    edited_layout, _ = propose_eco_edit(
        base_layout, Technology.node_90nm())
    base = str(tmp_path / "base.gds")
    edited = str(tmp_path / "edited.gds")
    write_gds(layout_to_gds(base_layout), base)
    write_gds(layout_to_gds(edited_layout), edited)
    return base, edited


class TestEco:

    def test_eco_summary(self, tmp_path, capsys):
        base, edited = write_eco_pair(tmp_path)
        code = main(["eco", base, edited, "--tiles", "2", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "dirty" in out and "clean" in out
        assert "replayed" in out and "recomputed" in out

    def test_eco_json_dirty_accounting(self, tmp_path, capsys):
        import json

        base, edited = write_eco_pair(tmp_path)
        assert main(["eco", base, edited, "--tiles", "2", "--jobs", "1",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        plan = data["plan"]
        assert plan["num_dirty"] + plan["num_clean"] == plan["num_tiles"]
        assert plan["features_added"] == 1
        assert plan["features_removed"] == 1
        assert (data["flow"]["pipeline"]["detect_cache"]["misses"]
                == plan["num_dirty"])
        assert data["flow"]["success"] is True

    def test_eco_writes_corrected_gds(self, tmp_path, capsys):
        base, edited = write_eco_pair(tmp_path)
        out_path = str(tmp_path / "fixed.gds")
        assert main(["eco", base, edited, "--tiles", "2", "--jobs", "1",
                     "-o", out_path]) == 0
        capsys.readouterr()
        assert main(["detect", out_path]) == 0


class TestExactCoverCaps:
    """``--cover exact`` with a window past the exact solver's caps:
    flow, eco and bench print one error line and exit 2."""

    @pytest.fixture(autouse=True)
    def no_room(self, monkeypatch):
        # Caps of zero conflicts: every window of a conflicted design
        # is past them, so small designs reach the error path.
        from repro.correction import windows

        monkeypatch.setattr(windows, "EXACT_CAP_ELEMENTS", 0)

    @pytest.mark.parametrize("command", ["flow", "eco", "bench"])
    def test_one_line_and_exit_2(self, command, figure1_gds, tmp_path,
                                 capsys):
        argv = {"flow": ["flow", figure1_gds],
                "eco": ["eco", *write_eco_pair(tmp_path), "--tiles",
                        "2", "--jobs", "1"],
                "bench": ["bench", "--designs", "D1"]}[command]
        assert main(argv + ["--cover", "exact"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: window 0 has ")
        assert "caps of 0 conflicts and 64 lines" in err[0]

    def test_greedy_unaffected(self, figure1_gds, capsys):
        assert main(["flow", figure1_gds, "--cover", "greedy"]) == 0
        assert "success: True" in capsys.readouterr().out


class TestMalformedGds:
    """A malformed GDS input is one error line and exit 2, not a
    traceback and the "not phase-assignable" exit 1."""

    @pytest.mark.parametrize("command", ["flow", "detect", "chip"])
    def test_truncated_file(self, command, figure1_gds, tmp_path, capsys):
        with open(figure1_gds, "rb") as fh:
            data = fh.read()
        truncated = str(tmp_path / "trunc.gds")
        with open(truncated, "wb") as fh:
            fh.write(data[:len(data) // 2])
        assert main([command, truncated]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: record extends past end of stream\n"
        assert captured.out == ""


class TestGenerateAndTables:
    def test_generate(self, tmp_path, capsys):
        path = str(tmp_path / "d1.gds")
        assert main(["generate", "--design", "D1", "-o", path]) == 0
        assert "polygons" in capsys.readouterr().out
        assert main(["detect", path]) in (0, 1)

    def test_table1(self, capsys):
        assert main(["table1", "--subset", "small", "--no-timing"]) == 0
        out = capsys.readouterr().out
        assert "NP" in out and "PCG" in out and "GB" in out

    def test_table2(self, capsys):
        assert main(["table2", "--subset", "small"]) == 0
        out = capsys.readouterr().out
        assert "area_incr_pct" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestBench:
    def test_bench_table(self, capsys):
        assert main(["bench", "--designs", "D1"]) == 0
        out = capsys.readouterr().out
        assert "Benchmark suite" in out
        assert "D1" in out

    def test_bench_json_uses_flow_report_plumbing(self, capsys):
        import json as json_mod

        assert main(["bench", "--designs", "D1", "--incremental",
                     "--json"]) == 0
        captured = capsys.readouterr()
        data = json_mod.loads(captured.out)  # stdout is pure JSON
        assert data["subset"] is None  # --designs overrides --subset
        assert data["selected"] == ["D1"]
        (design,) = data["designs"]
        assert design["design"] == "D1"
        # Same sections as `repro flow --json`, plus wall clock and
        # the per-stage artifact-cache accounting.
        for key in ("detection", "correction", "post_detection",
                    "phases", "pipeline", "wall_seconds"):
            assert key in design, key
        pipe = design["pipeline"]
        assert pipe["phase"]["incremental"] is True

    def test_bench_json_progress_on_stderr(self, capsys):
        main(["bench", "--designs", "D1", "--json"])
        captured = capsys.readouterr()
        assert "D1:" in captured.err
        assert "D1:" not in captured.out.splitlines()[0]

    def test_bench_cache_dir_implies_persistent_store(self, capsys,
                                                      tmp_path):
        """--cache-dir alone wires the suite to one persistent store;
        a re-invocation against the same directory runs warm."""
        import json as json_mod

        cache = str(tmp_path / "suite-store")
        assert main(["bench", "--designs", "D1", "--cache-dir", cache,
                     "--json"]) == 0
        cold = json_mod.loads(capsys.readouterr().out)
        assert cold["cache_dir"] == cache
        kinds = cold["cache_kinds"]
        assert set(kinds) >= {"tile"}
        assert kinds["tile"]["misses"] > 0  # cold: real work done
        assert cold["designs"][0]["pipeline"]["tiled"] is True

        assert main(["bench", "--designs", "D1", "--cache-dir", cache,
                     "--json"]) == 0
        warm = json_mod.loads(capsys.readouterr().out)
        assert set(warm["cache_kinds"]) == {"tile", "coloring", "verify"}
        for kind in ("tile", "coloring", "verify"):
            hits = warm["cache_kinds"][kind]
            assert hits["misses"] == 0, (kind, hits)
            assert hits["hits"] == kinds[kind]["misses"], (kind, hits)

    def test_bench_table_prints_store_summary(self, capsys, tmp_path):
        cache = str(tmp_path / "suite-store")
        assert main(["bench", "--designs", "D1",
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "artifact cache hits" in out
        for kind in ("tile", "coloring", "verify"):
            assert f"{kind}:" in out, kind  # every kind reaches the footer

    def test_bench_executor_backends_agree(self, capsys):
        """--executor process|serial: identical domain reports."""
        import json as json_mod

        reports = {}
        for backend in ("serial", "process"):
            assert main(["bench", "--designs", "D1", "--incremental",
                         "--executor", backend, "--json"]) in (0, 1)
            reports[backend] = json_mod.loads(capsys.readouterr().out)
        for key in ("detection", "correction", "post_detection",
                    "phases"):
            a = reports["serial"]["designs"][0].get(key)
            b = reports["process"]["designs"][0].get(key)
            if isinstance(a, dict):
                a.pop("detect_seconds", None)
                b.pop("detect_seconds", None)
            assert a == b, key

    def test_executor_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--designs", "D1", "--executor", "carrier"])

    def test_executor_flag_accepts_registered_backend(self, capsys):
        """--executor validates against the live registry, so custom
        backends registered via register_executor work unchanged."""
        import json as json_mod

        from repro.chip.executor import (
            EXECUTOR_BACKENDS,
            SerialExecutor,
            register_executor,
        )

        class Named(SerialExecutor):
            name = "custom-ci"

        register_executor("custom-ci", lambda jobs: Named())
        try:
            assert main(["bench", "--designs", "D1", "--incremental",
                         "--executor", "custom-ci", "--json"]) == 0
            data = json_mod.loads(capsys.readouterr().out)
            assert data["designs"][0]["pipeline"]["executor"] \
                == "custom-ci"
        finally:
            del EXECUTOR_BACKENDS["custom-ci"]

    def test_executor_untiled_path_warns(self, capsys):
        """An explicit --executor on the untiled path is called out
        instead of silently ignored."""
        assert main(["bench", "--designs", "D1",
                     "--executor", "process"]) == 0
        assert "no effect" in capsys.readouterr().err


class TestFuzz:
    def test_fuzz_table_mode_green(self, capsys):
        assert main(["fuzz", "--strata", "tjoin", "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "Scenario curriculum" in out
        assert "tjoin-s0" in out
        assert " 0 fail" in out

    def test_fuzz_json_stdout_is_pure(self, capsys):
        import json as json_mod

        assert main(["fuzz", "--strata", "density", "--count", "1",
                     "--seed", "2", "--json"]) == 0
        captured = capsys.readouterr()
        data = json_mod.loads(captured.out)  # progress goes to stderr
        assert data["strata"] == ["density"]
        assert (data["count"], data["seed"]) == (1, 2)
        assert data["summary"]["scenarios"] == 1
        assert data["summary"]["fail"] == 0
        assert data["scenarios"][0]["name"].startswith("density-s2-")
        assert all(c["status"] == "ok"
                   for c in data["scenarios"][0]["checks"])
        assert "telemetry" in data

    def test_fuzz_invariant_subset(self, capsys):
        import json as json_mod

        assert main(["fuzz", "--strata", "tjoin", "--count", "1",
                     "--invariants", "oracle", "--json"]) == 0
        data = json_mod.loads(capsys.readouterr().out)
        checks = data["scenarios"][0]["checks"]
        assert [c["name"] for c in checks] == ["oracle"]

    def test_fuzz_raising_flow_still_reports_json(self, capsys):
        """A scenario whose flow raises is a recorded failure: exit 1,
        and --json still prints the corpus report."""
        import json as json_mod

        assert main(["fuzz", "--strata", "duplicate", "--count", "1",
                     "--seed", "1022", "--json", "--no-shrink"]) == 1
        data = json_mod.loads(capsys.readouterr().out)
        assert data["summary"]["fail"] >= 1
        details = [c["detail"] for c in data["scenarios"][0]["checks"]]
        assert any(d.startswith("raised AssertionError") for d in details)

    def test_fuzz_unknown_stratum_exits_2(self, capsys):
        assert main(["fuzz", "--strata", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "density" in err

    def test_fuzz_unknown_invariant_exits_2(self, capsys):
        assert main(["fuzz", "--strata", "tjoin", "--count", "1",
                     "--invariants", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_fuzz_divergence_shrinks_and_exits_1(self, capsys,
                                                 monkeypatch):
        """A broken invariant must surface as exit 1 plus a bounded,
        paste-able shrunk repro on stderr."""
        from repro.scenarios import INVARIANTS

        monkeypatch.setitem(
            INVARIANTS, "oracle",
            lambda ctx: "injected divergence"
            if ctx.layout.num_polygons >= 1 else None)
        assert main(["fuzz", "--strata", "tjoin", "--count", "1",
                     "--invariants", "oracle",
                     "--max-shrink-runs", "60"]) == 1
        captured = capsys.readouterr()
        assert " 1 fail" in captured.out
        assert "shrunk repro" in captured.err
        assert "def test_shrunk_oracle_" in captured.err

    def test_fuzz_no_shrink_skips_repro(self, capsys, monkeypatch):
        from repro.scenarios import INVARIANTS

        monkeypatch.setitem(
            INVARIANTS, "oracle",
            lambda ctx: "injected divergence")
        assert main(["fuzz", "--strata", "tjoin", "--count", "1",
                     "--invariants", "oracle", "--no-shrink"]) == 1
        assert "shrunk repro" not in capsys.readouterr().err
