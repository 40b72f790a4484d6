"""Dirty-tile ECO scheduling: diff, plan, and end-to-end equivalence.

The acceptance contract: editing a single feature and running the
incremental pipeline produces a DetectionReport, cut set, and phase
assignment identical to a cold full run on the edited layout, while
recomputing only the tiles whose capture window intersects the edit
(asserted via cache hit counts).
"""

import json

import pytest

from repro.bench import build_design
from repro.cache import (
    KIND_COLORING,
    KIND_TILE,
    KIND_VERIFY,
    ArtifactCache,
)
from repro.core import flow_result_dict, flow_result_from_pipeline
from repro.geometry import Rect
from repro.layout import Layout, layout_from_rects
from repro.pipeline import (
    EcoResult,
    PipelineConfig,
    diff_layouts,
    isolated_interior_features,
    perturb_feature,
    plan_eco,
    propose_eco_edit,
    run_eco_flow,
    run_pipeline,
)

# The >= 3 benchmark layouts of the ECO equivalence obligation, with
# grids coarse enough that the edit leaves clean tiles.
ECO_CASES = [("D1", 2), ("D2", 3), ("D3", 4)]


def counts(artifact, kind):
    """(hits, misses) of one kind in an artifact's store delta."""
    return artifact.cache_delta.get(kind, (0, 0))


def canonical(pipe) -> str:
    """The domain outcome (detection/cuts/phases), cache stats excluded."""
    data = flow_result_dict(flow_result_from_pipeline(pipe),
                            timings=False)
    data.pop("pipeline", None)
    return json.dumps(data, sort_keys=True)


class TestDiff:
    def test_identical_layouts(self):
        lay = layout_from_rects([Rect(0, 0, 100, 800)])
        diff = diff_layouts(lay, lay.copy())
        assert diff.unchanged

    def test_single_edit(self):
        base = layout_from_rects([Rect(0, 0, 100, 800),
                                  Rect(500, 0, 600, 800)])
        edited = perturb_feature(base, 1, delta=10)
        diff = diff_layouts(base, edited)
        assert len(diff.added) == 1
        assert len(diff.removed) == 1
        assert diff.removed == ((500, 0, 600, 800),)

    def test_duplicate_rects_counted_as_multiset(self):
        r = Rect(0, 0, 100, 800)
        base = layout_from_rects([r, r])
        edited = layout_from_rects([r])
        diff = diff_layouts(base, edited)
        assert len(diff.removed) == 1


class TestEditHelpers:
    @pytest.mark.parametrize("name", ["D1", "D2"])
    def test_proposed_edit_is_conflict_neutral(self, tech, name):
        """The canonical edit never touches the conflict set — the
        property the ECO benchmarks rely on."""
        from repro.conflict import detect_conflicts

        base = build_design(name)
        edited, index = propose_eco_edit(base, tech)
        assert edited.num_polygons == base.num_polygons
        assert edited.bbox() == base.bbox()
        before = detect_conflicts(base, tech)
        after = detect_conflicts(edited, tech)
        assert ([c.key for c in before.conflicts]
                == [c.key for c in after.conflicts])

    def test_isolated_features_have_no_pairs(self, tech):
        from repro.conflict import layout_front_end

        lay = build_design("D2")
        shifters, pairs = layout_front_end(lay, tech)
        involved = {shifters[p.a].feature_index for p in pairs} \
            | {shifters[p.b].feature_index for p in pairs}
        assert not set(isolated_interior_features(lay, tech)) & involved

    def test_empty_layout_has_no_candidates(self, tech):
        with pytest.raises(ValueError):
            propose_eco_edit(Layout(), tech)


class TestPlanEco:
    def test_unchanged_layout_all_clean(self, tech):
        lay = build_design("D2")
        plan = plan_eco(lay, lay.copy(), tech, tiles=3)
        assert plan.num_dirty == 0
        assert plan.num_clean == plan.num_tiles == 9
        assert plan.diff.unchanged

    def test_edit_dirties_only_capture_windows(self, tech):
        lay = build_design("D3")
        edited, index = propose_eco_edit(lay, tech)
        plan = plan_eco(lay, edited, tech, tiles=4)
        assert 0 < plan.num_dirty < plan.num_tiles
        # Every dirty tile's capture window intersects the edit.
        rect = lay.features[index]
        for ix, iy in plan.dirty:
            x1, y1, x2, y2 = plan.grid.tiles[iy * plan.grid.nx + ix].bounds
            assert rect.x1 <= x2 and x1 <= rect.x2
            assert rect.y1 <= y2 and y1 <= rect.y2

    def test_bbox_change_dirties_everything(self, tech):
        lay = build_design("D1")
        box = lay.bbox()
        edited = lay.copy()
        edited.add_feature(Rect(box.x2 + 2000, box.y1,
                                box.x2 + 2100, box.y1 + 800))
        plan = plan_eco(lay, edited, tech, tiles=2)
        assert plan.bbox_changed
        assert plan.num_dirty == plan.num_tiles


class TestEcoEquivalence:
    @pytest.mark.parametrize("name,tiles", ECO_CASES)
    def test_eco_equals_cold_run(self, tech, name, tiles):
        base = build_design(name)
        edited, _index = propose_eco_edit(base, tech)
        cfg = PipelineConfig(tiles=tiles)

        cold = run_pipeline(edited, tech, cfg, cache=ArtifactCache())
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=tiles))

        # Identical DetectionReport, cut set, and phase assignment.
        assert canonical(eco.result) == canonical(cold)

        # Only the dirty tiles recomputed in the detect pass...
        assert counts(eco.result.detection, KIND_TILE) \
            == (eco.plan.num_clean, eco.plan.num_dirty)
        # ...and only the corrected-layout dirty tiles in the verify
        # pass (the conflict-neutral edit keeps the cut set, so clean
        # tiles of the corrected layout are base-run cache hits too).
        post_plan = plan_eco(eco.base.corrected_layout,
                             eco.result.corrected_layout, tech,
                             tiles=tiles)
        assert (counts(eco.result.verification, KIND_TILE)[1]
                == post_plan.num_dirty)

    def test_clean_tiles_exist_on_biggest_case(self, tech):
        """Guard: the equivalence above must actually exercise replayed
        tiles (an edit that dirties every tile would pass vacuously)."""
        name, tiles = ECO_CASES[-1]
        base = build_design(name)
        edited, _ = propose_eco_edit(base, tech)
        plan = plan_eco(base, edited, tech, tiles=tiles)
        assert plan.num_clean > 0

    def test_prewarmed_cache_skips_base_run(self, tech):
        base = build_design("D1")
        edited, _ = propose_eco_edit(base, tech)
        cache = ArtifactCache()
        run_pipeline(base, tech, PipelineConfig(tiles=2), cache=cache)
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=2),
                           cache=cache, warm_base=False)
        assert eco.base is None
        assert counts(eco.result.detection, KIND_TILE)[1] \
            == eco.plan.num_dirty


class TestSpeedupHardening:
    """EcoResult.speedup must never be a division-by-near-zero artifact."""

    def _result(self, base, eco):
        return EcoResult(plan=None, result=None,
                         base_seconds=base, eco_seconds=eco)

    def test_zero_cold_baseline_reports_zero(self):
        assert self._result(0.0, 0.5).speedup == 0.0

    def test_near_zero_cold_baseline_reports_zero(self):
        assert self._result(1e-12, 0.5).speedup == 0.0

    def test_prewarmed_run_has_no_baseline(self, tech):
        base = build_design("D1")
        edited, _ = propose_eco_edit(base, tech)
        cache = ArtifactCache()
        run_pipeline(base, tech, PipelineConfig(tiles=2), cache=cache)
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=2),
                           cache=cache, warm_base=False)
        assert eco.base_seconds == 0.0
        assert eco.speedup == 0.0

    def test_normal_ratio(self):
        assert self._result(3.0, 1.5).speedup == pytest.approx(2.0)

    def test_zero_warm_time_is_finite(self):
        assert self._result(1.0, 0.0).speedup == pytest.approx(1e9)


def critical_isolated_edit(layout, tech):
    """A single-feature ECO edit that moves shifters (dirties exactly
    one conflict-graph component) while staying conflict-neutral."""
    from repro.shifters import generate_shifters

    shifters = generate_shifters(layout, tech)
    for index in isolated_interior_features(layout, tech):
        if shifters.of_feature(index):
            return perturb_feature(layout, index)
    raise AssertionError("no critical isolated feature")


class TestWarmPathIncremental:
    """The tentpole acceptance: a warm ECO run performs no chip-wide
    coloring or verification — only dirty components recompute — and
    the domain report is byte-identical to a cold run."""

    @pytest.mark.parametrize("name,tiles", ECO_CASES)
    def test_conflict_graph_neutral_edit_replays_everything(
            self, tech, name, tiles):
        """The canonical edit touches a non-critical polygon: the
        conflict graph is untouched, so the warm phase stage does zero
        recompute work."""
        base = build_design(name)
        edited, _ = propose_eco_edit(base, tech)
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=tiles))
        r = eco.result
        assert r.phase.incremental
        assert counts(r.phase, KIND_COLORING)[1] == 0
        assert counts(r.phase, KIND_VERIFY)[1] == 0
        assert counts(r.phase, KIND_COLORING)[0] == r.phase.components > 0

    @pytest.mark.parametrize("name,tiles", ECO_CASES)
    def test_shifter_moving_edit_recolors_one_component(
            self, tech, name, tiles):
        base = build_design(name)
        edited = critical_isolated_edit(base, tech)
        cfg = PipelineConfig(tiles=tiles)
        cold = run_pipeline(edited, tech, cfg, cache=ArtifactCache())
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=tiles))
        r = eco.result
        assert canonical(r) == canonical(cold)
        one_dirty = (r.phase.components - 1, 1)
        assert counts(r.phase, KIND_COLORING) == one_dirty
        assert counts(r.phase, KIND_VERIFY) == one_dirty

    def test_artifact_cache_counts_view(self, tech):
        base = build_design("D1")
        edited, _ = propose_eco_edit(base, tech)
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=2))
        r = eco.result
        totals = r.artifact_cache_counts()
        assert set(totals) == {"tile", "coloring", "verify"}
        assert totals["tile"] == tuple(
            a + b for a, b in zip(counts(r.detection, KIND_TILE),
                                  counts(r.verification, KIND_TILE)))

    def test_store_sees_only_three_kinds(self, tech):
        """A cold base run, then a warm ECO, over one store on D3 at
        tiles=3: the front end, stitch clusters and correction windows
        never reach the store, and the warm report equals a cold
        one."""
        base = build_design("D3")
        edited, _ = propose_eco_edit(base, tech)
        config = PipelineConfig(tiles=3)
        store = ArtifactCache()
        eco = run_eco_flow(base, edited, tech, config=config, cache=store)
        assert set(store.counters()) == {"tile", "coloring", "verify"}
        assert {kind for kind, _key in store._memory} \
            == set(store.counters())
        cold = run_pipeline(edited, tech, config, cache=ArtifactCache())
        assert canonical(eco.result) == canonical(cold)

    def test_summary_reports_incremental_stages(self, tech):
        base = build_design("D1")
        edited, _ = propose_eco_edit(base, tech)
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=2))
        text = eco.summary()
        # One aligned warm-path table covering every stage, with the
        # base-vs-eco per-stage wall clock alongside (base was run).
        for stage in ("detect", "phase"):
            assert stage in text, stage
        header = next(ln for ln in text.splitlines()
                      if "replayed" in ln)
        assert "recomputed" in header
        assert "base_s" in header and "eco_s" in header

    def test_summary_stage_rows_match_artifact_counts(self, tech):
        base = build_design("D1")
        edited, _ = propose_eco_edit(base, tech)
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=2))
        rows = dict((name, (h, m))
                    for name, h, m in eco.stage_rows())
        counts = eco.result.artifact_cache_counts()
        assert rows["detect"] == counts["tile"]
        assert set(rows) == {"detect", "phase"}
        assert rows["phase"] == tuple(
            a + b for a, b in zip(counts["coloring"], counts["verify"]))

    def test_unchanged_relayout_regenerates_nothing(self, tech):
        """Re-running an untouched layout replays every tile result
        — zero re-detection chip-wide, in both passes."""
        lay = build_design("D2")
        eco = run_eco_flow(lay, lay.copy(), tech,
                           config=PipelineConfig(tiles=3))
        r = eco.result
        assert counts(r.detection, KIND_TILE) == (eco.plan.num_tiles, 0)
        assert counts(r.verification, KIND_TILE)[1] == 0

    def test_persistent_store_across_processes_shape(self, tech,
                                                     tmp_path):
        """Cold run persists tile/coloring/verify artifacts; a fresh
        store in a new 'process' replays them all."""
        base = build_design("D2")
        edited, _ = propose_eco_edit(base, tech)
        cfg = PipelineConfig(tiles=3, cache_dir=str(tmp_path))
        run_pipeline(base, tech, cfg)

        eco = run_eco_flow(base, edited, tech, config=cfg,
                           cache=ArtifactCache(str(tmp_path)),
                           warm_base=False)
        r = eco.result
        assert counts(r.detection, KIND_TILE)[0] == eco.plan.num_clean
        assert counts(r.phase, KIND_COLORING)[1] == 0
