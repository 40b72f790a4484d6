"""Incremental stitching: cluster ids, verdict caching, warm ECO.

The contract: boundary stitch clusters carry content-derived,
coordinate-anchored ids (stable under shifter renumbering, unrelated
far-away edits, and grid changes that leave the boundary geometry
alone), their arbitrated verdicts are content-addressed in the unified
store under the ``stitch`` kind, and a warm run re-arbitrates *only*
the clusters some dirty tile contributes to — with the chip report
byte-identical to a cold run either way.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import build_design
from repro.cache import KIND_STITCH, ArtifactCache, cache_delta
from repro.chip import (
    StitchVerdict,
    arbitrate_clusters,
    build_stitch_clusters,
    detect_tile,
    make_jobs,
    run_chip_flow,
    stitch_verdict_key,
)
from repro.chip.partition import partition_layout
from repro.core import flow_result_dict, flow_result_from_pipeline
from repro.geometry import Rect
from repro.layout import (
    Technology,
    conflict_grid_layout,
    standard_cell_layout,
)
from repro.pipeline import (
    PipelineConfig,
    plan_eco,
    propose_eco_edit,
    run_eco_flow,
    run_pipeline,
)

ECO_CASES = [("D1", 2), ("D2", 3), ("D3", 4)]


@pytest.fixture
def tech() -> Technology:
    return Technology.node_90nm()


def cluster_ids(chip):
    return sorted(s.cluster_id for s in chip.cluster_stats)


def stitch_counts(delta):
    """(replayed, re-arbitrated) clusters: the ``stitch`` kind of a
    store delta."""
    return delta.get(KIND_STITCH, (0, 0))


def canonical(pipe) -> str:
    data = flow_result_dict(flow_result_from_pipeline(pipe),
                            timings=False)
    data.pop("pipeline", None)
    return json.dumps(data, sort_keys=True)


class TestClusterIdStability:
    def test_stable_across_grids(self, tech):
        """Grids whose cut lines stay clear of the cluster
        neighbourhoods produce identical content ids (here: every
        Figure-1 cluster survives 1x1 -> 3x3 with the same id)."""
        layout = conflict_grid_layout(4, 4, cluster_pitch=2500)
        ids = [cluster_ids(run_chip_flow(layout, tech, tiles=t))
               for t in (1, 2, 3)]
        assert len(ids[0]) == 16
        assert ids[0] == ids[1] == ids[2]

    def test_stable_under_renumbering_far_edit(self, tech):
        """A far-away feature inserted at index 0 renumbers every
        feature and shifter on the chip; every pre-existing cluster
        keeps its id (coordinate-anchored content, no dense ids)."""
        layout = standard_cell_layout(seed=24)
        base = run_chip_flow(layout, tech, tiles=3)
        edited = layout.copy()
        box = layout.bbox()
        edited.layers[1].insert(0, Rect(box.x2 + 50000, box.y1,
                                        box.x2 + 50090, box.y1 + 900))
        after = run_chip_flow(edited, tech, tiles=3)
        assert base.clusters > 0
        assert set(cluster_ids(base)) <= set(cluster_ids(after))

    def test_unrelated_edit_keeps_far_cluster_ids(self, tech):
        """The canonical conflict-neutral ECO edit leaves every
        cluster id unchanged (the edited polygon joins no cluster)."""
        base = build_design("D2")
        edited, _ = propose_eco_edit(base, tech)
        before = run_chip_flow(base, tech, tiles=3)
        after = run_chip_flow(edited, tech, tiles=3)
        assert cluster_ids(before) == cluster_ids(after)

    def test_id_ignores_view_multiplicity(self, tech):
        """Two tiles reporting identical views of one cluster hash to
        the same id as a single view — multiplicity is arbitration
        input, not identity."""
        layout = conflict_grid_layout(2, 2, cluster_pitch=2500)
        grid = partition_layout(layout, tech, tiles=2)
        results = [detect_tile(j) for j in make_jobs(grid.tiles, tech)]
        clusters = build_stitch_clusters(grid, results)
        for cluster in clusters:
            single_view = [m for m in cluster.members
                           if m[0] == cluster.members[0][0]]
            from repro.chip import stitch_cluster_id

            if {(cc.a, cc.b, cc.weight, cc.ref2, cc.tshape)
                    for _, cc in single_view} == \
                    {(cc.a, cc.b, cc.weight, cc.ref2, cc.tshape)
                     for _, cc in cluster.members}:
                assert stitch_cluster_id(single_view) \
                    == cluster.content_id


class TestVerdictCaching:
    def test_warm_rerun_replays_every_cluster(self, tech):
        layout = standard_cell_layout(seed=22)
        cache = ArtifactCache()
        cold = run_chip_flow(layout, tech, tiles=3, cache=cache)
        warm = run_chip_flow(layout, tech, tiles=3, cache=cache)
        cold_hits, cold_misses = stitch_counts(cold.cache_delta)
        warm_hits, warm_misses = stitch_counts(warm.cache_delta)
        assert cold.clusters > 0
        assert cold_hits == 0
        assert cold_misses == cold.clusters
        assert warm_misses == 0
        assert warm_hits == warm.clusters == cold.clusters
        assert [c.key for c in cold.conflicts] \
            == [c.key for c in warm.conflicts]
        assert warm.boundary_duplicates_dropped \
            == cold.boundary_duplicates_dropped

    def test_verdicts_persist_across_store_instances(self, tech,
                                                     tmp_path):
        layout = standard_cell_layout(seed=22)
        cold = run_chip_flow(layout, tech, tiles=3,
                             cache_dir=str(tmp_path))
        warm = run_chip_flow(layout, tech, tiles=3,
                             cache_dir=str(tmp_path))
        warm_hits, warm_misses = stitch_counts(warm.cache_delta)
        assert warm_misses == 0
        assert warm_hits == cold.clusters
        assert [c.key for c in warm.conflicts] \
            == [c.key for c in cold.conflicts]

    def test_no_store_arbitrates_in_place(self, tech):
        """A caller with no store of its own (``run_chip_flow`` without
        ``cache``) stitches over a fresh one: every cluster is
        arbitrated in place."""
        layout = standard_cell_layout(seed=22)
        grid = partition_layout(layout, tech, tiles=3)
        jobs = make_jobs(grid.tiles, tech)
        from repro.chip import tile_cache_key

        keys = [tile_cache_key(j) for j in jobs]
        results = [detect_tile(j) for j in jobs]
        store = ArtifactCache()
        with cache_delta(store) as delta:
            survivors, stats = arbitrate_clusters(grid, results, keys,
                                                  store)
        hits, misses = stitch_counts(delta)
        assert hits == 0
        assert misses == stats.clusters
        assert not any(c.replayed for c in stats.cluster_stats)
        assert len(stats.cluster_stats) == stats.clusters

    def test_cached_verdict_strips_witness(self, tech):
        """Stored survivors drop their witness sets (cluster formation
        always recomputes them), keeping artifacts lean."""
        layout = standard_cell_layout(seed=22)
        store = ArtifactCache()
        grid = partition_layout(layout, tech, tiles=3)
        jobs = make_jobs(grid.tiles, tech)
        from repro.chip import tile_cache_key

        keys = [tile_cache_key(j) for j in jobs]
        results = [detect_tile(j) for j in jobs]
        _, stats = arbitrate_clusters(grid, results, tile_keys=keys,
                                      store=store)
        assert stats.clusters > 0
        checked = 0
        for (kind, _key), value in store._memory.items():
            assert kind == KIND_STITCH
            assert isinstance(value, StitchVerdict)
            for cc in value.survivors:
                assert cc.witness == ()
                checked += 1
        assert checked > 0

    def test_foreign_cache_entry_is_rearbitrated(self, tech):
        """Garbage under a verdict key degrades to a miss, never a
        wrong verdict."""
        layout = standard_cell_layout(seed=22)
        store = ArtifactCache()
        grid = partition_layout(layout, tech, tiles=3)
        jobs = make_jobs(grid.tiles, tech)
        from repro.chip import tile_cache_key

        keys = [tile_cache_key(j) for j in jobs]
        results = [detect_tile(j) for j in jobs]
        clusters = build_stitch_clusters(grid, results)
        poisoned = stitch_verdict_key(
            clusters[0].content_id,
            [keys[f] for f in clusters[0].flats])
        store.put(KIND_STITCH, poisoned, "not a verdict")
        with cache_delta(store) as delta:
            survivors, stats = arbitrate_clusters(grid, results,
                                                  tile_keys=keys,
                                                  store=store)
        # Garbage never replays: the store counts the poisoned entry as
        # a hit, but its cluster is re-arbitrated like every other.
        assert not any(c.replayed for c in stats.cluster_stats)
        assert stitch_counts(delta) == (1, stats.clusters - 1)
        reference, _ = arbitrate_clusters(grid, results, keys,
                                          ArtifactCache())
        assert [(c.a, c.b, c.weight) for c in survivors] \
            == [(c.a, c.b, c.weight) for c in reference]


class TestWarmEcoStitch:
    """The tentpole acceptance: a warm ECO run re-arbitrates only the
    dirty stitch clusters — zero clean-cluster re-arbitrations — and
    its report is byte-identical to a cold run.

    The exact dirty==miss accounting holds for the canonical
    conflict-neutral edit used throughout (it leaves every cluster's
    contributing-view set unchanged); a conflict-changing edit may
    add conservative misses on clean-classified clusters, which costs
    recomputation but never correctness."""

    @pytest.mark.parametrize("name,tiles", ECO_CASES)
    def test_only_dirty_clusters_rearbitrate(self, tech, name, tiles):
        base = build_design(name)
        edited, _ = propose_eco_edit(base, tech)
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=tiles))
        r = eco.result
        # The plan's dirty-cluster split is exactly the warm run's
        # stitch hit/miss delta for the detect pass.
        assert eco.plan.stitch_dirty is not None
        hits, misses = stitch_counts(r.detection.cache_delta)
        assert misses == eco.plan.num_stitch_dirty
        assert hits == eco.plan.num_stitch_clean
        # Zero clean-cluster re-arbitrations, cluster by cluster: a
        # verdict replayed exactly when no contributing tile is dirty.
        dirty_tiles = set(eco.plan.dirty)
        for stat in r.detection.chip.cluster_stats:
            touches_dirty = any(t in dirty_tiles for t in stat.tiles)
            assert stat.replayed == (not touches_dirty), stat

    @pytest.mark.parametrize("name,tiles", ECO_CASES)
    def test_warm_report_byte_identical_to_cold(self, tech, name,
                                                tiles):
        base = build_design(name)
        edited, _ = propose_eco_edit(base, tech)
        cold = run_pipeline(edited, tech, PipelineConfig(tiles=tiles),
                            cache=ArtifactCache())
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=tiles))
        assert canonical(eco.result) == canonical(cold)

    def test_clean_clusters_exist_on_biggest_case(self, tech):
        """Guard: the assertions above must actually exercise verdict
        replay (an edit dirtying every cluster would pass vacuously)."""
        name, tiles = ECO_CASES[-1]
        base = build_design(name)
        edited, _ = propose_eco_edit(base, tech)
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=tiles))
        assert eco.plan.num_stitch_clean > 0

    def test_unchanged_relayout_rearbitrates_nothing(self, tech):
        lay = build_design("D2")
        eco = run_eco_flow(lay, lay.copy(), tech,
                           config=PipelineConfig(tiles=3))
        hits, misses = stitch_counts(eco.result.detection.cache_delta)
        assert misses == 0
        assert eco.plan.num_stitch_dirty == 0
        assert hits == eco.plan.num_stitch_clean > 0

    def test_plan_classification_matches_tile_dirtiness(self, tech):
        base = build_design("D3")
        edited, _ = propose_eco_edit(base, tech)
        plan = plan_eco(base, edited, tech, tiles=4)
        assert plan.stitch_dirty is None  # geometry alone can't know
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=4))
        assert eco.plan.stitch_dirty is not None
        total = (eco.plan.num_stitch_dirty
                 + eco.plan.num_stitch_clean)
        assert total == eco.result.detection.chip.clusters


class TestExecutorEquivalence:
    def test_all_backends_produce_identical_reports(self, tech):
        """--executor serial|process: same chip report."""
        layout = standard_cell_layout(seed=21)
        from repro.graph import METHOD_PATHS

        reports = {
            name: run_chip_flow(layout, tech, tiles=2, jobs=2,
                                method=METHOD_PATHS, executor=name)
            for name in ("serial", "process")}
        keys = {name: [c.key for c in r.conflicts]
                for name, r in reports.items()}
        assert keys["serial"] == keys["process"]
        assert {r.executor for r in reports.values()} \
            == {"serial", "process"}
