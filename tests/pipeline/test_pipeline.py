"""Staged-pipeline tests: stages, artifacts, and reuse guarantees."""

import pytest

from repro.cache import KIND_TILE, ArtifactCache
from repro.conflict import build_layout_conflict_graph, layout_front_end
from repro.core import run_aapsm_flow
from repro.layout import (
    GeneratorParams,
    figure1_layout,
    grating_layout,
    standard_cell_layout,
)
from repro.pipeline import (
    STAGE_ORDER,
    PipelineConfig,
    run_pipeline,
    stage_assign,
    stage_correct,
    stage_detect,
    stage_front_end,
    stage_verify,
)


class TestStages:
    def test_stages_compose_like_run_pipeline(self, tech):
        """Driving the stages by hand reproduces run_pipeline."""
        lay = figure1_layout()
        cfg = PipelineConfig()
        front = stage_front_end(lay, tech)
        detection = stage_detect(front, tech, cfg)
        correction = stage_correct(detection, tech, cfg)
        verification = stage_verify(correction, tech, cfg, front)
        phase = stage_assign(verification, tech, cfg)

        whole = run_pipeline(lay, tech, cfg)
        assert phase.success == whole.success
        assert ([c.key for c in detection.report.conflicts]
                == [c.key for c in whole.detection.report.conflicts])
        assert (correction.report.cuts
                == whole.correction.report.cuts)

    def test_stage_timings_cover_all_stages(self, tech):
        result = run_pipeline(figure1_layout(), tech)
        seconds = result.stage_seconds()
        assert set(seconds) == set(STAGE_ORDER)
        assert all(s >= 0 for s in seconds.values())
        assert result.wall_seconds >= max(seconds.values())

    def test_front_end_shared_with_correction(self, tech):
        """Correction plans against the detection pass's shifter set,
        not a regenerated one."""
        lay = figure1_layout()
        result = run_pipeline(lay, tech)
        assert result.detection.front is result.front
        assert result.correction.report.num_conflicts == 1


def assert_same_front_end(front, expected):
    """A stage's front end equals ``expected`` = ``(shifters, pairs)``
    shifter by shifter and pair by pair."""
    exp_s, exp_p = expected
    assert len(front.shifters) == len(exp_s)
    for a, b in zip(front.shifters, exp_s):
        assert (a.id, a.feature_index, a.side, a.rect) \
            == (b.id, b.feature_index, b.side, b.rect)
    assert front.pairs == exp_p


def front_end_cases():
    """``(id, layout builder)``: every stratum's seeds 0-2, D1-D3 and
    an empty layout."""
    from repro.bench import build_design
    from repro.layout import Layout
    from repro.scenarios.strata import build_scenario, stratum_names

    cases = [(f"{s}:{seed}", lambda s=s, seed=seed:
              build_scenario(s, seed).layout)
             for s in stratum_names() for seed in range(3)]
    cases += [(d, lambda d=d: build_design(d)) for d in ("D1", "D2", "D3")]
    return cases + [("empty", Layout)]


class TestTiledFrontEnd:
    """Stage 1 over the partition: one chip-wide pass == monolithic."""

    @pytest.mark.parametrize("build", [c[1] for c in front_end_cases()],
                             ids=[c[0] for c in front_end_cases()])
    def test_tiled_stage_matches_monolithic(self, tech, build):
        from repro.obs import Tracer, use_tracer

        lay = build()
        mono = stage_front_end(lay, tech)
        tracer = Tracer()
        with use_tracer(tracer):
            tiled = stage_front_end(lay, tech, PipelineConfig(tiles=2))
        assert tiled.tiled and not mono.tiled
        assert tiled.grid is not None
        assert tracer.metrics.counter(
            "frontend.chip_wide_passes").value == 1
        assert_same_front_end(tiled, (mono.shifters, mono.pairs))
        assert_same_front_end(tiled, layout_front_end(lay, tech))

    def test_untiled_config_stays_monolithic(self, tech):
        front = stage_front_end(figure1_layout(), tech,
                                PipelineConfig())
        assert not front.tiled and front.grid is None

    def test_duplicate_rect_layout_takes_tiled_route(self, tech):
        """A layout with duplicate rects takes the same route: its
        chip-wide pass is the front end."""
        from repro.geometry import Rect
        from repro.layout import layout_from_rects

        r = Rect(0, 0, 90, 1000)
        lay = layout_from_rects([r, Rect(500, 0, 590, 1000)])
        lay.add_feature(r)  # an exact duplicate
        front = stage_front_end(lay, tech, PipelineConfig(tiles=2))
        assert front.tiled and front.grid is not None
        assert_same_front_end(front, layout_front_end(lay, tech))

    @pytest.mark.parametrize("tiles", [2, 3])
    def test_duplicate_stratum_cold_takes_tiled_route(self, tiles):
        """Every duplicate-stratum revision: tiled, byte-identical to
        the monolithic pass, one chip-wide pass."""
        from repro.obs import Tracer, use_tracer
        from repro.scenarios.strata import build_scenario

        for seed in [*range(3), *range(1000, 1058)]:
            s = build_scenario("duplicate", seed)
            tracer = Tracer()
            with use_tracer(tracer):
                front = stage_front_end(s.layout, s.tech,
                                        PipelineConfig(tiles=tiles))
            count = tracer.metrics.counter
            assert front.tiled, seed
            assert_same_front_end(front,
                                  layout_front_end(s.layout, s.tech))
            assert count("frontend.chip_wide_passes").value == 1, seed

    def test_empty_layout_takes_tiled_route(self, tech):
        from repro.layout import Layout

        front = stage_front_end(Layout(), tech, PipelineConfig(tiles=2))
        assert front.tiled and front.grid.num_tiles == 0
        assert len(front.shifters) == 0 and front.pairs == []

    def test_pipeline_threads_grid_to_detection(self, tech):
        """One partition per revision: the detect stage's chip report
        runs on the front end's grid, which is released afterwards so
        retained results don't pin tile sub-layouts."""
        lay = standard_cell_layout(GeneratorParams(rows=2, cols=6),
                                   seed=9)
        result = run_pipeline(lay, tech, PipelineConfig(tiles=(2, 3)))
        assert result.front.tiled
        assert (result.detection.chip.nx,
                result.detection.chip.ny) == (2, 3)
        hits, misses = result.artifact_cache_counts()[KIND_TILE]
        assert hits + misses > 0
        assert result.front.grid is None
        assert result.verification.front.grid is None


class TestFrontEndReuse:
    def test_clean_layout_reuses_shifter_pass(self, tech):
        """No cuts -> the verify pass reuses the base shifter set."""
        result = run_pipeline(grating_layout(6), tech)
        assert result.correction.unchanged
        assert result.verification.front_reused
        assert result.verification.front.shifters is result.front.shifters

    def test_corrected_layout_regenerates(self, tech):
        result = run_pipeline(figure1_layout(), tech)
        assert not result.correction.unchanged
        assert not result.verification.front_reused
        assert (result.verification.front.shifters
                is not result.front.shifters)

    @pytest.mark.parametrize("name", ["D3", "figure1"])
    def test_monolithic_flow_builds_two_graphs(self, tech, name,
                                               monkeypatch):
        """Detect and verify each build the conflict graph once; the
        assign stage takes the verify pass's, its planarization
        casualties restored, and answers as a fresh build would."""
        from repro.bench import build_design
        from repro.conflict import detection
        from repro.phase import assign_phases

        layout = figure1_layout() if name == "figure1" \
            else build_design(name)
        built = []
        real = detection.build_conflict_graph

        def counting(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(detection, "build_conflict_graph", counting)
        result = run_pipeline(layout, tech)
        assert len(built) == 2
        assert result.success
        graph = built[1].graph
        assert graph.removed_edge_ids() == []
        assert result.verification.graph is None
        assert result.detection.graph is None
        monkeypatch.undo()
        front = result.verification.front
        fresh, _s, _p = build_layout_conflict_graph(
            front.layout, tech, front=(front.shifters, front.pairs))
        assert result.assignment.phases == assign_phases(fresh).phases

    def test_assignment_reuses_verify_front(self, tech):
        """Phase assignment builds its graph from the verify pass's
        front end — the corrected layout's shifters are generated at
        most once."""
        result = run_pipeline(figure1_layout(), tech)
        assert result.success
        ids = {s.id for s in result.verification.front.shifters}
        assert set(result.assignment.phases) == ids


class TestTiledPipeline:
    @pytest.mark.parametrize("seed", [31, 32])
    def test_tiled_equals_monolithic(self, tech, seed):
        lay = standard_cell_layout(GeneratorParams(rows=4, cols=15),
                                   seed=seed)
        mono = run_pipeline(lay, tech)
        tiled = run_pipeline(lay, tech, PipelineConfig(tiles=3),
                             cache=ArtifactCache())
        assert ([c.key for c in mono.detection.report.conflicts]
                == [c.key for c in tiled.detection.report.conflicts])
        assert (mono.correction.report.cuts
                == tiled.correction.report.cuts)
        assert mono.success == tiled.success
        if mono.assignment is not None:
            assert mono.assignment.phases == tiled.assignment.phases

    def test_second_pass_hits_clean_tiles(self, tech):
        """Tiles the cuts leave untouched are verify-pass cache hits."""
        lay = standard_cell_layout(GeneratorParams(rows=4, cols=15),
                                   seed=33)
        result = run_pipeline(lay, tech, PipelineConfig(tiles=3),
                              cache=ArtifactCache())
        assert result.detection.cache_delta[KIND_TILE] == (0, 9)
        # Per-pass deltas, not cumulative cache counters.
        assert sum(result.verification.cache_delta[KIND_TILE]) == 9

    def test_incremental_flag_forces_tiling(self, tech):
        result = run_aapsm_flow(grating_layout(6), tech,
                                incremental=True)
        assert result.pipeline.tiled
        assert result.pipeline.detection.chip is not None


class TestFlowCompatibility:
    def test_flow_result_carries_pipeline(self, tech):
        result = run_aapsm_flow(figure1_layout(), tech)
        assert result.pipeline is not None
        assert result.pipeline.success == result.success
        assert result.detection is result.pipeline.detection.report
        assert result.corrected_layout is result.pipeline.corrected_layout


class TestNoShifterObjects:
    """The front end, detection, correction, verification and
    assignment read the shifter set's id and rect columns, the pair
    columns and the layout's rect columns: a flow builds no
    ``Shifter``, no ``Rect`` per shifter, feature, conflict or tile, no
    ``OverlapPair`` and no ``CriticalFeature``."""

    @pytest.mark.parametrize("kwargs", [dict(tiles=3), dict()],
                             ids=["tiled-cold", "monolithic-storeless"])
    def test_d3_flow_never_indexes_a_shifter(self, tech, kwargs):
        from unittest import mock

        from repro.bench import build_design
        from repro.shifters import OverlapPair, ShifterSet

        from ..oracles import CriticalFeature

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built")

        layout = build_design("D3")
        expected = run_aapsm_flow(layout, tech, **kwargs)
        with mock.patch.object(ShifterSet, "__getitem__", refuse), \
                mock.patch.object(ShifterSet, "rects", property(refuse)), \
                mock.patch.object(ShifterSet, "rect_of", refuse), \
                mock.patch.object(OverlapPair, "__init__", refuse), \
                mock.patch.object(CriticalFeature, "__init__", refuse):
            result = run_aapsm_flow(layout, tech, **kwargs)
        assert result.success and expected.success
        assert result.detection.num_conflicts > 0
        assert result.corrected_layout.features == \
            expected.corrected_layout.features

    @pytest.mark.parametrize("kwargs", [dict(tiles=3), dict()],
                             ids=["tiled-cold", "monolithic-storeless"])
    def test_rect_count_does_not_grow_with_the_design(self, tech, kwargs):
        """A cold D3 flow and a cold D5 flow (6x the features) make the
        same few ``Rect`` objects: the corrected layout, the tile slices
        and the correct stage's passes are columns."""
        from unittest import mock

        from repro.bench import build_design
        from repro.geometry import Rect

        post_init = Rect.__post_init__
        counts = {}
        for design in ("D3", "D5"):
            layout = build_design(design)
            made = []

            def counting(rect):
                made.append(1)
                post_init(rect)

            with mock.patch.object(Rect, "__post_init__", counting):
                result = run_aapsm_flow(layout, tech, **kwargs)
            assert result.success and result.correction.num_cuts > 0
            counts[design] = len(made)
        assert counts["D3"] == counts["D5"] <= 2, counts


def _counted_conversions():
    """Wrap ``rect_columns`` wherever a loaded ``repro`` module binds
    it; returns the patches and the list that collects the length of
    every rect list converted rather than read from its columns."""
    import sys
    from unittest import mock

    from repro.geometry import rect as rect_module

    original = rect_module.rect_columns
    converted = []

    def counting(rects):
        if getattr(rects, "columns", None) is None:
            converted.append(len(rects))
        return original(rects)

    patches = [mock.patch.object(module, "rect_columns", counting)
               for name, module in list(sys.modules.items())
               if name.startswith("repro")
               and getattr(module, "rect_columns", None) is original]
    return patches, converted


class TestOneColumnConversionPerRevision:
    """A flow converts its input layout's rect columns once.  Tiles get
    their slice of them, correction hands the corrected layout the
    columns it computed, and the caller's layout keeps no memo, so a
    second flow on the same object converts again."""

    @staticmethod
    def converting(run, layout):
        from contextlib import ExitStack

        patches, converted = _counted_conversions()
        with ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            result = run(layout)
        return result, converted

    @pytest.mark.parametrize("kwargs", [dict(tiles=3), dict()],
                             ids=["tiled-cold", "monolithic-storeless"])
    def test_d3_flow(self, tech, kwargs):
        from repro.bench import build_design

        layout = build_design("D3")
        features = layout.features
        expected = run_aapsm_flow(layout, tech, **kwargs)
        for _ in range(2):
            result, converted = self.converting(
                lambda lay: run_aapsm_flow(lay, tech, **kwargs), layout)
            assert converted == [len(features)]
            assert result.corrected_layout.features \
                == expected.corrected_layout.features
            assert result.detection.conflicts == expected.detection.conflicts
        assert layout.features is features and type(features) is list

    def test_cold_chip_operation(self, tech):
        from ..conftest import cold_chip_layout

        layout = cold_chip_layout(17)
        config = PipelineConfig(tiled=True, executor="serial")
        result, converted = self.converting(
            lambda lay: run_pipeline(lay, tech, config,
                                     cache=ArtifactCache()), layout)
        assert result.success
        assert converted == [layout.num_polygons]
        assert getattr(layout.features, "columns", None) is None
