#!/usr/bin/env python3
"""The ECO warm path: cold run, single-feature edit, warm re-run.

This walks the incremental story end to end on the benchmark design
D2 (~120 polygons):

1. a **cold** pipeline run warms a persistent artifact store with
   all three kinds of intermediate — per-tile detection results,
   component colorings, and verifier verdicts (the front end, stitch
   arbitration and the correction windows are cheap and recomputed on
   every run);
2. a **single-feature edit** (the canonical conflict-neutral ECO:
   shrink one isolated interior polygon by 2 nm) dirties exactly the
   tiles whose capture window sees it;
3. a **warm** ECO re-run re-detects only those dirty tiles and
   replays everything else from the store, producing a report
   identical to a cold run on the edited layout.

Run:  python examples/eco_warm_path.py
"""

import tempfile

from repro.bench import build_design
from repro.cache import KIND_TILE, ArtifactCache
from repro.layout import Technology
from repro.pipeline import (
    PipelineConfig,
    plan_eco,
    propose_eco_edit,
    run_eco_flow,
    run_pipeline,
)


def print_kind_counters(title: str, counts: dict) -> None:
    print(f"  {title}:")
    for kind, (hits, misses) in sorted(counts.items()):
        print(f"    {kind:<9} {hits:>4} replayed, {misses:>4} recomputed")


def main() -> None:
    tech = Technology.node_90nm()
    base = build_design("D2")
    tiles = 3  # 3x3 grid so the edit leaves clean tiles to replay

    with tempfile.TemporaryDirectory(prefix="repro-eco-") as cache_dir:
        store = ArtifactCache(cache_dir)

        print("=== 1. cold run (warms the store) ===")
        cold = run_pipeline(base, tech, PipelineConfig(tiles=tiles),
                            cache=store)
        print(f"  {base.name}: {base.num_polygons} polygons, "
              f"{cold.detection.report.num_conflicts} conflicts, "
              f"{cold.correction.report.num_cuts} cut(s), "
              f"success: {cold.success}")
        print_kind_counters("per-kind cache counters (all cold)",
                            cold.artifact_cache_counts())

        print("\n=== 2. single-feature edit ===")
        edited, index = propose_eco_edit(base, tech)
        rect = base.features[index]
        print(f"  shrank feature #{index} at "
              f"({rect.x1},{rect.y1},{rect.x2},{rect.y2}) by 2 nm")
        plan = plan_eco(base, edited, tech, tiles=tiles)
        print(f"  plan: {plan.num_dirty} dirty / {plan.num_clean} "
              f"clean of {plan.num_tiles} tiles")

        print("\n=== 3. warm ECO re-run (dirty tiles only) ===")
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=tiles),
                           cache=store, warm_base=False)
        r = eco.result
        print_kind_counters("per-kind cache counters (warm)",
                            r.artifact_cache_counts())
        # The detect stage's own store delta: hits replayed, misses
        # re-detected.
        replayed, detected = r.detection.cache_delta[KIND_TILE]
        assert detected == plan.num_dirty, "clean tile re-detected!"
        print(f"  re-detected {detected} dirty tile(s); {replayed} "
              f"clean tile result(s) replayed")
        print(f"  result: {r.post_detection.num_conflicts} residual "
              f"conflicts, {r.correction.report.num_cuts} cut(s), "
              f"success: {r.success}")

        print("\n=== summary ===")
        print(eco.summary())


if __name__ == "__main__":
    main()
