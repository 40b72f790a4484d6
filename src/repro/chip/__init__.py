"""Full-chip tiling and parallel orchestration (scale-out seam).

The monolithic flow in :mod:`repro.core` runs every stage on the whole
layout in one process.  This package is the production-scale path:

* :mod:`repro.chip.partition` — cut the chip into haloed tiles;
* :mod:`repro.chip.executor` — per-tile detection over a pluggable
  executor backend registry (serial / process, extensible via
  :func:`register_executor`), in canonical geometric keys;
* :mod:`repro.chip.cache` — content keys of per-tile results;
* :mod:`repro.chip.stitch` — merge owned tile conflicts into one
  chip-level report in global shifter ids, arbitrating each boundary
  cluster to the tile that owns its anchor;
* :mod:`repro.chip.orchestrator` — ``run_chip_flow`` ties it together.

Distribution plugs in at two seams without touching detection itself:
an executor backend that maps tile jobs over a cluster, and a
:class:`~repro.cache.StoreBackend` that shares artifacts across
machines.
"""

from .cache import tile_cache_key
from .executor import (
    EXECUTOR_BACKENDS,
    CanonicalConflict,
    ProcessExecutor,
    SerialExecutor,
    TileJob,
    TileResult,
    detect_tile,
    make_executor,
    make_jobs,
    register_executor,
    resolve_executor,
)
from .orchestrator import ChipReport, TileStat, run_chip_flow
from .partition import (
    Tile,
    TileGrid,
    auto_tile_grid,
    default_halo,
    interaction_distance,
    partition_layout,
)
from .stitch import (
    StitchStats,
    arbitrate_clusters,
    build_stitch_clusters,
    stitch_results,
)

__all__ = [
    "run_chip_flow",
    "ChipReport",
    "TileStat",
    "Tile",
    "TileGrid",
    "partition_layout",
    "auto_tile_grid",
    "default_halo",
    "interaction_distance",
    "TileJob",
    "TileResult",
    "CanonicalConflict",
    "detect_tile",
    "make_jobs",
    "SerialExecutor",
    "ProcessExecutor",
    "EXECUTOR_BACKENDS",
    "make_executor",
    "register_executor",
    "resolve_executor",
    "tile_cache_key",
    "StitchStats",
    "arbitrate_clusters",
    "build_stitch_clusters",
    "stitch_results",
]
