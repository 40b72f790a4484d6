"""Content keys for per-tile detection results.

A tile's detection outcome is a pure function of (a) the geometry it
captured, (b) the rule deck, (c) the graph kind, and (d) the ownership
window that filters its contribution.
The cache key hashes exactly those inputs, so:

* re-running an unchanged chip hits on every tile;
* an incremental edit only invalidates the tiles whose capture window
  contains changed geometry — the enabling property for fast ECO
  (engineering change order) re-runs;
* changing the rule deck, graph kind or tile grid invalidates
  cleanly, because all of them land in the key.

Results live in the unified artifact store
(:class:`repro.cache.ArtifactCache`) under the ``tile`` kind, shared
with component colorings and verifier verdicts.
"""

from __future__ import annotations

import hashlib

from ..layout import tech_fingerprint
from .executor import TileJob

# Bump when TileResult/CanonicalConflict shape or the key encoding
# changes so stale directories self-invalidate instead of unpickling
# garbage.  Format 5: the captured geometry enters as the tile's
# sorted-rect digest (:attr:`TileJob.digest`).  Format 6: the key no
# longer names a bipartization method (the gadget is the only engine).
CACHE_FORMAT = 6


def tile_cache_key(job: TileJob) -> str:
    """Stable hex digest of everything a tile result depends on.

    The captured geometry enters as the job's order-free rect digest
    (:attr:`~repro.chip.executor.TileJob.digest`, computed once per
    tile by the partition), so the key is independent of feature
    numbering.
    """
    h = hashlib.sha256()
    h.update(f"format:{CACHE_FORMAT}".encode())
    h.update(tech_fingerprint(job.tech))
    h.update(f"kind:{job.kind}".encode())
    h.update(f"owner:{job.owner}".encode())
    h.update(f"geometry:{job.digest}".encode())
    return h.hexdigest()

