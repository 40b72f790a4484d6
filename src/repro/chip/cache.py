"""Content keys for per-tile detection results.

A tile's detection outcome is a pure function of (a) the geometry it
captured, (b) the rule deck, (c) the graph kind and bipartization
method, and (d) the ownership window that filters its contribution.
The cache key hashes exactly those inputs, so:

* re-running an unchanged chip hits on every tile;
* an incremental edit only invalidates the tiles whose capture window
  contains changed geometry — the enabling property for fast ECO
  (engineering change order) re-runs;
* changing the rule deck, graph kind or tile grid invalidates
  cleanly, because all of them land in the key.

Results live in the unified artifact store
(:class:`repro.cache.ArtifactCache`) under the ``tile`` kind, shared
with window solutions and component colorings.
"""

from __future__ import annotations

import hashlib

from ..layout import tech_fingerprint
from .executor import TileJob

# Bump when TileResult/CanonicalConflict shape changes so stale
# directories self-invalidate instead of unpickling garbage.
CACHE_FORMAT = 4


def tile_cache_key(job: TileJob) -> str:
    """Stable hex digest of everything a tile result depends on."""
    h = hashlib.sha256()
    h.update(f"format:{CACHE_FORMAT}".encode())
    h.update(tech_fingerprint(job.tech))
    h.update(f"kind:{job.kind};method:{job.method}".encode())
    h.update(f"owner:{job.owner}".encode())
    for rect in sorted((r.x1, r.y1, r.x2, r.y2)
                       for r in job.layout.features):
        h.update(repr(rect).encode())
    return h.hexdigest()

