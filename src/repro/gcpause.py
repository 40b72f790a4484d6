"""Pause CPython's cyclic garbage collector for the length of a flow.

A flow allocates hundreds of thousands of container objects that stay
reachable until it returns: the artifact store, tile sub-layouts,
shifter tables.  The collections those allocations trigger traverse
them over and over and free nothing, because the flow creates no
reference cycles: what it drops is freed by reference counting.  So
the public flow entry points (:func:`repro.pipeline.run_pipeline`,
:func:`repro.chip.run_chip_flow`, :func:`repro.pipeline.run_eco_flow`)
run under :func:`gc_paused`, and the pause holds back no memory.

The collector switch is process-wide, so flows run concurrently on
several threads can resume it for one another early; that costs
speed, never an answer.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic garbage collector for the ``with`` body.

    Only the outermost use acts.  When the collector is already
    disabled on entry, by the caller or by an enclosing flow, it is
    left disabled.  Otherwise it is re-enabled on exit, whether the
    body returns or raises.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
