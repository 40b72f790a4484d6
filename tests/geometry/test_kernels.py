"""The numpy geometry kernel against the scalar oracle.

The contract under test is *bit-identity*: candidate pair sets, pair
measurements, region centres, and whole detection reports must be
byte-for-byte equal between the production numpy sweep and the scalar
grid sweep of ``tests/oracles.py``, on randomized rect sets including
the degenerate configurations (touching edges, duplicate rects,
slivers, multi-tile straddlers), on inputs the sweep cuts into bands
(rects crossing many bands, chip-spanning wires, coordinates near
±1e9, and one row that stays one band), at sweep blocks small enough
that every sweep spans many blocks, and across executors.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import asdict
from unittest import mock

import pytest

import repro
import repro.geometry.kernels as kernels
from repro.chip import run_chip_flow
from repro.geometry import Rect, neighbor_pairs
from repro.geometry.rect import rect_columns
from repro.geometry.kernels import numpy_kernel
from repro.geometry.kernels.numpy_kernel import NumpyKernel
from repro.layout import GeneratorParams, layout_from_rects, \
    standard_cell_layout
from repro.pipeline import PipelineConfig, run_pipeline
from repro.shifters import find_overlap_pairs, generate_shifters
from repro.shifters import overlap

from ..oracles import ScalarKernel, region_center2, use_kernel

SCALAR = ScalarKernel()
NUMPY = NumpyKernel()


def on_kernel(name: str):
    """Run the block on the production kernel ("numpy") or the scalar
    oracle ("scalar")."""
    return use_kernel(SCALAR if name == "scalar" else None)


def random_rects(rng: random.Random, n: int, span: int = 3000,
                 max_dim: int = 160) -> list:
    """Random rect soup, salted with degenerate configurations."""
    rects = []
    for _ in range(n):
        x1 = rng.randrange(-span, span)
        y1 = rng.randrange(-span, span)
        rects.append(Rect(x1, y1, x1 + rng.randrange(1, max_dim),
                          y1 + rng.randrange(1, max_dim)))
    if n >= 4:
        rects.append(rects[0])                      # exact duplicate
        a = rects[1]
        rects.append(Rect(a.x2, a.y1, a.x2 + 50, a.y2))   # edge touch
        rects.append(Rect(a.x2, a.y2, a.x2 + 50, a.y2 + 50))  # corner touch
        b = rects[2]
        rects.append(Rect(b.x1, b.y2 + 1, b.x2, b.y2 + 2))  # 1nm sliver
        # A straddler long enough to span several partition tiles.
        rects.append(Rect(-span, rects[3].y1, span, rects[3].y1 + 90))
    return rects


def grid_rects(rng: random.Random, cols: int, rows: int, pitch: int = 80,
               x0: int = 0, y0: int = 0) -> list:
    """A jittered grid of small rects: dense enough that one sweep band
    would hold thousands of candidates."""
    rects = []
    for i in range(cols):
        for j in range(rows):
            x = x0 + i * pitch + rng.randrange(0, 40)
            y = y0 + j * pitch + rng.randrange(0, 40)
            rects.append(Rect(x, y, x + rng.randrange(20, 90),
                              y + rng.randrange(20, 90)))
    return rects


def banded_inputs(name: str, seed: int) -> list:
    """Rect sets for the banded sweep, each with its hard case."""
    rng = random.Random(seed)
    if name == "many-bands":
        # Tall rects crossing many bands among small ones.
        rects = grid_rects(rng, 36, 36)
        for _ in range(40):
            x = rng.randrange(0, 36 * 80)
            y = rng.randrange(0, 3000)
            rects.append(Rect(x, y, x + 60, y + rng.randrange(1500, 5000)))
        return rects
    if name == "chip-wire":
        # Vertical wires spanning the whole chip, one at each edge.
        rects = grid_rects(rng, 36, 36)
        return rects + [Rect(-90, -500, 0, 36 * 80 + 500),
                        Rect(1000, -500, 1090, 36 * 80 + 500)]
    if name == "one-band":
        # A single row of equal heights: every rect lies in one band.
        xs = [rng.randrange(0, 40_000) for _ in range(1200)]
        return [Rect(x, 0, x + rng.randrange(20, 90), 100) for x in xs]
    if name == "far":
        # Two clusters near -1e9 and +1e9.
        return (grid_rects(rng, 30, 30, x0=-10 ** 9, y0=-10 ** 9)
                + grid_rects(rng, 30, 30, x0=10 ** 9 - 6000,
                             y0=10 ** 9 - 6000))
    raise ValueError(name)


BANDED = ["many-bands", "chip-wire", "far"]


@contextmanager
def recorded_bands():
    """Record what every sweep's band layout returned (None: one band,
    else the replica count and the input size)."""
    seen = []
    layout = numpy_kernel._band_layout

    def record(x1, y1, x2, y2, dist):
        bands = layout(x1, y1, x2, y2, dist)
        seen.append(None if bands is None
                    else (int(bands[3].sum()), len(x1)))
        return bands

    with mock.patch.object(numpy_kernel, "_band_layout", record):
        yield seen


class TestKernelEquivalence:
    @pytest.mark.parametrize("dist", [1, 120])
    @pytest.mark.parametrize("name", BANDED + ["one-band"])
    def test_banded_inputs_match(self, name, dist):
        rects = banded_inputs(name, 7)
        groups = [i // 3 for i in range(len(rects))]
        with recorded_bands() as seen:
            pairs = NUMPY.neighbor_pairs(rects, dist)
            rows = NUMPY.overlap_rows(rects, dist, groups=groups)
        assert pairs == SCALAR.neighbor_pairs(rects, dist)
        assert rows == SCALAR.overlap_rows(rects, dist, groups=groups)
        assert pairs, "a vacuous input"
        if name == "one-band":
            assert all(bands is None for bands in seen)
        else:
            assert len(seen) == 2 and None not in seen
            # The height rule keeps replicas under three per rect.
            assert all(rows_ < 3 * n for rows_, n in seen)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dist", [1, 120, 400])
    def test_every_input_banded_matches(self, seed, dist):
        """With the candidate floor lifted, small random inputs band
        too: every degenerate configuration crosses band edges."""
        rng = random.Random(900 + seed)
        rects = random_rects(rng, rng.choice([5, 40, 150]))
        groups = [rng.randrange(max(1, len(rects) // 2)) for _ in rects]
        with mock.patch.object(numpy_kernel, "BAND_MIN_CANDIDATES", 0), \
                recorded_bands() as seen:
            pairs = NUMPY.neighbor_pairs(rects, dist)
            rows = NUMPY.overlap_rows(rects, dist, groups=groups)
        assert pairs == SCALAR.neighbor_pairs(rects, dist)
        assert rows == SCALAR.overlap_rows(rects, dist, groups=groups)
        assert any(bands is not None for bands in seen)

    def test_tiny_inputs_take_one_band(self):
        for seed in range(20):
            rng = random.Random(seed)
            rects = random_rects(rng, rng.choice([2, 5, 40]))
            with recorded_bands() as seen:
                NUMPY.neighbor_pairs(rects, 120)
            assert seen == []

    def test_sweep_counters(self):
        from repro.obs import Tracer, use_tracer

        rects = banded_inputs("many-bands", 3)
        counts = {}
        for label, floor in (("banded", 0), ("one-band", 1 << 62)):
            tracer = Tracer()
            with mock.patch.object(numpy_kernel, "BAND_MIN_CANDIDATES",
                                   floor), use_tracer(tracer):
                pairs = NUMPY.neighbor_pairs(rects, 120)
            counter = tracer.metrics.counter
            assert counter("kernel.sweep.pairs").value == len(pairs)
            counts[label] = counter("kernel.sweep.candidates").value
        assert len(pairs) < counts["banded"] < counts["one-band"] / 2

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dist", [1, 13, 120, 400])
    def test_neighbor_pairs_match(self, seed, dist):
        rng = random.Random(seed)
        rects = random_rects(rng, rng.choice([0, 1, 2, 5, 40, 150]))
        assert NUMPY.neighbor_pairs(rects, dist) \
            == SCALAR.neighbor_pairs(rects, dist)

    @pytest.mark.parametrize("seed", range(8))
    def test_overlap_rows_match(self, seed):
        rng = random.Random(100 + seed)
        rects = random_rects(rng, 60)
        groups = [rng.randrange(30) for _ in rects]
        for dist in (1, 120, 300):
            a = SCALAR.overlap_rows(rects, dist, groups=groups)
            b = NUMPY.overlap_rows(rects, dist, groups=groups)
            assert a == b
            # Rows are plain Python ints (cache/JSON byte-stability).
            assert all(type(v) is int for row in b for v in row)

    @pytest.mark.parametrize("seed", range(8))
    def test_region_centers_match(self, seed):
        rng = random.Random(200 + seed)
        rects = random_rects(rng, 50)
        pairs = SCALAR.neighbor_pairs(rects, 500)
        got = NUMPY.region_centers2(rects, pairs)
        assert got == [region_center2(rects[i], rects[j])
                       for i, j in pairs]
        assert all(type(v) is int for c in got for v in c)

    def test_strict_distance_boundary(self):
        # Separation exactly == dist must be excluded (strict <) by
        # both kernels; dist-1 likewise, dist+1 includes the pair.
        rects = [Rect(0, 0, 10, 10), Rect(30, 0, 40, 10)]  # gap 20
        for dist, expect in ((20, []), (21, [(0, 1)])):
            assert SCALAR.neighbor_pairs(rects, dist) == expect
            assert NUMPY.neighbor_pairs(rects, dist) == expect

    def test_overlap_pairs_on_generated_layout(self, tech):
        layout = standard_cell_layout(
            GeneratorParams(rows=3, cols=10), seed=7)
        shifters = generate_shifters(layout, tech)
        with use_kernel(SCALAR):
            a = find_overlap_pairs(shifters, tech)
        b = find_overlap_pairs(shifters, tech)
        assert a == b


class TestSweepBlocks:
    """Blocks of 1-7 candidate rows: every sweep spans many blocks, and
    single rects' candidate windows outgrow a whole block."""

    @pytest.mark.parametrize("name", BANDED)
    def test_tiny_blocks_banded(self, name):
        rng = random.Random(11)
        rects = banded_inputs(name, 5)
        groups = [i // 2 for i in range(len(rects))]
        with mock.patch.object(numpy_kernel, "SWEEP_BLOCK",
                               rng.randint(1, 7)):
            for dist in (1, 120):
                with recorded_bands() as seen:
                    rows = NUMPY.overlap_rows(rects, dist, groups=groups)
                assert None not in seen
                assert rows == SCALAR.overlap_rows(rects, dist,
                                                   groups=groups)

    @pytest.mark.parametrize("seed", range(12))
    def test_tiny_blocks_match_oracle(self, seed):
        rng = random.Random(300 + seed)
        rects = random_rects(rng, rng.choice([5, 40, 120]))
        groups = [rng.randrange(max(1, len(rects) // 2)) for _ in rects]
        with mock.patch.object(numpy_kernel, "SWEEP_BLOCK",
                               rng.randint(1, 7)):
            for dist in (1, 120, 400):
                assert NUMPY.neighbor_pairs(rects, dist) \
                    == SCALAR.neighbor_pairs(rects, dist)
                assert NUMPY.overlap_rows(rects, dist, groups=groups) \
                    == SCALAR.overlap_rows(rects, dist, groups=groups)


    @pytest.mark.parametrize("seed", range(6))
    def test_neighbor_mode_is_measured_mode_indices(self, seed):
        """The neighbour mode returns exactly the measured mode's index
        columns, at the production block and at blocks of 1-7 rows, on
        one-band and banded sweeps."""
        rng = random.Random(600 + seed)
        rects = random_rects(rng, rng.choice([5, 40, 150]))
        if seed % 2:
            rects += banded_inputs("many-bands", seed)
        x1, y1, x2, y2 = rect_columns(rects)
        for block in (numpy_kernel.SWEEP_BLOCK, rng.randint(1, 7)):
            with mock.patch.object(numpy_kernel, "SWEEP_BLOCK", block):
                for dist in (1, 120, 400):
                    i, j = NUMPY.neighbor_pair_arrays(x1, y1, x2, y2, dist)
                    rows = NUMPY.overlap_row_array(x1, y1, x2, y2, dist)
                    assert i.tolist() == rows[:, 0].tolist()
                    assert j.tolist() == rows[:, 1].tolist()


class TestKernelRegistry:
    """What is left of kernel selection: one accessor returning the
    numpy sweep, and the test-side swap that puts an oracle behind
    it."""

    def test_neighbor_pairs_dispatches(self):
        rects = [Rect(0, 0, 10, 10), Rect(15, 0, 25, 10)]
        seen = []

        class Recording(ScalarKernel):
            def neighbor_pairs(self, rects, dist):
                seen.append(dist)
                return super().neighbor_pairs(rects, dist)

        assert kernels.get_kernel().name == "numpy"
        assert neighbor_pairs(rects, 10) == [(0, 1)]
        with use_kernel(Recording()):
            assert neighbor_pairs(rects, 10) == [(0, 1)]
        assert seen == [10]

    def test_use_kernel_restores(self):
        with use_kernel(SCALAR):
            assert kernels.get_kernel() is SCALAR
            assert overlap.get_kernel() is SCALAR
        assert kernels.get_kernel().name == "numpy"
        assert overlap.get_kernel is kernels.get_kernel

    def test_use_kernel_none_inherits(self):
        with use_kernel(SCALAR):
            with use_kernel(None) as inner:
                assert inner is SCALAR
                assert kernels.get_kernel() is SCALAR


class TestLazyNumpy:
    def test_import_does_not_load_numpy(self):
        """numpy loads on the first kernel or graph-core call: importing
        the pipeline, the scenario curriculum or the CLI must not pay
        for it."""
        code = ("import sys, repro.pipeline, repro.scenarios, repro.cli; "
                "sys.exit('numpy' in sys.modules)")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr or "numpy imported eagerly"


def _report_key(report):
    """A detection report as plain comparable data."""
    d = asdict(report)
    d.pop("detect_seconds")
    return d


class TestPipelineEquivalence:
    @pytest.fixture(scope="class")
    def layout(self):
        return standard_cell_layout(
            GeneratorParams(rows=3, cols=12, risky_wire_fraction=0.3),
            seed=11)

    def test_detection_reports_identical_across_executors(self, layout,
                                                          tech):
        reports = {}
        for kernel in ("scalar", "numpy"):
            for executor in ("serial", "process"):
                with on_kernel(kernel):
                    chip = run_chip_flow(layout, tech, tiles=(2, 2),
                                         jobs=2, executor=executor)
                reports[(kernel, executor)] = _report_key(chip.detection)
        base = reports[("scalar", "serial")]
        for key, rep in reports.items():
            assert rep == base, f"report diverged under {key}"

    @pytest.mark.parametrize("tiled", [False, True])
    def test_full_pipeline_identical(self, layout, tech, tiled):
        config = PipelineConfig(tiles=(2, 2) if tiled else None,
                                jobs=1, tiled=tiled,
                                executor="serial" if tiled else None)
        results = {}
        for kernel in ("scalar", "numpy"):
            with on_kernel(kernel):
                r = run_pipeline(layout, tech, config)
            results[kernel] = (
                _report_key(r.detection.report),
                _report_key(r.verification.report),
                [(c.axis, c.position, c.width)
                 for c in r.correction.report.cuts],
                None if r.phase.assignment is None
                else sorted(r.phase.assignment.phases.items()),
                r.phase.success,
            )
        assert results["numpy"] == results["scalar"]

    def test_small_edge_layouts(self, tech):
        # Tiny layouts: no features, one feature, two touching columns.
        layouts = [
            layout_from_rects([], name="empty"),
            layout_from_rects([Rect(0, 0, 90, 800)], name="one"),
            layout_from_rects([Rect(0, 0, 90, 800),
                               Rect(230, 0, 320, 800)], name="pair"),
        ]
        for lay in layouts:
            with use_kernel(SCALAR):
                a = generate_shifters(lay, tech)
                pa = find_overlap_pairs(a, tech)
            b = generate_shifters(lay, tech)
            pb = find_overlap_pairs(b, tech)
            assert len(a) == len(b) and pa == pb
