"""Strata generator tests: seed stability is the contract.

Every scenario must be a pure function of ``(stratum, seed)`` — same
pair, byte-identical layout and content id, in this process or any
other — because corpus reports name scenarios only by that pair.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.bench import LayoutSpec, resolve_spec
from repro.layout import check_layout
from repro.scenarios import (
    STRATA,
    Scenario,
    build_scenario,
    scenario_id,
    stratum_names,
)


def _feature_digest(layout):
    h = hashlib.sha256()
    for r in layout.features:
        h.update(repr((r.x1, r.y1, r.x2, r.y2)).encode())
    return h.hexdigest()


class TestRegistry:
    def test_expected_strata(self):
        assert stratum_names() == ["density", "oddcycle", "tjoin",
                                   "boundary", "darkfield", "duplicate"]

    def test_every_stratum_described_and_tagged(self):
        for s in STRATA.values():
            assert s.description
            assert s.invariants

    def test_unknown_stratum_names_choices(self):
        with pytest.raises(KeyError, match="oddcycle"):
            build_scenario("bogus", 0)


class TestSeedStability:
    @pytest.mark.parametrize("stratum", stratum_names())
    def test_same_seed_same_bytes_and_id(self, stratum):
        a = build_scenario(stratum, 5)
        b = build_scenario(stratum, 5)
        assert a.layout.features == b.layout.features
        assert a.sid == b.sid
        assert a.name == b.name

    @pytest.mark.parametrize("stratum", stratum_names())
    def test_different_seeds_differ(self, stratum):
        ids = {build_scenario(stratum, s).sid for s in range(4)}
        assert len(ids) > 1

    def test_cross_process_stability(self):
        """The reproducibility contract, checked against a fresh
        interpreter: no dict-order, hash-randomization, or process
        state may leak into the layout bytes or the id."""
        code = (
            "from repro.scenarios import build_scenario\n"
            "import hashlib\n"
            "for stratum in ('density', 'oddcycle', 'boundary',"
            " 'duplicate'):\n"
            "    s = build_scenario(stratum, 3)\n"
            "    h = hashlib.sha256()\n"
            "    for r in s.layout.features:\n"
            "        h.update(repr((r.x1, r.y1, r.x2, r.y2)).encode())\n"
            "    print(s.sid, h.hexdigest())\n"
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        for stratum, line in zip(
                ("density", "oddcycle", "boundary", "duplicate"), lines):
            s = build_scenario(stratum, 3)
            sid, digest = line.split()
            assert sid == s.sid, stratum
            assert digest == _feature_digest(s.layout), stratum


class TestContentIds:
    def test_id_is_content_not_recipe(self):
        """Identical geometry under a different name hashes the same."""
        s = build_scenario("tjoin", 0)
        copied = s.layout.copy(name="renamed")
        assert scenario_id(copied, s.tech, s.tiles) == s.sid

    def test_id_sees_tiles_and_tech(self):
        from repro.layout import Technology

        s = build_scenario("density", 0)
        assert scenario_id(s.layout, s.tech, (4, 4)) != s.sid
        assert scenario_id(s.layout, Technology.node_65nm(),
                           s.tiles) != s.sid

    def test_id_order_independent(self):
        from repro.layout import layout_from_rects

        s = build_scenario("tjoin", 0)
        reversed_layout = layout_from_rects(
            list(reversed(s.layout.features)))
        assert scenario_id(reversed_layout, s.tech, s.tiles) == s.sid


class TestStratumGeometry:
    @pytest.mark.parametrize("stratum",
                             [n for n in stratum_names()
                              if n != "duplicate"])
    def test_non_duplicate_strata_drc_clean(self, stratum, tech):
        for seed in range(3):
            s = build_scenario(stratum, seed)
            assert check_layout(s.layout, tech) == [], (stratum, seed)

    def test_density_sweep_monotone_tightness(self):
        """The DRC-tight level packs more polygons per row-column than
        the sparse negative control."""
        sparse = build_scenario("density", 0)   # level 0
        tight = build_scenario("density", 3)    # level 3
        assert tight.num_polygons > sparse.num_polygons

    def test_tjoin_expected_conflicts_tagged(self):
        s = build_scenario("tjoin", 4)
        assert s.expect_conflicts is not None and s.expect_conflicts >= 4

    def test_boundary_pins_grid_and_straddles_seams(self):
        s = build_scenario("boundary", 0)
        assert s.tiles == (3, 3)
        box = s.layout.bbox()
        assert (box.x1, box.y1, box.x2, box.y2) == (0, 0, 6000, 6000)
        # At least one feature straddles >= 3 column windows (crosses
        # both x seams at 2000 and 4000).
        assert any(r.x1 < 2000 and r.x2 > 4000
                   for r in s.layout.features)
        # And at least one feature crosses a seam without spanning the
        # die (the pinned cluster).
        assert any((r.x1 < 2000 < r.x2 or r.x1 < 4000 < r.x2)
                   and r.width < 3000 for r in s.layout.features)

    def test_duplicate_stratum_has_duplicates(self):
        for seed in range(3):
            s = build_scenario("duplicate", seed)
            assert len(set(s.layout.features)) < s.layout.num_polygons

    def test_duplicate_stratum_excludes_tiled(self):
        s = build_scenario("duplicate", 0)
        assert "tiled" not in s.invariants
        assert "executors" in s.invariants

    def test_darkfield_stratum_adds_tag(self):
        s = build_scenario("darkfield", 0)
        assert "darkfield" in s.invariants
        assert "tiled" in s.invariants


class TestLayoutSpecProtocol:
    def test_scenario_is_a_layout_spec(self):
        s = build_scenario("oddcycle", 1)
        assert isinstance(s, LayoutSpec)
        assert s.build() is s.layout
        rebuilt = s.build(seed=2)
        assert rebuilt.features == build_scenario("oddcycle",
                                                  2).layout.features

    def test_resolve_spec_routes_scenarios(self):
        spec = resolve_spec("scenario:tjoin:1")
        assert isinstance(spec, Scenario)
        assert spec.stratum == "tjoin" and spec.seed == 1
        assert spec.layout.features == \
            build_scenario("tjoin", 1).layout.features

    def test_resolve_spec_rejects_bad_specs(self):
        for bad in ("scenario:bogus:1", "scenario:tjoin:x",
                    "scenario:tjoin", "D99"):
            with pytest.raises(KeyError):
                resolve_spec(bad)

    def test_build_design_accepts_scenario_specs(self):
        from repro.bench import build_design

        layout = build_design("scenario:oddcycle:0")
        assert layout.features == \
            build_scenario("oddcycle", 0).layout.features
