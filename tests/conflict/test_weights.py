"""Edge-weight model tests.

Weight models are column functions over a pair list; the per-pair
models they replaced live in ``tests/oracles.py`` and must agree with
them pair for pair, refined by ``make_generic`` or not.
"""

import pytest

from repro.bench import build_design
from repro.conflict import (
    NAMED_MODELS,
    build_phase_conflict_graph,
    facing_span_weight,
    feature_edge_weight,
    space_needed_weight,
    uniform_weight,
)
from repro.conflict.weights import make_generic, pair_tie_breakers
from repro.geometry import Rect
from repro.layout import layout_from_rects
from repro.scenarios import build_scenario, stratum_names
from repro.shifters import find_overlap_pairs, generate_shifters

from ..conftest import cold_chip_layout
from ..oracles import SCALAR_MODELS, pair_tie_breaker, scalar_make_generic


@pytest.fixture
def facing_pair(tech):
    lay = layout_from_rects([Rect(0, 0, 90, 1000), Rect(390, 0, 480, 1000)])
    shifters = generate_shifters(lay, tech)
    pairs = find_overlap_pairs(shifters, tech)
    assert len(pairs) == 1
    return shifters, pairs


class TestModels:
    def test_uniform(self, tech, facing_pair):
        shifters, pairs = facing_pair
        assert uniform_weight(pairs, shifters, tech).tolist() == [1]

    def test_space_needed(self, tech, facing_pair):
        shifters, pairs = facing_pair
        # Separation 100, rule 120 -> 1 + 20.
        assert space_needed_weight(pairs, shifters, tech).tolist() == [21]

    def test_space_needed_shrinks_with_distance(self, tech):
        def weight(gap):
            lay = layout_from_rects([
                Rect(0, 0, 90, 1000),
                Rect(90 + gap, 0, 180 + gap, 1000)])
            shifters = generate_shifters(lay, tech)
            pairs = find_overlap_pairs(shifters, tech)
            (w,) = space_needed_weight(pairs, shifters, tech).tolist()
            return w

        assert weight(280) > weight(300) > weight(310)

    def test_facing_span(self, tech, facing_pair):
        shifters, pairs = facing_pair
        # Both shifters span y in [-20, 1020]: facing span 1040.
        assert facing_span_weight(pairs, shifters, tech).tolist() \
            == [1 + 1040]

    def test_named_models_positive(self, tech, facing_pair):
        shifters, pairs = facing_pair
        for name, model in NAMED_MODELS.items():
            assert model(pairs, shifters, tech).min() >= 1, name

    def test_empty_pair_list(self, tech, facing_pair):
        shifters, _pairs = facing_pair
        for model in NAMED_MODELS.values():
            assert make_generic(model)([], shifters, tech).tolist() == []


class TestFeatureEdgeWeight:
    def test_exceeds_any_combination(self):
        weights = [5, 7, 100]
        assert feature_edge_weight(weights) > sum(weights)

    def test_empty(self):
        assert feature_edge_weight([]) == 1

    def test_exact_beyond_int64(self):
        weights = [(1 << 62) + 1] * 4
        assert feature_edge_weight(weights) == 2 * 4 * ((1 << 62) + 1) + 1


class TestGenericRefinement:
    def test_base_beyond_int64_range_is_refused(self, tech, facing_pair):
        shifters, pairs = facing_pair

        def huge(pairs, shifters, tech):
            return [1 << 31]

        with pytest.raises(ValueError):
            make_generic(huge)(pairs, shifters, tech)
        with pytest.raises(ValueError):
            make_generic(lambda p, s, t: [1 << 70])(pairs, shifters, tech)

    def test_largest_base_stays_exact(self, tech, facing_pair):
        shifters, pairs = facing_pair
        top = (1 << 31) - 1
        (w,) = make_generic(lambda p, s, t: [top])(pairs, shifters,
                                                   tech).tolist()
        assert w == top * (1 << 32) + pair_tie_breaker(pairs[0], shifters)

    def test_non_positive_weights_rejected_by_the_build(self, tech,
                                                        facing_pair):
        shifters, pairs = facing_pair
        with pytest.raises(ValueError, match="positive"):
            build_phase_conflict_graph(
                shifters, pairs, tech,
                lambda p, s, t: [-1] * len(p))


def corpus():
    out = [(f"{s}:{seed}", lambda s=s, seed=seed:
            build_scenario(s, seed).layout)
           for s in stratum_names() for seed in range(3)]
    out += [(d, lambda d=d: build_design(d)) for d in ("D1", "D2", "D3")]
    out += [(f"cold-chip:{seed}", lambda seed=seed: cold_chip_layout(seed))
            for seed in (17, 23)]
    return out


CORPUS = corpus()


@pytest.mark.parametrize("name,build", CORPUS, ids=[n for n, _ in CORPUS])
def test_column_models_match_per_pair_oracles(tech, name, build):
    shifters = generate_shifters(build(), tech)
    pairs = find_overlap_pairs(shifters, tech)
    assert pair_tie_breakers(pairs, shifters).tolist() \
        == [pair_tie_breaker(p, shifters) for p in pairs]
    for model_name, model in NAMED_MODELS.items():
        scalar = SCALAR_MODELS[model_name]
        for column, per_pair in ((model, scalar),
                                 (make_generic(model),
                                  scalar_make_generic(scalar))):
            assert column(pairs, shifters, tech).tolist() \
                == [per_pair(p, shifters, tech) for p in pairs], model_name
