"""Crossover kernel: the mask contract against a per-bit oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecscalar import de_opt, kernels
from ecscalar.de_opt import DEConfig, initialize
from ecscalar.rng import (
    GOLDEN_GAMMA,
    MASK64,
    SplitMix64,
    bernoulli_threshold,
    substream,
)


def _reference_mask(state, width, threshold, j_rand):
    """Independent construction straight from the documented contract."""
    stream = SplitMix64(0)
    stream.state = state
    mask = 0
    for j in range(width):
        u = stream.next_u64()
        take = (j == j_rand) or (threshold > 0 and u <= threshold - 1)
        mask = (mask << 1) | int(take)
    return mask, stream.state


class TestContract:
    def test_matches_reference_construction(self):
        rng = random.Random(1234)
        for _ in range(150):
            state = rng.getrandbits(64)
            width = rng.randint(1, 320)
            threshold = rng.choice(
                [0, 1, 1 << 63, (1 << 64) - 1, 1 << 64, rng.getrandbits(64)]
            )
            j_rand = rng.randrange(width)
            got = kernels.crossover_fill(state, width, threshold, j_rand)
            assert got == _reference_mask(state, width, threshold, j_rand)

    def test_rate_one_takes_everything(self):
        mask, _ = kernels.crossover_fill(7, 64, bernoulli_threshold(1.0), 3)
        assert mask == (1 << 64) - 1

    def test_rate_zero_takes_only_jrand(self):
        for j_rand in (0, 17, 63):
            mask, _ = kernels.crossover_fill(
                7, 64, bernoulli_threshold(0.0), j_rand
            )
            assert mask == 1 << (63 - j_rand)

    def test_consumes_exactly_width_draws(self):
        state = 42
        _, new_state = kernels.crossover_fill(state, 100, 1 << 63, 0)
        stream = SplitMix64(0)
        stream.state = state
        for _ in range(100):
            stream.next_u64()
        assert new_state == stream.state

    def test_golden_vector(self):
        # Frozen once from the documented construction; guards the draw
        # order and bit layout against accidental change.
        mask, new_state = kernels.crossover_fill(
            0x0123456789ABCDEF, 32, bernoulli_threshold(0.9), 5
        )
        ref_mask, ref_state = _reference_mask(
            0x0123456789ABCDEF, 32, bernoulli_threshold(0.9), 5
        )
        assert (mask, new_state) == (ref_mask, ref_state)
        assert mask == 0xFF7FFCFF
        assert new_state == 0xC8127C9772FB508F

    def test_validation(self):
        with pytest.raises(ValueError):
            kernels.crossover_fill(0, 8, 0, 8)
        with pytest.raises(ValueError):
            kernels.crossover_fill(0, 8, 1 << 63, -1)
        with pytest.raises(ValueError):
            kernels.crossover_fill(0, 8, (1 << 64) + 1, 0)


# Weyl-counter edge states: zero, all ones, and one step before wrapping.
EDGE_STATES = (0, MASK64, (1 << 64) - GOLDEN_GAMMA)
EDGE_THRESHOLDS = (0, 1, 1 << 63, MASK64, 1 << 64)
# Byte (8), u64 (64) and lane-count edges, plus the production widths.
EDGE_WIDTHS = (1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192, 193,
               224, 255, 256, 257, 511, 512, 513, 521, 599, 600)


def _clear_lane_caches():
    kernels._lanes.cache_clear()
    kernels._bound.cache_clear()
    kernels._draw_ramps.cache_clear()


class TestWordParallelKernel:
    """The big-int kernel against the per-bit oracle ``_reference_mask``."""

    @settings(max_examples=300, deadline=None)
    @given(
        width=st.integers(1, 600),
        state=st.one_of(st.sampled_from(EDGE_STATES), st.integers(0, MASK64)),
        threshold=st.one_of(
            st.sampled_from(EDGE_THRESHOLDS), st.integers(0, 1 << 64)
        ),
        data=st.data(),
    )
    def test_matches_reference_property(self, width, state, threshold, data):
        j_rand = data.draw(st.integers(0, width - 1))
        got = kernels.crossover_fill(state, width, threshold, j_rand)
        assert got == _reference_mask(state, width, threshold, j_rand)

    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_edge_states_and_thresholds(self, width):
        for state in EDGE_STATES:
            for threshold in EDGE_THRESHOLDS:
                for j_rand in {0, width // 2, width - 1}:
                    got = kernels.crossover_fill(
                        state, width, threshold, j_rand
                    )
                    assert got == _reference_mask(
                        state, width, threshold, j_rand
                    )

    @pytest.mark.parametrize("widths", [(64, 65), (256, 1), (192, 600)])
    def test_width_order_does_not_matter(self, widths):
        threshold = bernoulli_threshold(0.9)
        results = []
        for order in (widths, widths[::-1], widths):
            _clear_lane_caches()
            results.append({
                w: kernels.crossover_fill(0xDEADBEEF, w, threshold, 0)
                for w in order
            })
        assert results[0] == results[1] == results[2]
        for w, got in results[0].items():
            assert got == _reference_mask(0xDEADBEEF, w, threshold, 0)

    def test_lane_caches_are_bounded(self):
        assert kernels._lanes.cache_info().maxsize is not None
        assert kernels._bound.cache_info().maxsize is not None
        assert kernels._draw_ramps.cache_info().maxsize is not None

    @pytest.mark.parametrize(
        "n, words", [(37, 1), ((1 << 255) + 95, 4)], ids=["toy29", "4-word"]
    )
    def test_initial_draw_and_crossover_share_lanes_in_any_order(self, n, words):
        # Both draw on one chunk's lanes: a chunk of one- or four-word slots.
        lanes = words * de_opt._INIT_CHUNK
        size = 3 * de_opt._INIT_CHUNK
        config = DEConfig(population_size=size, seed=77)
        threshold = bernoulli_threshold(0.9)
        results = []
        for init_first in (True, False, True):
            _clear_lane_caches()
            if init_first:
                pop = initialize(config, n)
                mask = kernels.crossover_fill(0xDEADBEEF, lanes, threshold, 5)
            else:
                mask = kernels.crossover_fill(0xDEADBEEF, lanes, threshold, 5)
                pop = initialize(config, n)
            results.append((pop, mask))
        assert results[0] == results[1] == results[2]
        pop, mask = results[0]
        assert [ind.scalar for ind in pop] == [
            de_opt._draw_scalar(substream(77, 0, i), n) for i in range(size)
        ]
        assert mask == _reference_mask(0xDEADBEEF, lanes, threshold, 5)


class TestFirstDraws:
    """The initial population's batch draw against per-slot substreams."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from((0, MASK64)), st.integers(0, MASK64)),
        generation=st.integers(0, 1000),
        count=st.integers(1, 300),
        bits=st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(1, 600)),
        start=st.one_of(
            st.just(0), st.integers(0, 10_000), st.integers(0, MASK64)
        ),
    )
    def test_matches_per_slot_first_draws(
        self, seed, generation, count, bits, start
    ):
        got = kernels._first_draws(seed, generation, count, bits, start)
        assert got == [
            substream(seed, generation, i).next_bits(bits)
            for i in range(start, start + count)
        ]
