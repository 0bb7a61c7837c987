"""Differential-evolution operators and the full optimizer loop."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecscalar import de_opt, kernels
from ecscalar.bitcodec import BitString, shannon_entropy, to_bits
from ecscalar.de_opt import (
    MAX_FACTOR_EXPONENT,
    MAX_GENERATIONS,
    MAX_POPULATION_SIZE,
    MAX_SLOT_GENERATIONS,
    DEConfig,
    Individual,
    PopulationTooSmallError,
    best_scalar,
    crossover,
    initialize,
    mutate,
    optimize,
    parse_mutation_factor,
    random_scalar,
    step_generation,
)
from ecscalar.registry import builtin_names, load_builtin
from ecscalar.rng import SplitMix64, substream
from ecscalar.statbattery import ordered_sum


def _pop(scalars, width=6):
    return [Individual(k, width) for k in scalars]


def _bit(value, width, j):
    """Bit at MSB-first position j of a width-bit value."""
    return (value >> (width - 1 - j)) & 1


class TestConfig:
    def test_defaults_match_documented_setup(self):
        config = DEConfig()
        assert config.population_size == 50
        assert config.mutation_factor == Fraction(4, 5)
        assert config.crossover_rate == 0.9
        assert config.max_generations == 100
        assert config.early_stop

    def test_mutation_factor_coercion(self):
        assert parse_mutation_factor("4/5") == Fraction(4, 5)
        assert parse_mutation_factor("0.8") == Fraction(4, 5)
        assert parse_mutation_factor(0.8) == Fraction(4, 5)
        assert DEConfig(mutation_factor=0.8).mutation_factor == Fraction(4, 5)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_mutation_factor("1/0")

    @pytest.mark.parametrize(
        "text",
        ["1e4301", "1e-4301", "1E+4_301", "1e00004301", "0e30000000", "1e-30000000"],
    )
    def test_exponent_beyond_the_bound_is_rejected_before_parsing(self, text):
        with pytest.raises(ValueError, match=r"exponent must be in \[-4300, 4300\]"):
            parse_mutation_factor(text)

    def test_exponent_at_the_bound_is_accepted(self):
        assert MAX_FACTOR_EXPONENT == 4300
        assert parse_mutation_factor("1e-4300") == Fraction(1, 10**4300)
        assert parse_mutation_factor(" 1E+0_4300 ") == 10**4300
        config = DEConfig(mutation_factor="1e-4299")
        assert config.mutation_factor == Fraction(1, 10**4299)

    @pytest.mark.parametrize(
        "factor",
        ["1e-4300", "0.5e-4300", "0.0000001e-4299", Fraction(1, 10**4300 + 1)],
    )
    def test_factor_too_long_to_echo_rejected(self, factor):
        with pytest.raises(ValueError, match="mutation_factor has over 4300 digits"):
            DEConfig(mutation_factor=factor)

    def test_longest_echoable_factor_accepted(self):
        factor = Fraction(10**4299, 10**4300 - 1)  # both terms of 4300 digits
        config = DEConfig(mutation_factor=factor)
        assert DEConfig(**config.as_dict()) == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 3},
            {"population_size": MAX_POPULATION_SIZE + 1},
            {"population_size": 10**8},
            {"mutation_factor": Fraction(1, 1)},
            {"mutation_factor": 0},
            {"crossover_rate": 1.5},
            {"max_generations": 0},
            {"seed": -1},
            {"seed": 1 << 64},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DEConfig(**kwargs)

    def test_population_cap_is_accepted(self):
        # Construction only: a run at the cap is never started here.
        config = DEConfig(population_size=MAX_POPULATION_SIZE)
        assert config.population_size == MAX_POPULATION_SIZE == 10_000

    @pytest.mark.parametrize(
        "population_size,max_generations",
        [(50, MAX_GENERATIONS), (100, MAX_GENERATIONS), (MAX_POPULATION_SIZE, 100)],
    )
    def test_generation_caps_are_accepted(self, population_size, max_generations):
        # Construction only: a run at the caps is never started here.
        config = DEConfig(
            population_size=population_size, max_generations=max_generations
        )
        assert config.max_generations == max_generations
        assert MAX_GENERATIONS == 10_000
        assert MAX_SLOT_GENERATIONS == MAX_POPULATION_SIZE * 100 == 1_000_000

    @pytest.mark.parametrize(
        "population_size,max_generations,message",
        [
            (4, MAX_GENERATIONS + 1, "max_generations"),
            (101, 9_901, "population_size \\* max_generations"),
            (MAX_POPULATION_SIZE, 101, "population_size \\* max_generations"),
        ],
        ids=["generations", "product-by-one", "largest-population"],
    )
    def test_just_above_a_generation_cap_rejected(
        self, population_size, max_generations, message
    ):
        with pytest.raises(ValueError, match=message):
            DEConfig(population_size=population_size, max_generations=max_generations)

    def test_as_dict_echo(self):
        echo = DEConfig(seed=7).as_dict()
        assert echo["mutation_factor"] == "4/5"
        assert echo["seed"] == 7


class TestConfigContract:
    """DEConfig is an immutable, hashable value; its copy validates like
    the constructor."""

    @pytest.mark.parametrize("field", ["population_size", "seed", "early_stop"])
    def test_fields_cannot_be_assigned(self, field):
        config = DEConfig(seed=3)
        with pytest.raises(AttributeError):
            setattr(config, field, 5)
        assert config == DEConfig(seed=3)

    def test_equal_configs_equal_hashes_and_dict_keys(self):
        a = DEConfig(seed=3, mutation_factor="4/5")
        b = DEConfig(seed=3, mutation_factor=0.8)
        assert a == b and hash(a) == hash(b)
        assert {a: "run"}[b] == "run"
        assert DEConfig(seed=4) != a

    def test_replace_changes_only_the_named_fields(self):
        base = DEConfig(seed=3, population_size=8, early_stop=False)
        copy = base.replace(seed=9)
        assert copy == DEConfig(seed=9, population_size=8, early_stop=False)
        assert base.seed == 3

    @pytest.mark.parametrize(
        "kwargs", [{"seed": -1}, {"population_size": 3}], ids=["seed", "population"]
    )
    def test_replace_validates_like_the_constructor(self, kwargs):
        with pytest.raises(ValueError) as direct:
            DEConfig(**kwargs)
        with pytest.raises(ValueError) as copied:
            DEConfig(seed=3).replace(**kwargs)
        assert str(copied.value) == str(direct.value)

    @pytest.mark.parametrize("factor", [Fraction(2, 3), "2/3", "0.75", 0.75])
    def test_replace_keeps_an_exact_mutation_factor(self, factor):
        base = DEConfig(seed=3, mutation_factor=factor)
        copy = base.replace(seed=9)
        assert copy.mutation_factor == base.mutation_factor
        assert type(copy.mutation_factor) is Fraction
        assert copy == DEConfig(**{**base.as_dict(), "seed": 9})

    @pytest.mark.parametrize(
        "factor,expected",
        [(Fraction(1, 3), Fraction(1, 3)), ("5/7", Fraction(5, 7)),
         (0.1, Fraction(1, 10))],
        ids=["fraction", "str", "float"],
    )
    def test_replace_coerces_a_new_mutation_factor(self, factor, expected):
        copy = DEConfig(seed=3).replace(mutation_factor=factor)
        assert copy.mutation_factor == expected
        assert type(copy.mutation_factor) is Fraction
        assert copy == DEConfig(seed=3, mutation_factor=expected)

    def test_pickle_round_trip(self):
        config = DEConfig(seed=3, mutation_factor="2/3", early_stop=False)
        assert pickle.loads(pickle.dumps(config)) == config


class TestInitialize:
    def test_range_and_size(self):
        pop = initialize(DEConfig(population_size=20, seed=1), n=37)
        assert len(pop) == 20
        assert all(1 <= ind.scalar <= 36 for ind in pop)
        assert all(ind.width == 6 for ind in pop)

    def test_deterministic(self):
        a = initialize(DEConfig(seed=5), n=37)
        b = initialize(DEConfig(seed=5), n=37)
        assert [i.scalar for i in a] == [i.scalar for i in b]

    def test_generation_zero_stats_score_the_initial_population(self, p192):
        config = DEConfig(seed=9, max_generations=1)
        fits = [shannon_entropy(to_bits(ind.scalar, ind.width))
                for ind in initialize(config, p192.n)]
        stat = optimize(config, p192).history[0]
        assert stat.generation == 0
        assert stat.best_entropy == max(fits)
        assert stat.mean_entropy == ordered_sum(fits) / len(fits)

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            initialize(DEConfig(), n=4)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 600).flatmap(
        lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
    ))
    def test_cached_entropy_equals_the_string_entropy(self, value_width):
        value, width = value_width
        expected = shannon_entropy(BitString(value, width))
        assert de_opt._entropy(value.bit_count(), width) == expected
        assert de_opt._entropy.cache_info().maxsize is not None

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.one_of(
            st.just(37),  # toy29: 28 of the 64 six-bit draws are rejected
            st.sampled_from((63, 64, 65, 128, 129, 192, 224, 256)).flatmap(
                lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)
            ),
        ),
        seed=st.one_of(
            st.sampled_from((0, (1 << 64) - 1)), st.integers(0, (1 << 64) - 1)
        ),
        size=st.integers(4, 300),
    )
    def test_matches_per_slot_draws(self, n, seed, size):
        config = DEConfig(population_size=size, seed=seed)
        assert [ind.scalar for ind in initialize(config, n)] == [
            de_opt._draw_scalar(substream(seed, 0, i), n) for i in range(size)
        ]

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.one_of(
            st.just(37),
            st.sampled_from((64, 192, 256)).flatmap(
                lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)
            ),
        ),
        seed=st.integers(0, (1 << 64) - 1),
        size=st.integers(4, 120),
        stop=st.integers(0, 12),
    )
    def test_stop_ends_at_the_first_slot_of_that_imbalance(
        self, n, seed, size, stop
    ):
        config = DEConfig(population_size=size, seed=seed)
        full = initialize(config, n)
        head = initialize(config, n, stop=stop)
        assert head == full[:len(head)]
        at_stop = [i for i, ind in enumerate(full) if ind.imbalance == stop]
        assert len(head) == (at_stop[0] + 1 if at_stop else size)

    def test_rejected_first_draws_fall_back_to_their_own_stream(
        self, toy29, monkeypatch
    ):
        config = DEConfig(population_size=200, seed=31)
        n, bits = toy29.n, toy29.n.bit_length()
        rejected = [
            i for i in range(200)
            if not 1 <= substream(31, 0, i).next_bits(bits) <= n - 1
        ]
        derived = []
        real_substream = de_opt.substream

        def recording_substream(seed, generation, i):
            derived.append(i)
            return real_substream(seed, generation, i)

        monkeypatch.setattr(de_opt, "substream", recording_substream)
        pop = initialize(config, n)
        assert 40 <= len(rejected) <= 160  # about 28/64 of the slots
        assert derived == rejected
        assert [ind.scalar for ind in pop] == [
            de_opt._draw_scalar(real_substream(31, 0, i), n) for i in range(200)
        ]


class TestMutate:
    def test_exact_scaling(self):
        # 10 + round(0.8 * (8 - 3)) = 14
        pop = _pop([10, 8, 3, 1])
        stream = _forced_indices_stream(pop_size=4, i=3, want=(0, 1, 2))
        v = mutate(pop, 3, Fraction(4, 5), 37, stream)
        assert v == 14

    def test_zero_difference(self):
        pop = _pop([10, 8, 8, 1])
        stream = _forced_indices_stream(pop_size=4, i=3, want=(0, 1, 2))
        assert mutate(pop, 3, Fraction(4, 5), 37, stream) == 10

    def test_rounded_then_reduced(self):
        # 36 + round(0.8 * 28) = 36 + 22 = 58 = 21 (mod 37)
        pop = _pop([36, 30, 2, 1])
        stream = _forced_indices_stream(pop_size=4, i=3, want=(0, 1, 2))
        assert mutate(pop, 3, Fraction(4, 5), 37, stream) == 21

    def test_population_too_small(self):
        with pytest.raises(PopulationTooSmallError):
            mutate(_pop([1, 2, 3]), 0, Fraction(4, 5), 37, SplitMix64(0))

    def test_partners_distinct_and_not_self(self):
        pop = _pop(list(range(1, 11)), width=6)
        for trial in range(200):
            stream = SplitMix64(trial)
            mutate(pop, 4, Fraction(4, 5), 37, stream)
        # distinctness is enforced structurally; this exercises the
        # rejection loops under many streams without raising


def _forced_indices_stream(pop_size, i, want):
    """Build a real stream whose first index draws produce ``want``.

    Searches seeds; keeps the operator code path honest (no mocking).
    """
    for seed in range(100_000):
        stream = SplitMix64(seed)
        m = pop_size
        r1 = stream.next_below(m)
        while r1 == i:
            r1 = stream.next_below(m)
        r2 = stream.next_below(m)
        while r2 in (i, r1):
            r2 = stream.next_below(m)
        r3 = stream.next_below(m)
        while r3 in (i, r1, r2):
            r3 = stream.next_below(m)
        if (r1, r2, r3) == want:
            return SplitMix64(seed)
    raise AssertionError("no seed found producing the wanted indices")


class TestCrossover:
    def test_rate_one_copies_mutant(self):
        trial = crossover(0b00000000, 0b10110101, 8, 1.0, SplitMix64(3))
        assert trial == 0b10110101

    def test_rate_zero_forces_only_jrand(self):
        for seed in range(20):
            stream = SplitMix64(seed)
            probe = SplitMix64(seed)
            j_rand = probe.next_below(8)
            trial = crossover(0b00000000, 0b11111111, 8, 0.0, stream)
            assert trial == 1 << (7 - j_rand)

    def test_reproducible_golden(self):
        values = {crossover(0b00000000, 0b11111111, 8, 0.5, SplitMix64(77))
                  for _ in range(5)}
        assert len(values) == 1  # same seed, same trial, every time

    def test_inheritance_per_position(self):
        target = 0b1010101010101010
        mutant = 0b0110011001100110
        for seed in range(50):
            stream = SplitMix64(seed)
            trial = crossover(target, mutant, 16, 0.7, stream)
            for j in range(16):
                assert _bit(trial, 16, j) in (
                    _bit(target, 16, j), _bit(mutant, 16, j))

    def test_jrand_position_always_takes_the_mutant_bit(self):
        for seed in range(60):
            probe = SplitMix64(seed)
            j_rand = probe.next_below(16)
            trial = crossover(0x0000, 0xFFFF, 16, 0.3, SplitMix64(seed))
            assert _bit(trial, 16, j_rand) == 1

    @pytest.mark.parametrize(
        "target, mutant",
        [(1 << 8, 0), (0, 1 << 8), (-1, 0), (0, -1)],
    )
    def test_out_of_range_input_rejected(self, target, mutant):
        stream = SplitMix64(0)
        with pytest.raises(ValueError):
            crossover(target, mutant, 8, 0.5, stream)
        assert stream.state == SplitMix64(0).state  # rejected before drawing


class TestSelect:
    def test_integer_comparison_equals_float_comparison_exhaustively(self):
        # For every width <= 24 and every ones-count pair, the imbalance
        # ordering must reproduce the strict entropy comparison.
        for width in range(1, 25):
            entropies = []
            for ones in range(width + 1):
                s = BitString((1 << ones) - 1, width)
                entropies.append((abs(2 * ones - width), shannon_entropy(s)))
            for imb_a, h_a in entropies:
                for imb_b, h_b in entropies:
                    integer_says_better = imb_a < imb_b
                    float_says_better = h_a > h_b and not math.isclose(
                        h_a, h_b, abs_tol=1e-15
                    )
                    assert integer_says_better == float_says_better


class TestStepGeneration:
    def test_population_stays_valid(self, toy29):
        config = DEConfig(population_size=20, seed=11)
        pop = initialize(config, toy29.n)
        for t in range(1, 30):
            pop = step_generation(pop, config, toy29.n, 6, t)
            assert all(1 <= ind.scalar <= 36 for ind in pop)

    def test_identical_population_is_a_fixed_point(self, toy29):
        # All individuals equal: every mutant equals the common scalar, so
        # every trial equals its parent and selection changes nothing.
        pop = _pop([21] * 8)
        for c_r in (0.0, 0.5, 1.0):
            config = DEConfig(
                population_size=8, seed=3, crossover_rate=c_r
            )
            stepped = step_generation(pop, config, toy29.n, 6, 1)
            assert [i.scalar for i in stepped] == [21] * 8

    def test_per_slot_entropy_never_decreases(self, toy29):
        config = DEConfig(population_size=16, seed=4)
        pop = initialize(config, toy29.n)
        for t in range(1, 20):
            new_pop = step_generation(pop, config, toy29.n, 6, t)
            for before, after in zip(pop, new_pop):
                assert after.imbalance <= before.imbalance
            pop = new_pop


def _step_proposing_every_slot(population, config, n, width, generation):
    """Reference generation that builds a trial for every slot, parents at
    the floor included, from the public operators: a trial in [1, n-1]
    replaces its parent only when strictly less imbalanced."""
    snapshot = tuple(population)
    out = []
    for i, parent in enumerate(snapshot):
        stream = substream(config.seed, generation, i)
        v = mutate(snapshot, i, config.mutation_factor, n, stream)
        trial = Individual(
            crossover(parent.scalar, v, width, config.crossover_rate, stream), width)
        if 1 <= trial.scalar <= n - 1 and trial.imbalance < parent.imbalance:
            parent = trial
        out.append(parent)
    return out


def _floor_scalars(n, width):
    """A few scalars in [1, n-1] at the imbalance floor of ``width``."""
    floor = de_opt._imbalance_floor(n, width)
    if n < 1 << 12:
        found = [k for k in range(1, n) if Individual(k, width).imbalance == floor]
    else:
        half = (1 << 96) - 1  # 96 ones: the floor at widths 192 and 193
        found = [half, half << 95, int("5" * 48, 16)]
    assert found and all(
        1 <= k < n and Individual(k, width).imbalance == floor for k in found)
    return found


class TestImbalanceFloor:
    def test_matches_brute_force_for_every_small_n(self):
        # ones counts of the scalars in [1, n-1], grown one n at a time
        counts = set()
        for n in range(2, 1 << 10):
            counts.add((n - 1).bit_count())
            if n < 5:
                continue
            bits = n.bit_length()
            for width in range(bits, 3 * bits + 1):
                brute = min(abs(2 * c - width) for c in counts)
                assert de_opt._imbalance_floor(n, width) == brute, (n, width)

    @pytest.mark.parametrize("name", builtin_names())
    def test_default_width_floor_is_balance(self, name):
        n = load_builtin(name).params.n
        assert de_opt._imbalance_floor(n, n.bit_length()) == n.bit_length() % 2


class TestFloorSkip:
    """step_generation builds no trial for a parent at the floor, and that
    changes no outcome."""

    @pytest.mark.parametrize(
        "name, width",
        [("toy29", 6), ("toy29", 7), ("toy29", 13), ("p192", 192), ("p192", 193)],
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_proposing_every_slot(self, name, width, data):
        n = load_builtin(name).params.n
        size = data.draw(st.integers(4, 20), label="population size")
        scalars = data.draw(st.lists(
            st.one_of(st.integers(1, n - 1),
                      st.sampled_from(_floor_scalars(n, width))),
            min_size=size, max_size=size))
        config = DEConfig(
            population_size=size,
            seed=data.draw(st.integers(0, (1 << 64) - 1), label="seed"),
            crossover_rate=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        )
        pop = [Individual(k, width) for k in scalars]
        for generation in range(1, 4):
            expected = _step_proposing_every_slot(pop, config, n, width, generation)
            pop = step_generation(pop, config, n, width, generation)
            assert pop == expected

    def test_trials_only_for_parents_above_the_floor(self, p256, monkeypatch):
        config = DEConfig(seed=2024, early_stop=False, max_generations=30)
        n, width = p256.n, p256.n.bit_length()
        floor = de_opt._imbalance_floor(n, width)
        fills, drawn = [], []
        real_fill, real_substream = kernels.crossover_fill, de_opt.substream

        def counting_fill(*args):
            fills.append(args)
            return real_fill(*args)

        def recording_substream(seed, generation, i):
            drawn.append((generation, i))
            return real_substream(seed, generation, i)

        pop = initialize(config, n, width)
        monkeypatch.setattr(kernels, "crossover_fill", counting_fill)
        monkeypatch.setattr(de_opt, "substream", recording_substream)
        above = []
        for t in range(1, config.max_generations + 1):
            above += [(t, i) for i, ind in enumerate(pop) if ind.imbalance > floor]
            pop = step_generation(pop, config, n, width, t)
        monkeypatch.undo()

        assert drawn == above  # no substream drawn for a parent at the floor
        assert len(fills) == len(above)
        assert 0 < len(above) < config.max_generations * config.population_size
        best = min(pop, key=lambda ind: ind.imbalance)
        assert best.scalar == optimize(config, p256).k_opt


class TestOptimize:
    def test_toy_reaches_width_maximal_entropy(self, toy29):
        config = DEConfig(
            population_size=20, crossover_rate=0.9,
            mutation_factor=Fraction(4, 5), max_generations=50, seed=123,
        )
        result = optimize(config, toy29)
        assert 1 <= result.k_opt <= 36
        assert result.width == 6
        assert result.k_opt.bit_count() == 3  # 3 ones / 3 zeros
        assert result.best_entropy == 1.0

    def test_history_monotone_and_sized(self, toy29):
        config = DEConfig(population_size=8, seed=2, early_stop=False,
                          max_generations=15)
        result = optimize(config, toy29)
        assert result.generations_run == 15
        assert len(result.history) == 16  # generation 0 plus 15 steps
        best = [h.best_entropy for h in result.history]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_early_stop_cuts_the_run_short(self, p192):
        config = DEConfig(seed=42)
        result = optimize(config, p192)
        assert result.generations_run < config.max_generations
        assert result.k_opt.bit_count() == 96

    def test_width_override_too_small_rejected(self, p192):
        with pytest.raises(ValueError):
            optimize(DEConfig(seed=1), p192, width=191)

    def test_width_override_above_twice_the_order_bits_rejected(self, p192):
        with pytest.raises(ValueError, match="width 385 must lie in"):
            optimize(DEConfig(seed=1), p192, width=385)
        assert optimize(DEConfig(seed=1, max_generations=1), p192, width=384).width == 384

    def test_equal_configs_give_equal_results(self, toy29):
        config = DEConfig(population_size=8, seed=5, early_stop=False,
                          max_generations=10)
        first = optimize(config, toy29)
        assert optimize(DEConfig(**config.as_dict()), toy29) == first
        assert optimize(config.replace(seed=6), toy29) != first

    def test_final_population_valid(self, p192):
        config = DEConfig(seed=77, early_stop=False, max_generations=5)
        pop = initialize(config, p192.n)
        for t in range(1, 6):
            pop = step_generation(pop, config, p192.n, 192, t)
        assert len(pop) == config.population_size
        assert all(1 <= ind.scalar <= p192.n - 1 for ind in pop)
        assert all(ind.width == 192 for ind in pop)


@st.composite
def _best_scalar_cases(draw):
    """toy29 at populations 4-8, where runs enter generations, and the NIST
    curves at populations 4-10; early stop on and off, 1-30 generations."""
    name = draw(st.sampled_from(["toy29", "p192", "p224", "p256"]))
    population = draw(st.integers(4, 8 if name == "toy29" else 10))
    config = DEConfig(
        population_size=population,
        max_generations=draw(st.integers(1, 30)),
        early_stop=draw(st.booleans()),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return name, config


def _record_trials(monkeypatch):
    """The (generation, slot) of every trial that crossover builds, in order,
    read from the substream the trial draws from."""
    built, latest = [], []
    real_substream, real_crossover = de_opt.substream, de_opt.crossover

    def recording_substream(seed, generation, i):
        latest[:] = [(generation, i)]
        return real_substream(seed, generation, i)

    def spy(*args):
        built.append(latest[0])
        return real_crossover(*args)

    monkeypatch.setattr(de_opt, "substream", recording_substream)
    monkeypatch.setattr(de_opt, "crossover", spy)
    return built


class TestBestScalar:
    @given(_best_scalar_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_optimizer_k_opt(self, case):
        name, config = case
        curve = load_builtin(name).params
        assert best_scalar(config, curve) == optimize(config, curve).k_opt

    def test_without_early_stop_builds_the_optimizer_trials(
        self, toy29, monkeypatch
    ):
        config = DEConfig(population_size=4, seed=6, early_stop=False)
        proposed = _record_trials(monkeypatch)
        k_opt = optimize(config, toy29).k_opt
        full = list(proposed)
        proposed.clear()
        assert best_scalar(config, toy29) == k_opt
        # By generation 7 every slot is at the floor; later ones build nothing.
        assert proposed == full and full[-1][0] == 7

    def test_builds_no_slot_after_the_first_at_the_floor(self, toy29, monkeypatch):
        # Seed 6 reaches the floor at slot 0 of generation 3; the optimizer
        # still builds that generation's slots 1-3.
        config = DEConfig(population_size=4, seed=6)
        proposed = _record_trials(monkeypatch)
        result = optimize(config, toy29)
        full = proposed[:]
        proposed.clear()
        assert best_scalar(config, toy29) == result.k_opt
        assert result.generations_run == 3
        assert proposed == full[:len(proposed)]
        assert full[len(proposed):] == [(3, 1), (3, 2), (3, 3)]


class TestRandomScalar:
    def test_range(self, toy29):
        stream = SplitMix64(0)
        for _ in range(500):
            assert 1 <= random_scalar(toy29, stream) <= 36

    def test_deterministic(self, toy29):
        a = random_scalar(toy29, SplitMix64(8))
        b = random_scalar(toy29, SplitMix64(8))
        assert a == b

    def test_mean_entropy_matches_binomial_expectation(self, p192):
        # Exact oracle: E[H] under iid uniform bits at width 192, computed
        # from the binomial distribution with exact big-integer weights.
        width = 192
        total = 0.0
        for ones in range(width + 1):
            weight = math.comb(width, ones) / 2**width
            if ones in (0, width):
                continue
            p1 = ones / width
            total += weight * -(
                p1 * math.log2(p1) + (1 - p1) * math.log2(1 - p1)
            )
        assert total == pytest.approx(0.9962, abs=5e-4)

        stream = substream(2718, 0, 0)
        draws = 10_000
        mean = (
            sum(
                shannon_entropy(to_bits(random_scalar(p192, stream), width))
                for _ in range(draws)
            )
            / draws
        )
        # se of the Monte-Carlo mean is ~5e-5; allow 4 sigma around the oracle
        assert mean == pytest.approx(total, abs=2.5e-4)
