"""Differential evolution over curve scalars, maximizing bit entropy.

Classic rand/1/bin DE, specialized to the scalar range [1, n-1]:

* mutation acts on integers mod n: v = (k_r1 + m_r * (k_r2 - k_r3)) mod n,
  with the scaling done in exact rational arithmetic (m_r is a Fraction;
  the scaled difference is rounded to the nearest integer, ties away from
  zero) — doubles cannot represent 256-bit differences;
* crossover acts on the width-bit representations of the same integers:
  each position independently takes the mutant bit with probability c_r,
  and position j_rand is always taken;
* selection is greedy and strict: the trial replaces its parent only when
  its entropy is strictly higher.  Entropy comparisons are done on exact
  integer bit-counts (lower |ones - zeros| means higher entropy at fixed
  width), so selection never hinges on float rounding.

A trial outside [1, n-1] simply loses selection; nothing is
re-randomized, so the population always stays valid.

All randomness comes from per-(generation, index) substreams derived from
the run seed, which makes results independent of evaluation order.  That
is what lets a generation build no trial at all for a parent already at
the floor, the lowest imbalance any scalar in [1, n-1] has at this width:
no trial could replace it, and leaving its substream undrawn changes no
other slot.  The same floor is the early-stop target.  For the same
reason the initial population is drawn in chunks of slots, and
:func:`best_scalar` stops drawing it at its first slot at the floor.
Individuals are ``Individual(scalar, width)`` records and are compared on
their exact imbalance; entropy is computed only where it is reported, and
:func:`best_scalar`, which reports only k_opt, computes none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from ecscalar import kernels
from ecscalar._frozen import Frozen
from ecscalar.bitcodec import shannon_entropy, to_bits
from ecscalar.curve import CurveParams
from ecscalar.rng import SplitMix64, bernoulli_threshold, substream
from ecscalar.statbattery import ordered_sum

__all__ = [
    "DEConfig",
    "GenerationStat",
    "Individual",
    "MAX_FACTOR_EXPONENT",
    "MAX_GENERATIONS",
    "MAX_POPULATION_SIZE",
    "MAX_SLOT_GENERATIONS",
    "OptResult",
    "PopulationTooSmallError",
    "best_scalar",
    "crossover",
    "initialize",
    "mutate",
    "optimize",
    "parse_mutation_factor",
    "random_scalar",
    "step_generation",
]

# Generation slot reserved for drawing the initial population.
_INIT_GENERATION = 0

# Initial slots drawn per kernel call.  An early-stopping run needs slots
# only up to its first one at the floor, and on p256 about one slot in 20 is
# balanced.  Timed over p256 benchmark trials, 12-25 slots per call drew
# about 25% faster than all 50 at once, and 8 fell behind.
_INIT_CHUNK = 16

# Largest accepted population (200x the default): every generation holds and
# re-evaluates the whole population, so the size bounds memory and time.
MAX_POPULATION_SIZE = 10_000

# Largest accepted generation budget (100x the default).  Every generation
# adds a history entry: 10**4 generations on p256 take about 0.8 s and write
# about 0.9 MB of JSON, where 10**5 took about 3 s and 9 MB.
MAX_GENERATIONS = 10_000

# Largest accepted population_size * max_generations, the most trials a run
# can build: the largest population at the default budget.  The costliest
# run it admits at a built-in's default width (p256, 10**4 slots for 100
# generations, early stop off) takes about 11 s and 24 MB RSS.
MAX_SLOT_GENERATIONS = MAX_POPULATION_SIZE * 100

# Largest decimal exponent, either sign, of a mutation factor: Python's own
# int <-> str digit limit.  Fraction("1e30000000") takes about a minute.
MAX_FACTOR_EXPONENT = 4300

# Smallest denominator with more digits than str() of an int may print.
_UNECHOABLE_DENOMINATOR = 10**MAX_FACTOR_EXPONENT


class PopulationTooSmallError(ValueError):
    """Mutation needs three distinct partners besides the target."""


def parse_mutation_factor(value: Fraction | str | float | int) -> Fraction:
    """Coerce a mutation factor to an exact Fraction.

    Strings accept both "4/5" and "0.8"; floats are read through their
    shortest decimal form, so 0.8 means exactly 4/5 rather than the nearest
    binary double.  A zero denominator ("1/0"), or a decimal exponent beyond
    ``MAX_FACTOR_EXPONENT`` either way, is a ValueError like any other
    malformed factor.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):  # checked before Fraction builds 10**exponent
        exponent = value.lower().partition("e")[2].strip().lstrip("+-")
        digits = exponent.replace("_", "").lstrip("0")[:5]  # any 5 digits exceed it
        if digits.isdecimal() and int(digits) > MAX_FACTOR_EXPONENT:
            bound = MAX_FACTOR_EXPONENT
            raise ValueError(f"mutation factor exponent must be in [-{bound}, {bound}]")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(
            f"zero denominator in mutation factor {value!r}"
        ) from None


class DEConfig(Frozen):
    """Knobs of one optimizer run; immutable, hashable, JSON-round-trippable.

    The mutation factor is stored as an exact rational.  ``seed`` is the
    64-bit master seed every substream derives from; two runs with equal
    configs produce identical results.  :meth:`replace` makes a changed
    copy, validated like a new config.
    """

    __slots__ = (
        "population_size", "mutation_factor", "crossover_rate",
        "max_generations", "seed", "early_stop",
    )

    def __init__(
        self,
        population_size: int = 50,
        mutation_factor: Fraction | str | float | int = Fraction(4, 5),
        crossover_rate: float = 0.9,
        max_generations: int = 100,
        seed: int = 0,
        early_stop: bool = True,
    ) -> None:
        mutation_factor = parse_mutation_factor(mutation_factor)
        if not 4 <= population_size <= MAX_POPULATION_SIZE:
            raise ValueError(f"population_size must be in [4, {MAX_POPULATION_SIZE}]")
        if not 0 < mutation_factor < 1:
            raise ValueError("mutation_factor must be in (0, 1)")
        # In (0, 1) the numerator is below the denominator: this bounds both.
        if mutation_factor.denominator >= _UNECHOABLE_DENOMINATOR:
            raise ValueError(f"mutation_factor has over {MAX_FACTOR_EXPONENT} digits")
        if not 0.0 <= crossover_rate <= 1.0:
            raise ValueError(f"crossover_rate must be in [0, 1], got {crossover_rate}")
        if not 1 <= max_generations <= MAX_GENERATIONS:
            raise ValueError(f"max_generations must be in [1, {MAX_GENERATIONS}]")
        if population_size * max_generations > MAX_SLOT_GENERATIONS:
            raise ValueError(
                "population_size * max_generations must be at most "
                f"{MAX_SLOT_GENERATIONS}, got {population_size * max_generations}"
            )
        if not 0 <= seed < (1 << 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "population_size", population_size)
        object.__setattr__(self, "mutation_factor", mutation_factor)
        object.__setattr__(self, "crossover_rate", crossover_rate)
        object.__setattr__(self, "max_generations", max_generations)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "early_stop", early_stop)

    def replace(self, **changes: object) -> DEConfig:
        """A copy with ``changes`` applied, validated like a new config."""
        return DEConfig(**{**dict(zip(self.__slots__, self._values())), **changes})

    def as_dict(self) -> dict:
        """Echo form used in manifests and config files; ``DEConfig(**echo)``
        rebuilds an equal config."""
        echo = dict(zip(self.__slots__, self._values()))
        echo["mutation_factor"] = str(self.mutation_factor)
        return echo


class Individual(NamedTuple):
    """One candidate scalar and the bit width it is scored at."""

    scalar: int
    width: int

    @property
    def imbalance(self) -> int:
        """|ones - zeros| of the width-bit representation (exact)."""
        return abs(2 * self.scalar.bit_count() - self.width)


class GenerationStat(NamedTuple):
    generation: int
    best_entropy: float
    mean_entropy: float


class OptResult(NamedTuple):
    """Best scalar, its entropy, and the per-generation entropy history."""

    k_opt: int
    best_entropy: float
    history: tuple[GenerationStat, ...]
    generations_run: int
    width: int


def _draw_scalar(stream: SplitMix64, n: int) -> int:
    # Rejection sampling on bit_length(n)-bit draws keeps [1, n-1] uniform.
    bits = n.bit_length()
    while True:
        v = stream.next_bits(bits)
        if 1 <= v <= n - 1:
            return v


def random_scalar(curve: CurveParams, rng: SplitMix64) -> int:
    """Uniform scalar in [1, n-1]; the plain-PRNG baseline for benchmarks."""
    return _draw_scalar(rng, curve.n)


def initialize(
    config: DEConfig, n: int, width: int | None = None, stop: int | None = None
) -> list[Individual]:
    """Draw the initial population, one substream per slot.

    Individual i comes from substream (seed, 0, i), so the initial
    population is a pure function of the config.  Slots are drawn
    ``_INIT_CHUNK`` at a time, each chunk's first draws computed
    word-parallel; only a slot whose first draw falls outside [1, n-1]
    derives its substream and draws on from it.  With ``stop``, drawing
    ends at the first slot of that imbalance, which is the last one
    returned; without one, or if no slot has it, every slot is drawn.
    """
    if n < 5:
        raise ValueError(f"scalar range [1, n-1] too small: n = {n}")
    w = width if width is not None else n.bit_length()
    size = config.population_size
    population = []
    for start in range(0, size, _INIT_CHUNK):
        first = kernels._first_draws(
            config.seed, _INIT_GENERATION, min(_INIT_CHUNK, size - start),
            n.bit_length(), start,
        )
        for i, v in enumerate(first, start):
            if not 1 <= v < n:
                v = _draw_scalar(substream(config.seed, _INIT_GENERATION, i), n)
            population.append(Individual(v, w))
            if abs(2 * v.bit_count() - w) == stop:
                return population
    return population


def _round_ratio(num: int, den: int) -> int:
    """Nearest integer of num/den (den > 0), ties rounded away from zero."""
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    return q if num >= 0 else -q


def mutate(
    population: Sequence[Individual],
    i: int,
    m_r: Fraction,
    n: int,
    rng: SplitMix64,
) -> int:
    """rand/1 mutant for slot i: (k_r1 + m_r*(k_r2 - k_r3)) mod n.

    r1, r2, r3 are drawn distinct and different from i.  The result may be 0
    (all mutants are legal crossover input); invalid trials are weeded out
    later by selection.
    """
    m = len(population)
    if m < 4:
        raise PopulationTooSmallError(
            f"population of {m} cannot supply 3 distinct partners"
        )
    r1 = rng.next_below(m)
    while r1 == i:
        r1 = rng.next_below(m)
    r2 = rng.next_below(m)
    while r2 in (i, r1):
        r2 = rng.next_below(m)
    r3 = rng.next_below(m)
    while r3 in (i, r1, r2):
        r3 = rng.next_below(m)
    diff = population[r2].scalar - population[r3].scalar
    scaled = _round_ratio(m_r.numerator * diff, m_r.denominator)
    return (population[r1].scalar + scaled) % n


def crossover(
    target: int,
    mutant: int,
    width: int,
    c_r: float,
    rng: SplitMix64,
) -> int:
    """Binomial crossover of two width-bit scalars: per-position
    Bernoulli(c_r) choice of the mutant bit, with MSB-first position j_rand
    forced from the mutant.

    Both inputs must lie in [0, 2**width).  Draws j_rand plus exactly
    ``width`` mask draws from ``rng``.
    """
    if (target | mutant) >> width:
        raise ValueError(f"crossover inputs must lie in [0, 2**{width})")
    j_rand = rng.next_below(width)
    mask, rng.state = kernels.crossover_fill(
        rng.state, width, bernoulli_threshold(c_r), j_rand
    )
    return (mutant & mask) | (target & ~mask)


def _imbalance_floor(n: int, width: int) -> int:
    """Lowest |ones - zeros| of any scalar in [1, n-1] at ``width`` bits.

    Every ones count from 1 to the range's largest one is reached (by
    2**c - 1, or by n - 1 itself), so the floor is balance (``width % 2``)
    unless ``width`` needs more ones than any scalar in range has.
    """
    m = n - 1
    most_ones = max(m.bit_count(), m.bit_length() - 1)
    return max(width % 2, width - 2 * most_ones)


def _survivors(
    population: Sequence[Individual],
    config: DEConfig,
    n: int,
    width: int,
    generation: int,
) -> Iterator[Individual]:
    """Each slot's survivor of one generation, in slot order, built only when
    the caller asks for it: the search's one proposal loop.

    Slot i's trial is drawn from substream (seed, generation, i) against a
    snapshot of the current population, and replaces its parent only when
    it lies in [1, n-1] and is strictly less imbalanced.  A parent at the
    imbalance floor keeps its slot without a trial (and without drawing its
    substream): no trial could replace it, and the other slots read only
    the snapshot.
    """
    snapshot = tuple(population)
    floor = _imbalance_floor(n, width)
    for i, parent in enumerate(snapshot):
        imbalance = parent.imbalance
        if imbalance > floor:
            stream = substream(config.seed, generation, i)
            v = mutate(snapshot, i, config.mutation_factor, n, stream)
            trial = crossover(parent.scalar, v, width, config.crossover_rate, stream)
            if 1 <= trial < n and abs(2 * trial.bit_count() - width) < imbalance:
                parent = Individual(trial, width)
        yield parent


def step_generation(
    population: Sequence[Individual],
    config: DEConfig,
    n: int,
    width: int,
    generation: int,
) -> list[Individual]:
    """One synchronous DE generation: the survivor of every slot."""
    return list(_survivors(population, config, n, width, generation))


@lru_cache(maxsize=1024)
def _entropy(ones: int, width: int) -> float:
    """Entropy of every width-bit string with ``ones`` set bits: at one
    width it depends on the count alone, so each is computed once."""
    return shannon_entropy(to_bits((1 << ones) - 1, width))


def _stat(generation: int, ones: Sequence[int], width: int) -> GenerationStat:
    fits = [_entropy(count, width) for count in ones]
    return GenerationStat(generation, max(fits), ordered_sum(fits) / len(fits))


def _first_best(
    population: Sequence[Individual], ones: Sequence[int], width: int
) -> Individual:
    """The first individual of the lowest imbalance; ``ones`` holds their
    ones counts."""
    gaps = [abs(2 * count - width) for count in ones]
    return population[gaps.index(min(gaps))]


def optimize(
    config: DEConfig,
    curve: CurveParams,
    width: int | None = None,
) -> OptResult:
    """Run the full search and return the best scalar found.

    ``width`` defaults to bit_length(n), which makes every scalar in
    [1, n-1] representable; overrides below that, or above twice that, are
    rejected.  With ``early_stop`` the loop exits as soon as some individual
    reaches the maximal entropy any scalar in [1, n-1] has at this width
    (balance, or one off it for odd widths, unless the width outruns the
    range's largest ones count).
    """
    n = curve.n
    bits = n.bit_length()
    w = width if width is not None else bits
    if not bits <= w <= 2 * bits:
        raise ValueError(
            f"width {w} must lie in [{bits}, {2 * bits}] for scalars up to n-1"
        )
    floor = _imbalance_floor(n, w)
    # The ones counts of the scalars at the floor; w - floor is even.
    floor_ones = {(w - floor) // 2, (w + floor) // 2}

    # Generation 0 is the initial population; each later one is a step.
    population = initialize(config, n, w)
    history = []
    for t in range(config.max_generations + 1):
        if t:
            population = step_generation(population, config, n, w, t)
        ones = [ind.scalar.bit_count() for ind in population]
        history.append(_stat(t, ones, w))
        if config.early_stop and not floor_ones.isdisjoint(ones):
            break

    best = _first_best(population, ones, w)
    return OptResult(
        k_opt=best.scalar,
        best_entropy=_entropy(best.scalar.bit_count(), w),
        history=tuple(history),
        generations_run=len(history) - 1,
        width=w,
    )


def best_scalar(config: DEConfig, curve: CurveParams) -> int:
    """``optimize(config, curve).k_opt``, without the history.

    Under early stop the search ends at the first survivor at the imbalance
    floor, in slot order.  No parent was at the floor when that generation
    began, so that slot is the first minimum :func:`optimize` picks; the
    later slots of the generation are never built.  In the initial
    population the later slots are not even drawn: :func:`initialize` ends
    at the first one at the floor.  Without early stop the whole budget
    runs and the first minimum is returned, as there.
    """
    n = curve.n
    w = n.bit_length()
    # The imbalance that ends the search; no imbalance is negative.
    stop = _imbalance_floor(n, w) if config.early_stop else -1
    population = initialize(config, n, w, stop)
    if population[-1].imbalance == stop:
        return population[-1].scalar
    for t in range(1, config.max_generations + 1):
        survivors = _survivors(population, config, n, w, t)
        population = []
        for ind in survivors:
            if ind.imbalance == stop:
                return ind.scalar
            population.append(ind)
    ones = [ind.scalar.bit_count() for ind in population]
    return _first_best(population, ones, w).scalar
