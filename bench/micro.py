"""Micro-kernels of four layers, and the walk's norm drift.

The Hamilton product, one ``evolve`` step over 2001 sites, word reduction
and measure classification, each timed through the package's public API
on seeded inputs.  Each time is the median over repeats.
"""

from __future__ import annotations

import statistics
import time
import timeit
from random import Random

from qqwalk import (
    FiniteSupportState,
    Measure,
    PQWord,
    Quaternion,
    classify_measure,
    coin_from_json,
    reduce_word,
)

from workloads import random_coin, random_spinor

REPEATS = 7
EVOLVE_SITES = 2001
DRIFT_STEPS = 200


def _per_call(stmt, number: int, **names) -> float:
    """Median seconds per call of ``stmt`` over ``REPEATS`` timed loops."""
    times = timeit.repeat(stmt, number=number, repeat=REPEATS, globals=names)
    return statistics.median(times) / number


def _mul_ns(rng: Random) -> float:
    a = Quaternion(*(rng.gauss(0.0, 1.0) for _ in range(4)))
    b = Quaternion(*(rng.gauss(0.0, 1.0) for _ in range(4)))
    return _per_call("a * b", 20000, a=a, b=b) * 1e9


def _evolve_ms(rng: Random, coin) -> float:
    """One step over 2001 sites, each repeat evolving the previous result."""
    pairs = []
    for _ in range(EVOLVE_SITES):
        left, right = random_spinor(rng)
        pairs.append((Quaternion(*left), Quaternion(*right)))
    state = FiniteSupportState(-(EVOLVE_SITES // 2), pairs)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        state = state.evolve(coin)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _norm_drift(rng: Random, coin) -> float:
    """max over t of | ||psi_t||^2 - 1 | for a walk from a point."""
    left, right = random_spinor(rng)
    state = FiniteSupportState.delta((Quaternion(*left), Quaternion(*right)))
    drift = abs(state.norm_sq() - 1.0)
    for _ in range(DRIFT_STEPS):
        state = state.evolve(coin)
        drift = max(drift, abs(state.norm_sq() - 1.0))
    return drift


def _reduce_word_us(rng: Random, coin) -> float:
    letters = ["P"] * 7 + ["Q"] * 7
    rng.shuffle(letters)
    word = PQWord.from_letters(letters)
    return _per_call("reduce_word(coin, word)", 2000,
                     reduce_word=reduce_word, coin=coin, word=word) * 1e6


def _classify_us(rng: Random) -> float:
    gamma = rng.uniform(0.5, 0.9)
    scale = rng.uniform(0.5, 2.0)
    measure = Measure([scale * gamma ** -abs(x) for x in range(-12, 13)], offset=-12)
    return _per_call("classify_measure(measure, window=8)", 500,
                     classify_measure=classify_measure, measure=measure) * 1e6


def run(seed: int) -> dict[str, float]:
    """Micro-kernel results keyed by their per-layer metric names."""
    rng = Random(f"micro/{seed}")
    coin = coin_from_json(random_coin(rng))
    return {
        "quaternion.mul_ns": _mul_ns(rng),
        "walk.evolve_2001_ms": _evolve_ms(rng, coin),
        "walk.norm_drift": _norm_drift(rng, coin),
        "pathsum.reduce_word_us": _reduce_word_us(rng, coin),
        "stationary.classify_us": _classify_us(rng),
    }
