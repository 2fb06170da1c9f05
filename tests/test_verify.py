"""The verify suites keep no memory from one run to the next."""

from __future__ import annotations

from random import Random

import pytest

from qqwalk import Measure, verify
from qqwalk.verify import _random_b0_state, _random_direction, run_suites

from conftest import blocks_kept


def test_random_direction_keeps_no_blocks_across_calls():
    rng = Random(0)
    assert blocks_kept(lambda: _random_direction(rng)) < 100


def test_random_b0_state_keeps_no_blocks_across_calls():
    rng = Random(0)
    assert blocks_kept(lambda: _random_b0_state(rng)) < 100


def test_a_repeat_verify_round_keeps_few_blocks():
    # a tuple built from an iterator anywhere on the verify path keeps a
    # block per call: over 13000 blocks here when five sites did
    def verify_round():
        for seed in range(4):
            run_suites("all", seed=seed)

    assert blocks_kept(verify_round, calls=1) < 1000


def test_the_stationary_suite_measures_each_state_once(monkeypatch):
    # a walk check measures its start state and reads each step's stored
    # weights: 1442 measures when every step was measured
    built = []
    measure_init = Measure.__init__

    def counting_init(mu, *args, **kwargs):
        built.append(mu)
        measure_init(mu, *args, **kwargs)

    monkeypatch.setattr(Measure, "__init__", counting_init)
    run_suites("stationary", seed=0)
    assert len(built) == 20 + 2 + 200  # the uniform states, the a0 witness twice, the b=0 states


def test_all_runs_its_five_suites_in_order_and_no_other(monkeypatch):
    # a suite added to the registry runs under its own name only
    ran = []
    for name in [*verify.SUITES, "throwaway"]:
        monkeypatch.setitem(verify.SUITES, name,
                            lambda seed, tol, name=name: ran.append(name) or [{"check": name}])
    reports = run_suites("all", seed=3)
    order = ["unitary", "pqrs", "stationary", "eigen", "theorem1"]
    assert ran == order and reports == [{"check": name} for name in order]
    assert run_suites("throwaway") == [{"check": "throwaway"}]
    with pytest.raises(ValueError, match="^unknown suite 'none'; available: all, eigen, pqrs, "
                                         "stationary, theorem1, throwaway, unitary$"):
        run_suites("none")
