"""Tests of the benchmark itself: inputs, oracles, spans and counts.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import qqwalk.cli  # noqa: E402
from qqwalk.cli import main as cli_main  # noqa: E402
from worker import run_op  # noqa: E402


def small_ops(seed: int = 7) -> list[dict]:
    """One op of each kind, small enough for a unit test."""
    rng = workloads.Random(f"test/{seed}")
    coin = json.dumps(workloads.random_coin(rng))
    spinor = workloads.random_spinor(rng)
    return [
        {"argv": ["dist", "--coin", coin, "--init", json.dumps(spinor), "--steps", "6"],
         "check": {"kind": "dist", "coin": coin, "spinor": spinor, "steps": 6}},
        {"argv": ["xi", "--coin", coin, "-n", "5", "-l", "2", "-m", "3", "--mode", "brute"],
         "check": {"kind": "xi", "mode": "brute", "coin": coin, "n": 5, "l": 2}},
        {"argv": ["xi", "--coin", "example-ijk", "-n", "5", "-l", "3", "-m", "2",
                  "--mode", "decompose"],
         "check": {"kind": "xi", "mode": "decompose", "coin": "example-ijk", "n": 5, "l": 3}},
        workloads.verify_op(seed),
    ]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    assert workloads.build(workload, 3) == workloads.build(workload, 3)
    assert workloads.build(workload, 3) != workloads.build(workload, 4)
    assert workloads.probe(3) == workloads.probe(3)


def test_workload_sizes_do_not_depend_on_seed():
    for workload in workloads.WORKLOADS:
        works = {tuple(op["work"] for op in workloads.build(workload, s)) for s in range(5)}
        assert len(works) == 1


def _perturb(kind: str, text: str) -> str:
    if kind == "dist":
        lines = text.splitlines()
        n, x, p = lines[-1].split(",")
        lines[-1] = f"{n},{x},{float(p) + 1e-9!r}"
        return "\n".join(lines) + "\n"
    if kind == "xi":
        data = json.loads(text)
        if isinstance(data, dict):
            data["r"][2] += 1e-8
        else:
            data[1][0][3] += 1e-8
        return json.dumps(data)
    reports = [json.loads(line) for line in text.splitlines()]
    reports[-1]["pass"] = False
    return "\n".join(json.dumps(r) for r in reports) + "\n"


@pytest.mark.parametrize("index", range(4))
def test_oracle_fails_perturbed_output(index):
    op = small_ops()[index]
    rc, _, text, _ = run_op(cli_main, op["argv"])
    assert oracles.check(op["check"], rc, text)[0]
    assert not oracles.check(op["check"], rc, _perturb(op["check"]["kind"], text))[0]
    assert not oracles.check(op["check"], 1, text)[0]


def test_verify_oracle_needs_every_expected_check():
    op = workloads.verify_op(5)
    rc, _, text, _ = run_op(cli_main, op["argv"])
    assert oracles.check(op["check"], rc, text)[0]
    dropped = "\n".join(text.splitlines()[1:]) + "\n"
    assert not oracles.check(op["check"], rc, dropped)[0]


def test_checker_counts_failed_ops():
    op = small_ops()[1]
    rc, ns, text, _ = run_op(cli_main, op["argv"])
    bad = _perturb("xi", text)
    checker = run.Checker([op])
    checker.add([{"op": 0, "rc": rc, "ns": ns, "sha": "good", "out": text},
                 {"op": 0, "rc": rc, "ns": ns, "sha": "good"},
                 {"op": 0, "rc": rc, "ns": ns, "sha": "bad", "out": bad}])
    assert (checker.attempted, checker.failed) == (3, 1)


def test_layer_self_times_within_traced_wall():
    ops = small_ops()
    tracer = tracing.Tracer().install()
    try:
        wall = 0
        for op in ops:
            rc, ns, _, _ = run_op(qqwalk.cli.main, op["argv"])
            assert rc == 0
            wall += ns
    finally:
        tracer.uninstall()
    stats = tracer.take()
    assert stats["cli.main"][1] == len(ops)
    layers = {layer for layer, *_ in stats.values()}
    assert layers == set(tracing.LAYERS)
    assert 0 < sum(self_ns for _, _, _, self_ns in stats.values()) <= wall
    for _, _, incl, self_ns in stats.values():
        assert 0 <= self_ns <= incl or incl == 0
    for _, key, _ in run.FUNCTION_METRICS:
        assert stats[key][1] > 0, key


def test_uninstall_restores_the_package():
    from qqwalk.coin import Coin
    from qqwalk.walk import distributions

    import qqwalk.verify

    before = (Coin.__init__, dict(qqwalk.verify.SUITES), qqwalk.cli.distributions)
    tracing.Tracer().install().uninstall()
    assert (Coin.__init__, qqwalk.verify.SUITES, qqwalk.cli.distributions) == before
    assert qqwalk.cli.main is cli_main
    assert qqwalk.cli.distributions is distributions


def _count(ops):
    counter = tracing.Counter().install()
    try:
        sizes = [len(run_op(cli_main, op["argv"])[2]) for op in ops]
    finally:
        counter.uninstall()
    return dict(counter.counts), sizes


def test_counts_repeat_exactly():
    ops = small_ops()
    first, second = _count(ops), _count(ops)
    assert first == second
    assert all(value > 0 for value in first[0].values())


def test_tail_has_ten_samples_beyond_it():
    value, percentile, n = run._tail([float(v) for v in range(100)])
    assert (value, percentile, n) == (89.0, 90.0, 100)
    assert sum(v > value for v in range(100)) == run.TAIL_BEYOND


def test_calibration_kernel_leaves_the_collector_as_it_was():
    import gc

    import calibration

    assert gc.isenabled()
    assert calibration.kernel_ns() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibration.kernel_ns()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_latency_is_scaled_by_the_kernel_times_around_it():
    ref = run.calibration.REFERENCE_NS
    assert run._scaled_ns({"ns": 1000, "cal_ns": (ref, ref)}) == 1000
    assert run._scaled_ns({"ns": 1000, "cal_ns": (2 * ref, 2 * ref)}) == 500
    assert run._scaled_ns({"ns": 1000, "cal_ns": (ref, 3 * ref)}) == 500
