"""Outside-in benchmark of the qqwalk CLI.

    python3 bench/run.py --workload walk-long --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Each run starts fresh interpreters (``worker.py``) that import the package
from ``src/`` of this checkout and drive ``qqwalk.cli.main(argv)``
in-process, one client in a closed loop, on inputs generated from the
seed.  After timing, every output is checked against the numpy oracles in
``oracles.py``.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones; see ``METRICS.md``.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibration
import oracles
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters timed for set-up, besides the timed run's own.
SETUP_SAMPLES = 16
#: Samples required beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Seconds a worker may take beyond its measuring time.
WORKER_GRACE = 100

# Traced functions behind each per-layer time metric, as
# (metric, function key, "incl" or "self").
FUNCTION_METRICS = (
    ("coin.build_s", "coin.Coin.__init__", "incl"),
    ("coin.product_table_s", "coin.Coin.product_table", "incl"),
    ("walk.evolve_s", "walk.FiniteSupportState.evolve", "incl"),
    ("walk.measure_s", "walk.FiniteSupportState.measure", "incl"),
    ("walk.distributions_self_s", "walk.distributions", "self"),
    ("walk.periodic_evolve_s", "walk.PeriodicState.evolve", "incl"),
    ("pathsum.bruteforce_s", "pathsum.path_sum_bruteforce", "incl"),
    ("pathsum.reduced_s", "pathsum.path_sum_reduced", "incl"),
    ("pathsum.decompose_s", "pathsum.decompose_pqrs", "incl"),
    ("stationary.verify_stationary_s", "stationary.verify_stationary", "incl"),
    ("stationary.two_step_s", "stationary.check_two_step_uniformity", "incl"),
    ("stationary.right_eigen_check_s", "stationary.right_eigen_check", "incl"),
    ("stationary.quadratic_form_s", "stationary.quadratic_form_coefficients", "incl"),
    ("stationary.classify_s", "stationary.classify_measure", "incl"),
    ("verify.unitary_s", "verify.suite_unitary", "incl"),
    ("verify.pqrs_s", "verify.suite_pqrs", "incl"),
    ("verify.stationary_s", "verify.suite_stationary", "incl"),
    ("verify.eigen_s", "verify.suite_eigen", "incl"),
    ("verify.theorem1_s", "verify.suite_theorem1", "incl"),
)
#: Layers whose summed self time is reported as ``<layer>.self_s``.
SELF_LAYERS = ("coin", "walk", "pathsum", "stationary", "verify", "cli")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker(mode: str, workload: str, seed: int, seconds: float):
    """Run one worker; returns (spawn time in monotonic ns, op records, summary)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           mode, workload, str(seed), repr(seconds)]
    t_spawn = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=seconds + WORKER_GRACE)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = [json.loads(line) for line in out.splitlines()]
    if not lines or "summary" not in lines[-1]:
        raise BenchError(f"{mode} worker printed no summary")
    return t_spawn, lines[:-1], lines[-1]["summary"]


class Checker:
    """Checks each distinct output once; counts attempted and failed ops."""

    def __init__(self, ops: list[dict]):
        """``ops`` are the op list records refer to by index."""
        self._ops = ops
        self._texts: dict[str, str] = {}
        self._verdicts: dict[tuple, tuple[bool, dict]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.infos: list[dict] = []

    def add(self, records: list[dict]) -> None:
        for record in records:
            if "out" in record:
                self._texts[record["sha"]] = record["out"]
            key = (record["op"], record["rc"], record["sha"])
            if key not in self._verdicts:
                op = self._ops[record["op"]]
                ok, info = oracles.check(op["check"], record["rc"],
                                         self._texts[record["sha"]])
                self._verdicts[key] = (ok, info)
                self.infos.append(info)
                if not ok:
                    self.failures.append({"argv": op["argv"][:1] + op["argv"][-4:],
                                          "info": info, "err": record.get("err")})
            self.attempted += 1
            self.failed += not self._verdicts[key][0]


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _scaled_ns(record: dict) -> float:
    """An op's latency in reference-host ns.

    Scaled by the calibration kernel's mean time on either side of the op,
    which tracks the host's speed while the op ran more closely than a
    run-wide median does.
    """
    return record["ns"] * calibration.REFERENCE_NS * 2 / sum(record["cal_ns"])


def _list_wall_s(records: list[dict], n_ops: int) -> float:
    """Time of one pass of the first ``n_ops`` ops: each op's median scaled latency, summed.

    Per-op medians over passes shrug off a noisy pass better than the
    median of whole-pass sums does.
    """
    per_op = [[] for _ in range(n_ops)]
    for record in records:
        if record["op"] < n_ops:
            per_op[record["op"]].append(_scaled_ns(record))
    return sum(statistics.median(ns) for ns in per_op) / 1e9


def _setup_seconds(workload: str, seed: int, timed_spawn: int, timed_ready: int,
                   timed_cal_ns: int) -> list[tuple[float, float]]:
    """(measured s, reference-host s) of each set-up sample.

    Each is scaled by the calibration kernel timed in its own interpreter
    once it was ready.
    """
    def sample(t_spawn, t_ready, cal_ns):
        seconds = (t_ready - t_spawn) / 1e9
        return seconds, seconds * calibration.REFERENCE_NS / cal_ns

    samples = [sample(timed_spawn, timed_ready, timed_cal_ns)]
    for _ in range(SETUP_SAMPLES):
        t_spawn, _, summary = _worker("setup", workload, seed, 0.0)
        samples.append(sample(t_spawn, summary["t_ready"], statistics.median(summary["cal_ns"])))
    return samples


def end_to_end(workload: str, seed: int, seconds: float, ops: list[dict], checker: Checker):
    t_spawn, records, summary = _worker("run", workload, seed, seconds)
    checker.add(records)
    setup = _setup_seconds(workload, seed, t_spawn, summary["t_ready"], records[0]["cal_ns"][0])
    latencies_ms = [_scaled_ns(r) / 1e6 for r in records]
    wall = _list_wall_s(records, len(ops))
    tail, tail_pct, samples = _tail(latencies_ms)
    measured_ms = [r["ns"] / 1e6 for r in records]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "work_per_s": (sum(op["work"] for op in ops) / wall, "1/s"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024.0, "MB"),
    }
    detail = {"passes": len(summary["passes"]), "ops_per_pass": len(ops),
              "op_tail_percentile": tail_pct, "op_samples": samples,
              "measured_op_p50_ms": statistics.median(measured_ms),
              "measured_setup_s": statistics.median(m for m, _ in setup),
              "speed_scale": statistics.median(l / m for m, l in zip(measured_ms, latencies_ms)),
              "setup_samples_s": [s for _, s in setup],
              "pass_walls_s": [ns / 1e9 for ns in summary["passes"]]}
    return metrics, detail


def per_layer(workload: str, seed: int, seconds: float, ops: list[dict], checker: Checker):
    _, untraced_records, untraced = _worker("run", workload, seed, seconds / 2)
    checker.add(untraced_records)
    _, traced_records, traced = _worker("trace", workload, seed, seconds / 2)
    checker.add(traced_records)
    _, records, counted = _worker("count", workload, seed, 0.0)
    checker.add(records)
    _, _, micro = _worker("micro", workload, seed, 0.0)

    passes = [p["stats"] for p in traced["passes"]]
    med = statistics.median
    metrics = {}
    missing = []
    for name, key, kind in FUNCTION_METRICS:
        if key not in passes[0]:
            missing.append(key)
        index = 2 if kind == "incl" else 3
        metrics[name] = (med(p.get(key, (None, 0, 0, 0))[index] for p in passes) / 1e9, "s")
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = (
            med(sum(s[3] for s in p.values() if s[0] == layer) for p in passes) / 1e9, "s")
    counts = counted["counts"]
    metrics.update({
        "quaternion.products": (counts["products"], "count"),
        "quaternion.allocs": (counts["allocs"], "count"),
        "pathsum.matmuls": (counts["matmuls"], "count"),
        "cli.output_bytes": (counted["output_bytes"], "count"),
        "trace.overhead": (_list_wall_s(traced_records, len(ops))
                           / _list_wall_s(untraced_records, len(ops)), "ratio"),
    })
    units = {"quaternion.mul_ns": "ns", "walk.evolve_2001_ms": "ms", "walk.norm_drift": "1",
             "pathsum.reduce_word_us": "us", "stationary.classify_us": "us"}
    for name, value in micro["micro"].items():
        metrics[name] = (value, units[name])
    all_self = [sum(s[3] for s in p.values()) for p in passes]
    walls = [p["wall_ns"] for p in traced["passes"]]
    detail = {"traced_passes": len(passes), "untraced_passes": len(untraced["passes"]),
              "missing_functions": missing,
              "self_over_traced_wall": max(s / w for s, w in zip(all_self, walls))}
    return metrics, detail


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": _git_sha(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "platform": platform.platform()}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    ops = workloads.build(workload, seed)
    checker = Checker(ops + [workloads.probe(seed)])
    measure = per_layer if trace else end_to_end
    metrics, detail = measure(workload, seed, seconds, ops, checker)
    detail["error_rate"] = checker.failed / checker.attempted
    detail["failures"] = checker.failures[:5]
    drifts = [i["norm_drift"] for i in checker.infos if "norm_drift" in i]
    if drifts:
        detail["output_norm_drift"] = max(drifts)
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics, "detail": detail}


def _result_line(result: dict) -> dict:
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result["metrics"].items()}}


def _print_table(workload: str, result: dict) -> None:
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload:>13}  {name:<34} {value:>14.6g} {unit}")
    print(f"{workload:>13}  {'error_rate':<34} {result['detail']['error_rate']:>14.6g} "
          f"{'1'} ({result['failed']}/{result['attempted']} ops failed)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "qqwalk", "__init__.py")):
        print(f"bench: no qqwalk package under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(args.workload, args.seed,
                                                 args.seconds, args.trace),
                      "detail": {name: r["detail"] for name, r in results.items()}}))
    for name, result in results.items():
        _print_table(name, result)
    if len(results) == 1:
        line = _result_line(results[names[0]])
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}.{metric}": entry
                            for name, r in results.items()
                            for metric, entry in _result_line(r)["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
