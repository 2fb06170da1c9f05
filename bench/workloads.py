"""Seeded inputs for the benchmark workloads.

An op is a ``qqwalk`` argv together with what the oracles need to check its
output and the amount of work it stands for.  Inputs come only from the
workload name and the seed.  Generation uses only the standard library and
none of the package, so a change to the package cannot change its inputs,
and the timed set-up phase it runs in never pulls in numpy.

Workload sizes are fixed and only coin entries, spinors and verify seeds
vary with the seed, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import json
import math
from random import Random

#: Steps per ``dist`` op on walk-long: about 0.2 s an op, so that a run
#: holds some 30 passes to take per-op medians over.
WALK_STEPS = 200

#: ``verify --suite all`` seeds per pass on verify-short: about 1.5 s a
#: pass, so that a run holds some 20 passes to take per-op medians over.
VERIFY_SEEDS = 8

#: Reports one ``verify --suite all`` prints, in order.
VERIFY_CHECKS = (
    "random-coin-unitarity", "row-orthonormality",
    "product-table", "word-reduction-oracle", "pqrs-round-trip",
    "pqrs-known-coefficients",
    "uniform-stationary", "a0-witness", "b0-two-step-uniformity",
    "right-eigenpair", "right-vs-left-action",
    "complexified-distribution-equality", "position-law-coefficients",
)

# (mode, n, l, coin) per pathsum-enum op.  Balanced and skewed splits at
# n = 12..14; "random" draws a seeded quaternion coin.  Brute force costs
# about six times the reduced fold per word.  The balanced n = 14 brute
# force dominates a pass and is the slowest op.
PATHSUM_PLAN = (
    ("brute", 14, 7, "example-ijk"),
    ("brute", 13, 4, "random"),
    ("brute", 12, 9, "hadamard"),
    ("reduced", 14, 7, "random"),
    ("reduced", 14, 10, "example-ijk"),
    ("decompose", 14, 7, "hadamard"),
    ("decompose", 13, 4, "random"),
)

WALK_COINS = ("example-ijk", "hadamard", "random", "random")


def _qmul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def _conj(q):
    return (q[0], -q[1], -q[2], -q[3])


def _gauss4(rng: Random):
    return tuple(rng.gauss(0.0, 1.0) for _ in range(4))


def _scale(q, s):
    return tuple(v * s for v in q)


def _norm_sq(q):
    return sum(v * v for v in q)


def random_coin(rng: Random) -> dict:
    """Unitary quaternion coin by Gram-Schmidt on two gaussian rows."""
    while True:
        g1 = (_gauss4(rng), _gauss4(rng))
        g2 = (_gauss4(rng), _gauss4(rng))
        n1 = math.sqrt(_norm_sq(g1[0]) + _norm_sq(g1[1]))
        if n1 < 1e-6:
            continue
        v1 = (_scale(g1[0], 1 / n1), _scale(g1[1], 1 / n1))
        overlap = tuple(a + b for a, b in zip(_qmul(g2[0], _conj(v1[0])),
                                              _qmul(g2[1], _conj(v1[1]))))
        w = tuple(tuple(g - o for g, o in zip(g2[k], _qmul(overlap, v1[k])))
                  for k in (0, 1))
        n2 = math.sqrt(_norm_sq(w[0]) + _norm_sq(w[1]))
        if n2 < 1e-6:
            continue
        return {"a": list(v1[0]), "b": list(v1[1]),
                "c": list(_scale(w[0], 1 / n2)), "d": list(_scale(w[1], 1 / n2))}


def random_spinor(rng: Random) -> list:
    """Uniform unit spinor as a JSON pair of 4-arrays."""
    while True:
        comps = [rng.gauss(0.0, 1.0) for _ in range(8)]
        norm = math.sqrt(sum(v * v for v in comps))
        if norm > 1e-6:
            return [[v / norm for v in comps[:4]], [v / norm for v in comps[4:]]]


def _coin_arg(rng: Random, name: str) -> str:
    return json.dumps(random_coin(rng)) if name == "random" else name


def _walk_long(rng: Random) -> list[dict]:
    ops = []
    for name in WALK_COINS:
        coin = _coin_arg(rng, name)
        spinor = random_spinor(rng)
        ops.append({
            "argv": ["dist", "--coin", coin, "--init", json.dumps(spinor),
                     "--steps", str(WALK_STEPS), "--format", "csv"],
            "check": {"kind": "dist", "coin": coin, "spinor": spinor,
                      "steps": WALK_STEPS},
            "work": (WALK_STEPS + 1) ** 2,
        })
    return ops


def _pathsum_enum(rng: Random) -> list[dict]:
    ops = []
    for mode, n, l, name in PATHSUM_PLAN:
        coin = _coin_arg(rng, name)
        ops.append({
            "argv": ["xi", "--coin", coin, "-n", str(n), "-l", str(l),
                     "-m", str(n - l), "--mode", mode],
            "check": {"kind": "xi", "mode": mode, "coin": coin, "n": n, "l": l},
            "work": math.comb(n, l),
        })
    return ops


def verify_op(seed: int) -> dict:
    return {
        "argv": ["verify", "--suite", "all", "--seed", str(seed)],
        "check": {"kind": "verify", "seed": seed},
        "work": len(VERIFY_CHECKS),
    }


def _verify_short(rng: Random) -> list[dict]:
    return [verify_op(rng.randrange(2 ** 31)) for _ in range(VERIFY_SEEDS)]


WORKLOADS = {
    "walk-long": _walk_long,
    "pathsum-enum": _pathsum_enum,
    "verify-short": _verify_short,
}


def build(workload: str, seed: int) -> list[dict]:
    """The op list of one pass of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](Random(f"{workload}/{seed}"))


def probe(seed: int) -> dict:
    """The op every traced pass ends with.

    One ``verify --suite all`` reaches every layer, so each per-layer
    metric is measured on every workload, also on layers the workload's
    own ops never call.
    """
    return verify_op(Random(f"probe/{seed}").randrange(2 ** 31))
