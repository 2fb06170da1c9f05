"""Command-line front end.

Subcommands: ``dist`` (position distributions), ``xi`` (path-sum operator
for one step split), ``verify`` (seeded verification suites), ``classify``
(measure classification), ``eigen-check`` (right-eigenpair residuals).

Exit codes: 0 success, 1 verification failure, 2 config/parse error,
3 non-unitary coin, 4 enumeration cap exceeded (``xi --mode brute|reduced``),
141 stdout closed by its reader (128 + SIGPIPE; nothing is printed on stderr).

Each subcommand loads only the modules it runs.  This module imports
``quaternion``, ``coin`` and ``walk``, which ``dist`` needs and every
other subcommand builds on; ``xi`` imports ``pathsum`` in its handler,
``classify`` and ``eigen-check`` ``stationary``, and ``verify`` both
``stationary`` and ``verify``, which a ``dist`` process never loads.
Those three import no heavy standard module at their top level: their
result classes are written by hand, and only a ``classify`` that fits an
exponential profile imports ``statistics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .coin import NotUnitaryError, _load_json, coin_from_spec
from .quaternion import DEFAULT_TOL, Quaternion, _json_cast, parse_quaternion
from .walk import PeriodicState, distributions, measure_from_json, state_from_json

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NOT_UNITARY = 3
EXIT_CAP = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer its reader left


def _parse_spinor(text: str) -> tuple[Quaternion, Quaternion]:
    """Initial spinor: JSON pair of quaternions, or two text quaternions split on ','."""
    stripped = text.strip()
    parts = _load_json(stripped) if stripped.startswith("[") else stripped.split(",")
    if len(parts) != 2:
        raise ValueError("initial spinor must be 'alpha,beta' or a JSON pair of quaternions")
    return Quaternion.from_json(parts[0]), Quaternion.from_json(parts[1])


def _tolerance(text: str) -> float:
    """``--tol`` value: a finite float >= 0 (a NaN or negative one fails every check)."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _resolve_run_config(args) -> tuple[str, str, int, str]:
    """Coin, init, steps and output format; flags override config-file values."""
    values = {"init": "1,0", "steps": 0, "output": "csv"}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(loaded.keys() - {"coin", *values})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)} "
                             f"(known: {', '.join(['coin', *values])})")
        values.update(loaded)
    for key, flag in (("coin", args.coin), ("init", args.init),
                      ("steps", args.steps), ("output", args.format)):
        if flag is not None:
            values[key] = flag
    if "coin" not in values:
        raise ValueError("a coin is required (--coin or config file)")
    for key in ("coin", "init"):
        if not isinstance(values[key], str):
            raise ValueError(f"{key} must be a string, got {values[key]!r}")
    steps = _json_cast(int, values["steps"], "steps")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if values["output"] not in ("csv", "json"):
        raise ValueError("output format must be csv or json")
    return values["coin"], values["init"], steps, values["output"]


def _cmd_dist(args) -> int:
    coin, init, steps, output = _resolve_run_config(args)
    series = distributions(coin_from_spec(coin), _parse_spinor(init), steps)
    # each step is written as it is measured, so only one step is held
    if output == "csv":
        print("n,x,probability")
        for n, dist in enumerate(series):
            head = f"{n},"
            print("\n".join([f"{head}{x},{p!r}" for x, p in dist.items()]))
    else:
        print("[", end="")
        for n, dist in enumerate(series):
            row = json.dumps({"n": n, "dist": {str(x): p for x, p in dist.items()}})
            print(", " + row if n else row, end="")
        print("]")
    return EXIT_OK


def _cmd_xi(args) -> int:
    from .pathsum import (
        CapExceededError,
        decompose_pqrs,
        path_sum,
        path_sum_bruteforce,
        path_sum_reduced,
    )

    coin = coin_from_spec(args.coin)
    if args.mode != "decompose":
        # a --tol on the command line is a new float, never the shared default
        if args.tol is not DEFAULT_TOL:
            raise ValueError("--tol applies only to --mode decompose")
        evaluate = path_sum_bruteforce if args.mode == "brute" else path_sum_reduced
        try:
            xi = evaluate(coin, args.n, args.l, args.m)
        except CapExceededError as exc:  # a ValueError: main would exit 2
            print(f"qqwalk: {exc}", file=sys.stderr)
            return EXIT_CAP
        print(json.dumps(xi.to_json()))
        return EXIT_OK
    deco = decompose_pqrs(coin, path_sum(coin, args.n, args.l, args.m))
    print(json.dumps(deco.to_json()))
    if not deco.residual <= args.tol:
        print(f"qqwalk: reconstruction residual {deco.residual!r} exceeds "
              f"--tol {args.tol!r}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_suites

    seed = args.seed
    if seed is None:
        text = os.environ.get("QQWALK_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"QQWALK_SEED must be an integer, got {text!r}") from None
    reports = run_suites(args.suite, seed=seed, tol=args.tol)
    for report in reports:
        print(json.dumps(report))
    return EXIT_OK if all(r["pass"] for r in reports) else EXIT_VERIFY_FAIL


def _cmd_classify(args) -> int:
    from .stationary import classify_measure

    measure = measure_from_json(_load_json(args.measure))
    klass = classify_measure(measure, window=args.window, tol=args.tol)
    print(json.dumps(klass.to_json()))
    return EXIT_OK


def _cmd_eigen_check(args) -> int:
    from .stationary import EigenCandidate, _worst, right_eigen_check

    coin = coin_from_spec(args.coin)
    state = state_from_json(_load_json(args.state))
    if not isinstance(state, PeriodicState):
        raise ValueError("eigen-check needs a periodic state")
    lam = parse_quaternion(args.eigenvalue)
    report = _worst("right-eigenpair", [right_eigen_check(coin, EigenCandidate(state, lam))],
                    args.tol, eigenvalue=lam.to_json())
    print(json.dumps(report))
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


# built once per process: a parse leaves nothing on the parser, and a fresh
# build per call costs about 20 times the parse and leaves cyclic garbage
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qqwalk",
        description="Quaternionic quantum walks on the integer line: "
                    "simulate, enumerate path sums, and verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    dist = sub.add_parser("dist", help="position distributions for n = 0..steps")
    dist.add_argument("--coin", help="preset name, inline JSON, or JSON file")
    dist.add_argument("--init", help="initial spinor 'alpha,beta' or JSON pair; "
                                     "write --init=VALUE when VALUE starts with '-'")
    dist.add_argument("--steps", type=int, help="number of steps (default 0)")
    dist.add_argument("--format", choices=("csv", "json"), help="output format")
    dist.add_argument("--config", help="JSON config file (flags override it)")
    dist.set_defaults(handler=_cmd_dist)

    xi = sub.add_parser("xi", parents=[tol], help="path-sum operator for one step split")
    xi.add_argument("--coin", required=True)
    xi.add_argument("-n", type=int, required=True, help="total steps")
    xi.add_argument("-l", type=int, required=True, help="left steps")
    xi.add_argument("-m", type=int, required=True, help="right steps")
    xi.add_argument("--mode", choices=("brute", "reduced", "decompose"),
                    default="brute")
    xi.set_defaults(handler=_cmd_xi)

    verify = sub.add_parser("verify", parents=[tol], help="run seeded verification suites")
    verify.add_argument("--suite", default="all",
                        help="a suite name, or all (default); an unknown name "
                             "exits 2 with the list of suites")
    verify.add_argument("--seed", type=int,
                        help="suite seed (default: QQWALK_SEED, else 0)")
    verify.set_defaults(handler=_cmd_verify)

    classify = sub.add_parser("classify", parents=[tol], help="classify a measure")
    classify.add_argument("--measure", required=True,
                          help="measure JSON (inline or file)")
    classify.add_argument("--window", type=int, default=8)
    classify.set_defaults(handler=_cmd_classify)

    eigen = sub.add_parser("eigen-check", parents=[tol], help="verify a right eigenpair")
    eigen.add_argument("--coin", required=True)
    eigen.add_argument("--state", required=True,
                       help="periodic state JSON (inline or file)")
    eigen.add_argument("--eigenvalue", required=True,
                       help="quaternion text, e.g. '0+1i+0j+0k'; "
                            "write --eigenvalue=VALUE when VALUE starts with '-'")
    eigen.set_defaults(handler=_cmd_eigen_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: keep the exit flush of what is still buffered quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except NotUnitaryError as exc:
        print(f"qqwalk: non-unitary coin: {exc}", file=sys.stderr)
        return EXIT_NOT_UNITARY
    except (ValueError, KeyError, OSError, RecursionError) as exc:
        print(f"qqwalk: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
