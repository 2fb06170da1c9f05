"""A derandomized fuzz of the CLI contract over every subcommand.

Each example draws one argv per subcommand and output format from a
grammar of its inputs (presets and inline coins, spinors, states,
measures, windows, tolerances and seeds, with NaN, infinities, 1e308,
subnormals, tiny values, huge integers, deep JSON and a bad
``QQWALK_SEED``) and runs ``main`` in-process.  The contract: the exit code is one of the documented ones
(argparse's own exit 2 included), stderr holds no traceback, and a
successful run prints the documented CSV or JSON, with no ``NaN`` or
``Infinity`` when every input is finite.

Sizes stay small (at most 12 steps, 2^10 words) so the test takes under
two seconds; a huge count is drawn only where the CLI must refuse it at
once, since ``dist --steps 10**30`` is a valid request that never ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from random import Random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qqwalk import SUITES, build_eigenstate_flip, random_unit_pair, random_unitary_coin
from qqwalk.cli import main
from qqwalk.coin import PRESET_NAMES

from conftest import SQRT_HALF, q

HUGE = 10 ** 30
DEEP = "[" * 3000 + "]" * 3000
_SPECIAL_REALS = (0.0, -0.0, 1.0, -1.0, SQRT_HALF, math.nan, math.inf, -math.inf,
                  1e308, -1e308, 5e-324, 1e-200)
_NON_FINITE = re.compile(r"\b(?:NaN|Infinity|nan|inf|1e999)\b")


def _mostly(good, *bad) -> st.SearchStrategy:
    """``good`` three draws in four, else one of ``bad``.

    ``one_of`` merges equal branches, so ``good`` enters as three mapped copies.
    """
    return st.one_of(*[good.map(lambda value: value) for _ in range(3)], st.one_of(*bad))


def _optional(flag: str, values) -> st.SearchStrategy:
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


def _argv(*parts) -> list[str]:
    return [token for part in parts for token in ([part] if isinstance(part, str) else part)]


_reals = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(_SPECIAL_REALS))
_quaternions = _mostly(
    st.lists(_reals, min_size=4, max_size=4),
    st.lists(st.one_of(_reals, st.sampled_from((10 ** 400, True, None, "1"))),
             min_size=3, max_size=5),
    st.sampled_from(("1", "-k", "0.5i+0.5j", "1+2q", "", "1e999")))
_texts = _mostly(st.sampled_from(("1", "-1", "i", "0+1i+0j+0k", "1e-200", "5e-324")),
                 st.sampled_from(("-0.5j", "", "x", "nan", "1e999")),
                 st.builds(lambda w: str(q(w, SQRT_HALF)), _reals))
_tols = _mostly(st.sampled_from(("0", "1e-16", "1e-10", "1", "10", "1e308", "5e-324")),
                st.sampled_from(("-1", "nan", "inf", "abc")))
_JUNK_INTS = st.sampled_from(("1.5", "1e3", "x", ""))
_steps = _mostly(st.integers(-2, 12).map(str), st.just(str(-HUGE)), _JUNK_INTS)
_ints = _mostly(st.integers(-2, 12).map(str), st.sampled_from((str(HUGE), str(-HUGE))),
                _JUNK_INTS)
_kinds = _mostly(st.sampled_from(("periodic", "finite")), st.just("other"))
_junk_json = st.sampled_from(("{}", "[]", "null", "{", DEEP))

_coins = _mostly(
    st.one_of(st.sampled_from(PRESET_NAMES),
              st.builds(lambda seed, entries: json.dumps(
                  random_unitary_coin(Random(seed), entries).to_json()),
                  st.integers(0, 2 ** 16), st.sampled_from(("real", "complex", "quaternion")))),
    st.sampled_from(("hadamrd", "")), _junk_json,
    st.fixed_dictionaries({key: _quaternions for key in "abcd"}).map(json.dumps))
_spinors = _mostly(
    st.one_of(st.sampled_from(("1,0", "0,1", "0.6,0.8i", "0.6+0.8k,0")),
              st.builds(lambda seed: json.dumps(
                  [amp.to_json() for amp in random_unit_pair(Random(seed))]),
                  st.integers(0, 2 ** 16))),
    st.sampled_from(("1,1", "1", "a,b", "[1]", DEEP)),
    st.lists(_quaternions, min_size=2, max_size=2).map(json.dumps),
    st.tuples(_texts, _texts).map(",".join))
_states = _mostly(
    st.builds(lambda kind, amps: json.dumps({"kind": kind, "amplitudes": amps}),
              _kinds, st.lists(st.lists(_quaternions, min_size=2, max_size=2), max_size=4)),
    _junk_json)
_measures = _mostly(
    st.builds(lambda kind, values, offset: json.dumps(
        {"kind": kind, "values": values, "offset": offset}),
        _kinds, _mostly(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6),
                        st.lists(st.one_of(_reals, st.sampled_from((10 ** 400, "1"))),
                                 max_size=6)),
        _mostly(st.integers(-5, 5), st.sampled_from((HUGE, -HUGE, 1.5)))),
    st.builds(lambda value, n: json.dumps({"kind": "periodic", "values": [value] * n}),
              st.sampled_from(_SPECIAL_REALS), st.integers(1, 4)),
    _junk_json)
_flip_scales = st.sampled_from((1.0, 2.0, 1e-200, 5e-324, 1e150, 1e308))


def _flip_eigenpair(sign: int, scale: float, other: float) -> list[str]:
    """eigen-check of flip on a right eigenvector with amplitudes from 5e-324 to 1e308."""
    state = build_eigenstate_flip(sign, [(q(scale), q(other)), (q(0, other), q(0, 0, scale))])
    return ["eigen-check", "--coin", "flip", "--state", json.dumps(state.state.to_json()),
            "--eigenvalue", str(sign)]


def _xi_argv(mode: str) -> st.SearchStrategy:
    """A valid split (huge only where the cap refuses it at once) or three drawn counts."""
    sizes = st.integers(0, 10)
    if mode != "decompose":
        sizes = st.one_of(sizes, st.sampled_from((21, HUGE)))
    valid = sizes.flatmap(lambda n: st.integers(0, n).map(lambda l: (n, l, n - l)))
    split = _mostly(valid.map(lambda counts: tuple(map(str, counts))),
                    st.tuples(_ints, _steps, _steps))
    return st.builds(lambda coin, split, tol: _argv(
        "xi", "--coin", coin, "-n", split[0], "-l", split[1], "-m", split[2], "--mode", mode, tol),
        _coins, split, _optional("--tol", _tols))


def _dist_argv(formats) -> st.SearchStrategy:
    return st.builds(_argv, st.just("dist"), st.just("--coin"), _coins,
                     _optional("--init", _spinors), _optional("--steps", _steps),
                     st.just("--format"), formats)


# one argv per output format in every example, so each is drawn as often
_commands = st.tuples(
    _dist_argv(_mostly(st.just("csv"), st.just("xml"))), _dist_argv(st.just("json")),
    _xi_argv("brute"), _xi_argv("reduced"), _xi_argv("decompose"),
    # verify has few inputs and costs the most (70 ms for all suites): every other example
    st.one_of(st.just([]), st.builds(
        _argv, st.just("verify"),
        _optional("--suite", _mostly(st.sampled_from(("all",) + tuple(SUITES)), st.just("none"))),
        _optional("--seed", _ints), _optional("--tol", _tols))),
    st.builds(_argv, st.just("classify"), st.just("--measure"), _measures,
              _optional("--window", _ints), _optional("--tol", _tols)),
    st.builds(_argv, st.just("eigen-check"), st.just("--coin"), _coins, st.just("--state"),
              _states, st.just("--eigenvalue"), _texts, _optional("--tol", _tols)),
    st.builds(_argv, st.builds(_flip_eigenpair, st.sampled_from((1, -1)), _flip_scales,
                               _flip_scales), _optional("--tol", _tols)),
)
_seed_variables = st.sampled_from((None, "0", "3", "abc", "1e3", "", str(HUGE)))


def _strict(text: str):
    """JSON that may not hold NaN or Infinity."""
    def reject(constant):
        raise AssertionError(f"non-finite {constant} in the output of finite inputs")
    return json.loads(text, parse_constant=reject)


def _check_output(command: str, out: str, finite: bool) -> None:
    load = _strict if finite else json.loads
    lines = out.splitlines()
    if command == "dist" and not out.startswith("["):
        assert lines[0] == "n,x,probability"
        for line in lines[1:]:
            n, x, p = line.split(",")
            int(n), int(x)  # a ValueError unless both are integers
            assert not finite or 0.0 <= float(p) <= 1.0 + 1e-9, line
    elif command == "dist":
        assert all({"n", "dist"} == set(row) for row in load(out))
    elif command == "verify":
        assert all({"check", "pass", "max_residual", "params"} <= set(load(line))
                   for line in lines)
    else:
        (line,) = lines
        data = load(line)
        if command == "xi" and isinstance(data, list):
            assert [[len(entry) for entry in row] for row in data] == [[4, 4], [4, 4]]
        elif command == "xi":
            assert set(data) == {"p", "q", "r", "s"}
        elif command == "classify":
            assert data["kind"] in ("uniform", "exponential", "other")
        else:
            assert {"check", "pass", "max_residual", "params"} <= set(data)


def _check_contract(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            assert exc.code == 2, argv
            assert "error:" in err.getvalue() and "Traceback" not in err.getvalue()
            return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert err == "" or (err.startswith("qqwalk: ") and err.count("\n") == 1), (argv, err)
    if code == 0:
        _check_output(argv[0], out, not any(map(_NON_FINITE.search, argv)))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(commands=_commands, seed_variable=_seed_variables)
def test_cli_contract_holds_for_drawn_argv(commands, seed_variable):
    with mock.patch.dict(os.environ, {"QQWALK_SEED": seed_variable or ""}):
        if seed_variable is None:
            del os.environ["QQWALK_SEED"]
        for argv in filter(None, commands):
            _check_contract(argv)
