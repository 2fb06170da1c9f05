"""Command-line interface: formats, determinism, and exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys

import pytest

import qqwalk
from qqwalk import (
    K,
    QMatrix2,
    Quaternion,
    build_eigenstate_flip,
    build_eigenstate_flipneg,
    path_sum_bruteforce,
    preset_coin,
)
from qqwalk.cli import build_parser, main

from conftest import HELD_BLOCKS, TRACED_STEPS

SQRT_HALF = 1.0 / math.sqrt(2.0)
SYMMETRIC_J_INIT = json.dumps([[SQRT_HALF, 0, 0, 0], [0, 0, SQRT_HALF, 0]])
# A random quaternion coin and spinor (Random(2014)), written out so the
# golden hashes below do not depend on the samplers.
RANDOM_COIN = json.dumps({
    "a": [-0.1271165632761715, 0.2919697586867594, 0.6475427150560427, -0.3773593282998051],
    "b": [-0.4345298793534234, 0.21414303437566626, 0.31638388713223886, 0.045947683475834326],
    "c": [0.5422873808421916, 0.17439070464885706, -0.10980513358430821, -0.01839891915690729],
    "d": [-0.6196264878096792, -0.13694269930386266, -0.5070098815300513, 0.058028302290152906],
})
NEG_ZERO_HADAMARD = json.dumps({
    name: [sign * SQRT_HALF, -0.0, -0.0, -0.0]
    for name, sign in (("a", 1), ("b", 1), ("c", 1), ("d", -1))})
RANDOM_INIT = json.dumps([
    [0.04653039307699787, 0.3198658725977231, -0.6251427380632999, 0.34246671274514673],
    [-0.0719062397881712, -0.15403497409885827, 0.013700375579884799, -0.5986224794630677],
])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out: str) -> dict[tuple[int, int], float]:
    lines = out.strip().splitlines()
    assert lines[0] == "n,x,probability"
    rows = {}
    for line in lines[1:]:
        n, x, p = line.split(",")
        rows[(int(n), int(x))] = float(p)
    return rows


def test_dist_golden_rows(capsys):
    code, out, _ = run_cli(capsys, "dist", "--coin", "example-ijk",
                           "--init", SYMMETRIC_J_INIT, "--steps", "4")
    assert code == 0
    rows = parse_csv(out)
    expected = {(-4): 1 / 16, (-2): 6 / 16, 0: 2 / 16, 2: 6 / 16, 4: 1 / 16}
    for x, p in expected.items():
        assert rows[(4, x)] == pytest.approx(p, abs=1e-12)
    for n in range(5):
        total = sum(p for (row_n, _), p in rows.items() if row_n == n)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_dist_zero_steps(capsys):
    code, out, _ = run_cli(capsys, "dist", "--coin", "hadamard",
                           "--init", "1,0", "--steps", "0")
    assert code == 0
    assert out.strip().splitlines()[1] == "0,0,1.0"


def test_dist_json_format(capsys):
    code, out, _ = run_cli(capsys, "dist", "--coin", "hadamard",
                           "--init", "1,0", "--steps", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [entry["n"] for entry in payload] == [0, 1, 2]
    assert payload[0]["dist"] == {"0": 1.0}
    assert set(payload[2]["dist"]) == {"-2", "0", "2"}


def test_dist_byte_identical_runs(capsys):
    args = ("dist", "--coin", "example-ijk", "--init", SYMMETRIC_J_INIT,
            "--steps", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_dist_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"coin": "hadamard", "init": "1,0",
                                  "steps": 3, "output": "json"}))
    code, out, _ = run_cli(capsys, "dist", "--config", str(config),
                           "--steps", "1")
    assert code == 0
    payload = json.loads(out)
    assert [entry["n"] for entry in payload] == [0, 1]


def test_dist_malformed_coin_exits_2(capsys):
    code, out, err = run_cli(capsys, "dist", "--coin", "{not json",
                             "--init", "1,0", "--steps", "1")
    assert code == 2
    assert out == "" and err


def test_dist_non_unitary_coin_exits_3(capsys):
    coin = json.dumps({"a": [1, 0, 0, 0], "b": [1, 0, 0, 0],
                       "c": [0, 0, 0, 0], "d": [1, 0, 0, 0]})
    code, out, err = run_cli(capsys, "dist", "--coin", coin,
                             "--init", "1,0", "--steps", "1")
    assert code == 3
    assert out == "" and "non-unitary" in err


def test_dist_rejects_bad_spinor(capsys):
    # checked before the first row: no header and no "[" is written
    for fmt in ("csv", "json"):
        code, out, _ = run_cli(capsys, "dist", "--coin", "hadamard",
                               "--init", "1,1", "--steps", "1", "--format", fmt)
        assert code == 2
        assert out == ""


def test_xi_brute_golden(capsys):
    code, out, _ = run_cli(capsys, "xi", "--coin", "example-ijk",
                           "-n", "3", "-l", "2", "-m", "1", "--mode", "brute")
    assert code == 0
    matrix = QMatrix2.from_json(json.loads(out))
    scale = SQRT_HALF ** 3
    expected = QMatrix2(Quaternion(0, 0, 0, 2 * scale), Quaternion(),
                        Quaternion(0, 0, scale), Quaternion(0, 0, 0, -scale))
    assert matrix.max_dev(expected) <= 1e-12


def test_xi_reduced_matches_brute(capsys):
    _, brute, _ = run_cli(capsys, "xi", "--coin", "hadamard",
                          "-n", "5", "-l", "2", "-m", "3", "--mode", "brute")
    _, reduced, _ = run_cli(capsys, "xi", "--coin", "hadamard",
                            "-n", "5", "-l", "2", "-m", "3", "--mode", "reduced")
    a = QMatrix2.from_json(json.loads(brute))
    b = QMatrix2.from_json(json.loads(reduced))
    assert a.max_dev(b) <= 1e-12


def test_xi_decompose_hadamard(capsys):
    code, out, _ = run_cli(capsys, "xi", "--coin", "hadamard",
                           "-n", "4", "-l", "3", "-m", "1", "--mode", "decompose")
    assert code == 0
    deco = json.loads(out)
    coin = preset_coin("hadamard")
    a, b, c = coin.a.w, coin.b.w, coin.c.w
    assert deco["p"][0] == pytest.approx(2 * a * b * c, abs=1e-12)
    assert deco["q"] == [0.0, 0.0, 0.0, 0.0]
    assert deco["r"][0] == pytest.approx(a * a * b, abs=1e-12)
    assert deco["s"][0] == pytest.approx(a * a * c, abs=1e-12)


def test_xi_cap_exits_4(capsys):
    code, _, err = run_cli(capsys, "xi", "--coin", "hadamard",
                           "-n", "25", "-l", "20", "-m", "5")
    assert code == 4
    assert "cap" in err


def test_verify_theorem1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem1",
                           "--seed", "42")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["pass"] for r in reports)
    assert {r["check"] for r in reports} == {
        "complexified-distribution-equality", "position-law-coefficients"}


def test_verify_stationary_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "stationary",
                           "--seed", "7")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["pass"] for r in reports)


def test_verify_stationary_suite_passes_at_tol_1(capsys):
    # the suite's own b=0 coins stay b=0 whatever --tol bounds
    code, out, err = run_cli(capsys, "verify", "--suite", "stationary",
                             "--seed", "0", "--tol", "1")
    assert (code, err) == (0, "")
    assert all(json.loads(line)["pass"] for line in out.splitlines())


@pytest.mark.parametrize("suite", sorted(qqwalk.SUITES))
def test_looser_verify_tol_never_fails_a_pass(capsys, suite):
    codes = [run_cli(capsys, "verify", "--suite", suite, "--seed", "0", "--tol", tol)[0]
             for tol in ("1e-10", "0.5", "3", "10", "1e6")]
    assert set(codes) <= {0, 1}
    # once a tol passes, every larger one passes
    assert codes == sorted(codes, reverse=True)
    assert codes[-1] == 0


def test_unknown_verify_suite_exits_2_with_the_suite_list(capsys):
    # verify owns the suite names; the parser takes any name and passes it on
    assert run_cli(capsys, "verify", "--suite", "none") == (
        2, "", "qqwalk: invalid configuration: unknown suite 'none'; "
               "available: all, eigen, pqrs, stationary, theorem1, unitary\n")


def test_verify_pqrs_report_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "pqrs", "--seed", "42")
    assert code == 0
    for line in out.strip().splitlines():
        report = json.loads(line)
        assert set(report) == {"check", "pass", "max_residual", "params"}


def test_classify_uniform(capsys):
    measure = json.dumps({"kind": "periodic", "values": [2.0, 2.0, 2.0]})
    code, out, _ = run_cli(capsys, "classify", "--measure", measure)
    assert code == 0
    result = json.loads(out)
    assert result["kind"] == "uniform"
    assert result["c"] == pytest.approx(2.0)


def test_classify_uniform_constant_near_float_max_prints_it(capsys):
    # the midpoint of lo and hi must not overflow to Infinity
    measure = json.dumps({"kind": "periodic", "values": [1.7e308]})
    code, out, _ = run_cli(capsys, "classify", "--measure", measure)
    assert code == 0
    assert out == '{"kind": "uniform", "symmetric": true, "c": 1.7e+308}\n'


def test_classify_from_file(capsys, tmp_path):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"kind": "finite", "offset": -1,
                                "values": [0.25, 0.5, 0.25]}))
    code, out, _ = run_cli(capsys, "classify", "--measure", str(path))
    assert code == 0
    assert json.loads(out)["symmetric"] is True


def test_eigen_check_pass(capsys, tmp_path):
    candidate = build_eigenstate_flip(-1, [(Quaternion(1), Quaternion(0, 0, 1))])
    path = tmp_path / "state.json"
    path.write_text(json.dumps(candidate.state.to_json()))
    code, out, _ = run_cli(capsys, "eigen-check", "--coin", "flip",
                           "--state", str(path), "--eigenvalue", "-1")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_residual"] <= 1e-12


def test_eigen_check_fail_exits_1(capsys, tmp_path):
    candidate = build_eigenstate_flip(1, [(Quaternion(1), Quaternion(1))])
    path = tmp_path / "state.json"
    path.write_text(json.dumps(candidate.state.to_json()))
    code, out, _ = run_cli(capsys, "eigen-check", "--coin", "hadamard",
                           "--state", str(path), "--eigenvalue", "1")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_xi_decompose_has_no_cap_but_oracles_do(capsys):
    code, out, _ = run_cli(capsys, "xi", "--coin", "hadamard",
                           "-n", "40", "-l", "20", "-m", "20", "--mode", "decompose")
    assert code == 0
    assert set(json.loads(out)) == {"p", "q", "r", "s"}
    for mode in ("brute", "reduced"):
        result = run_cli(capsys, "xi", "--coin", "hadamard",
                         "-n", "21", "-l", "10", "-m", "11", "--mode", mode)
        assert result == (4, "", "qqwalk: n=21 exceeds the enumeration cap 20\n")


def test_non_finite_input_exits_2(capsys):
    state = '{"kind":"periodic","amplitudes":[[[NaN,0,0,0],[1,0,0,0]]]}'
    code, out, err = run_cli(capsys, "eigen-check", "--coin", "flip",
                             "--state", state, "--eigenvalue", "1")
    assert code == 2
    assert out == "" and "finite" in err
    code, out, _ = run_cli(capsys, "dist", "--coin", "hadamard",
                           "--init", "[[NaN,0,0,0],[0,0,0,0]]", "--steps", "2")
    assert code == 2
    assert out == ""
    measure = '{"kind":"finite","values":[Infinity,1,Infinity]}'
    code, out, err = run_cli(capsys, "classify", "--measure", measure)
    assert code == 2
    assert out == "" and "finite" in err


@pytest.mark.parametrize("tiny", ["1e-100", "1e-200", "5e-324"])
def test_eigen_check_takes_tiny_amplitudes(capsys, tiny):
    # 1e-200 squares to 0.0; the state is still nonzero and an eigenvector of flip
    state = f'{{"kind":"periodic","amplitudes":[[[{tiny},0,0,0],[{tiny},0,0,0]]]}}'
    code, out, err = run_cli(capsys, "eigen-check", "--coin", "flip",
                             "--eigenvalue", "1", "--state", state)
    assert (code, err) == (0, "")
    assert json.loads(out)["max_residual"] == 0.0


@pytest.mark.parametrize("tiny", ["1e-200", "5e-324"])
def test_eigen_check_tiny_eigenvalue_exits_2_naming_it(capsys, tiny):
    # |lambda| underflows to 0.0, so the message names lambda as parsed
    state = '{"kind":"periodic","amplitudes":[[[1,0,0,0],[1,0,0,0]]]}'
    code, out, err = run_cli(capsys, "eigen-check", "--coin", "flip",
                             "--eigenvalue", tiny, "--state", state)
    assert (code, out) == (2, "")
    assert err == ("qqwalk: invalid configuration: eigenvalue must be unimodular, "
                   f"got {tiny}+0i+0j+0k\n")


def test_bad_seed_variable_exits_2_for_verify_only(capsys, monkeypatch):
    monkeypatch.setenv("QQWALK_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "--suite", "unitary")
    assert code == 2
    assert out == "" and "QQWALK_SEED" in err
    code, _, _ = run_cli(capsys, "verify", "--suite", "unitary", "--seed", "3")
    assert code == 0
    code, _, _ = run_cli(capsys, "dist", "--coin", "hadamard", "--init", "1,0")
    assert code == 0


def test_seed_variable_sets_verify_seed(capsys, monkeypatch):
    _, flagged, _ = run_cli(capsys, "verify", "--suite", "unitary", "--seed", "5")
    monkeypatch.setenv("QQWALK_SEED", "5")
    _, from_env, _ = run_cli(capsys, "verify", "--suite", "unitary")
    assert from_env == flagged


def test_classify_negative_window_exits_2(capsys):
    measure = json.dumps({"kind": "finite", "values": [1.0, 2.0]})
    code, _, err = run_cli(capsys, "classify", "--measure", measure,
                           "--window", "-3")
    assert code == 2
    assert "window" in err


@pytest.mark.parametrize("measure, symmetric", [
    ({"kind": "finite", "offset": -3, "values": [
        1.000000004, 1.000000001, 1.000000003, 1, 1.000000002, 1.000000001, 1.000000005]}, False),
    ({"kind": "finite", "offset": -3, "values": [
        1.000000001, 1.000000004, 1.000000002, 1, 1.000000003, 1.000000005, 1.000000001]}, False),
    ({"kind": "periodic", "values": [2, 5, 8, 5]}, True),
], ids=["noise-order-1", "noise-order-2", "periodic"])
def test_classify_near_flat_measure_is_other(capsys, measure, symmetric):
    # a flat measure with noise between tol and EXP_FIT_TOL: its fitted slope
    # changes log mu by about 1e-9 over the window, which the fit cannot
    # resolve, so neither the slope's sign nor a gamma of 1 - 1e-9 is a class;
    # a periodic measure is never exponential, and the window does not enter it
    code, out, _ = run_cli(capsys, "classify", "--window", "3", "--measure", json.dumps(measure))
    assert (code, out) == (0, json.dumps({"kind": "other", "symmetric": symmetric}) + "\n")


@pytest.mark.parametrize("command, flag", [("dist", "--init"), ("eigen-check", "--eigenvalue")])
def test_dash_leading_value_help_names_the_equals_form(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"{flag}=" in capsys.readouterr().out


def test_dash_leading_init_takes_the_equals_form(capsys):
    argv = ("dist", "--coin", "hadamard", "--steps", "1")
    code, out, err = run_cli(capsys, *argv, "--init=-1,0")
    assert (code, err) == (0, "")
    assert parse_csv(out) == {(0, 0): 1.0, (1, -1): SQRT_HALF * SQRT_HALF,
                              (1, 1): SQRT_HALF * SQRT_HALF}
    assert out == run_cli(capsys, *argv, "--init", "1,0")[1]  # -1 is a global phase
    # after a space, argparse reads the value as an option: exit 2, as documented
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--init", "-1,0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_dash_leading_eigenvalue_takes_the_equals_form(capsys):
    state = json.dumps(build_eigenstate_flipneg(-K, [(Quaternion(1), Quaternion(1))])
                       .state.to_json())
    code, out, err = run_cli(capsys, "eigen-check", "--coin", "flip-neg",
                             "--state", state, "--eigenvalue=-k")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["pass"] is True and report["max_residual"] <= 1e-12


#: Address-space cap for the huge-window child: a few times what the
#: interpreter needs, far below the 16 GB an unbounded window asks for.
CHILD_AS_LIMIT = 256 * 2 ** 20


#: The CLI in a child process, importing the package under test.
CHILD_CLI = [sys.executable, "-c", "import sys; from qqwalk.cli import main; "
                                   "sys.exit(main(sys.argv[1:]))"]
CHILD_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qqwalk.__file__))}


def _cli_in_capped_child(*argv) -> subprocess.CompletedProcess:
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_LIMIT, CHILD_AS_LIMIT))

    return subprocess.run([*CHILD_CLI, *argv], preexec_fn=cap, capture_output=True,
                          text=True, timeout=60, env=CHILD_ENV)


@pytest.mark.parametrize("measure", [
    {"kind": "finite", "values": [1]},
    {"kind": "finite", "offset": -3, "values": [0.5, 0, 0.5, 1, 0.5, 0, 0.5]},
    {"kind": "finite", "offset": 10 ** 9, "values": [1, 2]},
    {"kind": "periodic", "values": [1, 2]},
])
def test_classify_huge_window_is_bounded_by_the_support(measure):
    # Outside its support a finite measure is 0, so a window of 10^9 sites,
    # or a support 10^9 sites out, must answer as a window of 8 sites does;
    # it runs in a child process under its own address-space cap and a
    # timeout, so that a scan that grows with either fails there.
    outs = []
    for window in ("8", "1000000000"):
        proc = _cli_in_capped_child("classify", "--measure", json.dumps(measure),
                                    "--window", window)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_dist_dead_options_are_gone(capsys):
    for flag, value in (("--seed", "1"), ("--tol", "1e-9")):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--coin", "hadamard", flag, value])
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("coin, init, digest", [
    ("example-ijk", SYMMETRIC_J_INIT,
     "be2bef0ae4a9f8f5c6cfd28f829b02ae22222698c2880df004ac7551f6973d28"),
    (RANDOM_COIN, RANDOM_INIT,
     "f7dad5192fe65665099b759a52c4b02b0df6c3736b2b394151170067d2945699"),
], ids=["example-ijk", "random-coin"])
def test_dist_csv_is_bit_identical_to_the_scalar_walk(capsys, coin, init, digest):
    # digests of the output of the Quaternion-by-Quaternion walk: any change
    # to a probability's last bit, or to the row layout, changes them
    code, out, _ = run_cli(capsys, "dist", "--coin", coin, "--init", init,
                           "--steps", "200", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_non_finite_coin_exits_3(capsys):
    for bad in ("NaN", "Infinity"):
        coin = ('{"a":[1,0,0,0],"b":[0,0,0,0],"c":[0,0,0,0],"d":[%s,0,0,0]}' % bad)
        code, out, err = run_cli(capsys, "xi", "--coin", coin,
                                 "-n", "2", "-l", "1", "-m", "1")
        assert code == 3
        assert out == "" and "non-unitary" in err


def test_tol_must_be_finite_and_nonnegative(capsys):
    commands = (["xi", "--coin", "hadamard", "-n", "4", "-l", "3", "-m", "1",
                 "--mode", "decompose"],
                ["verify", "--suite", "pqrs"],
                ["classify", "--measure", '{"kind":"finite","values":[1]}'],
                ["eigen-check", "--coin", "flip", "--eigenvalue", "1", "--state",
                 '{"kind":"periodic","amplitudes":[[[1,0,0,0],[1,0,0,0]]]}'])
    for argv in commands:
        for bad in ("nan", "inf", "-1e-9"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--tol", bad])
            assert exc.value.code == 2
            assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("suite, tol, count", [("pqrs", "1e-16", 4), ("all", "0", 13)])
def test_tight_verify_tol_fails_reports_instead_of_raising(capsys, suite, tol, count):
    # residuals of a few ulps fail a tol below them: exit 1 with every report
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", "0", "--tol", tol)
    assert code == 1 and err == ""
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == count
    failed = {r["check"] for r in reports if not r["pass"]}
    assert {"word-reduction-oracle", "pqrs-round-trip"} <= failed


@pytest.mark.parametrize("coin, n, l, mode, digest", [
    ("example-ijk", 12, 6, "brute",
     "0c04be08ff90b935bfe61617e0e2c3a373ac301b73a5203d045c5d9577722efb"),
    ("example-ijk", 12, 6, "reduced",
     "7584a1be19d1ca969b45c55b9d29bcde0dc05bd7c9ab2585256404f08af979c0"),
    ("example-ijk", 12, 3, "brute",
     "e25ee2ec624d895bb02785a3777331301fabcbc183709ffba4fe34d48b21887d"),
    ("example-ijk", 12, 3, "reduced",
     "5aa18649fabae8d6dc52912b6ffb96839ea92ee8a0aa6b8a598bd80e4dbb1318"),
    (RANDOM_COIN, 12, 6, "brute",
     "f060e3bed7c0db59b82495f644c3a223d57ba0d859cb952697e5aee7a09e3007"),
    (RANDOM_COIN, 12, 6, "reduced",
     "f78739635355d6849199fec9417dcfa45ab12c797442c47a8ae4d99c60ce6e8e"),
    (RANDOM_COIN, 12, 3, "brute",
     "a39e215f8b5a60f41e55a9ce70035bf57f9f61a43957d7bdee01ee630208fae7"),
    (RANDOM_COIN, 12, 3, "reduced",
     "bdf0461d11b51876dfcd67957cfb9e97726b282e92044e6f93dc8ab77aa506a1"),
    # real entries give exact zeros, where a zero of the wrong sign would show
    ("hadamard", 12, 9, "brute",
     "bca6f15cfcc81a45812820b7b04a21cf99a464072bbdfdd2b48606cbbec84012"),
    ("hadamard", 12, 9, "reduced",
     "3b90cef03ef3e275de25eabd82518b93c308b72a6138899aab9e86858fcfecf8"),
    # every word of flip at l = 0 or 12 is zero, so only the signs of its
    # zeros show, and a total of one row starts with no word at all
    ("flip", 12, 0, "brute",
     "a330f5c3484145d3042d3c4f6449df7f6e82b88c21b19cbc92469e85c6c952dd"),
    ("flip", 12, 0, "reduced",
     "a330f5c3484145d3042d3c4f6449df7f6e82b88c21b19cbc92469e85c6c952dd"),
    ("flip", 12, 12, "brute",
     "a330f5c3484145d3042d3c4f6449df7f6e82b88c21b19cbc92469e85c6c952dd"),
    ("flip", 12, 12, "reduced",
     "a330f5c3484145d3042d3c4f6449df7f6e82b88c21b19cbc92469e85c6c952dd"),
    # hadamard with its zero components written -0.0
    (NEG_ZERO_HADAMARD, 12, 6, "brute",
     "25b59550972a4d7ddce3ca8a77e16bbe668655b6788644414209f52f4affa1ed"),
    (NEG_ZERO_HADAMARD, 12, 6, "reduced",
     "b3aa0eadb00e08ac19582dc97a5272bb8ed25b8fe75d8c5866cac7434cff8a0e"),
    # at n = 14 and l in {0, 1, 13, 14} each word's fold is a forced tail
    # from its first letter or from its one P or Q
    (RANDOM_COIN, 14, 0, "brute",
     "12cfec7b7093012559f0998fefe7b07404aa1440592b652f74e54ebe3db5b32d"),
    (RANDOM_COIN, 14, 0, "reduced",
     "12cfec7b7093012559f0998fefe7b07404aa1440592b652f74e54ebe3db5b32d"),
    (RANDOM_COIN, 14, 1, "brute",
     "f47ec618cfdf893d1ee20241e9b5d6cadf101517e68fc4b0cb9613a31b504623"),
    (RANDOM_COIN, 14, 1, "reduced",
     "28b81e83054c487e585a708b4fce77f1be40c2041965e452d8fea69e4e4a238a"),
    (RANDOM_COIN, 14, 13, "brute",
     "87cfda14e161b3f3a21c96d93a90558cd7d12e5a0897f3230ca4ea17477de27b"),
    (RANDOM_COIN, 14, 13, "reduced",
     "5b9b1ef1a55fad33195d065d526ef42d77e91971bb7d0bf2cc7885e815f45cc9"),
    (RANDOM_COIN, 14, 14, "brute",
     "091fce676a73a94805bcb8e0dbb8bd3c59ec125c10cce7009c1694a5d96fa7c8"),
    (RANDOM_COIN, 14, 14, "reduced",
     "091fce676a73a94805bcb8e0dbb8bd3c59ec125c10cce7009c1694a5d96fa7c8"),
    (NEG_ZERO_HADAMARD, 14, 0, "brute",
     "0a60bc5b7460a8183a053574a8d7e1f32b844392387a4416cfff1921f8dd5a23"),
    (NEG_ZERO_HADAMARD, 14, 0, "reduced",
     "0a60bc5b7460a8183a053574a8d7e1f32b844392387a4416cfff1921f8dd5a23"),
    (NEG_ZERO_HADAMARD, 14, 1, "brute",
     "c12ca77d19219a02bb723aed3e32741c8a5adc9b41f8a4eba189a4312e85e45f"),
    (NEG_ZERO_HADAMARD, 14, 1, "reduced",
     "50eaa70332814edad3c87d3ee0a0a3136f6c20916ceaebaf6b600e268b9ac1fb"),
    (NEG_ZERO_HADAMARD, 14, 13, "brute",
     "276159c39686d7aa71c93dff5aec5b7a436533abcd215549f71e87c05b467a18"),
    (NEG_ZERO_HADAMARD, 14, 13, "reduced",
     "66090d0ae64854ec90beb1eea08d29240c277e7e652d602e0880c962f29a3a83"),
    (NEG_ZERO_HADAMARD, 14, 14, "brute",
     "638ddede0da2b9ac990c26b8b2381c3b273d3b4815d4b271b584f807d501b81f"),
    (NEG_ZERO_HADAMARD, 14, 14, "reduced",
     "638ddede0da2b9ac990c26b8b2381c3b273d3b4815d4b271b584f807d501b81f"),
], ids=["example-ijk-6-brute", "example-ijk-6-reduced", "example-ijk-3-brute",
        "example-ijk-3-reduced", "random-coin-6-brute", "random-coin-6-reduced",
        "random-coin-3-brute", "random-coin-3-reduced", "hadamard-9-brute",
        "hadamard-9-reduced", "flip-0-brute", "flip-0-reduced", "flip-12-brute",
        "flip-12-reduced", "neg-zero-hadamard-6-brute", "neg-zero-hadamard-6-reduced",
        "random-coin-14-0-brute", "random-coin-14-0-reduced", "random-coin-14-1-brute",
        "random-coin-14-1-reduced", "random-coin-14-13-brute", "random-coin-14-13-reduced",
        "random-coin-14-14-brute", "random-coin-14-14-reduced",
        "neg-zero-hadamard-14-0-brute", "neg-zero-hadamard-14-0-reduced",
        "neg-zero-hadamard-14-1-brute", "neg-zero-hadamard-14-1-reduced",
        "neg-zero-hadamard-14-13-brute", "neg-zero-hadamard-14-13-reduced",
        "neg-zero-hadamard-14-14-brute", "neg-zero-hadamard-14-14-reduced"])
def test_xi_oracles_are_bit_identical_to_word_by_word_folds(capsys, coin, n, l, mode, digest):
    # digests of the output of the oracles folding each word on its own
    code, out, _ = run_cli(capsys, "xi", "--coin", coin, "-n", str(n), "-l", str(l),
                           "-m", str(n - l), "--mode", mode)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed, digest", [
    (0, "3f011c322375247347d899a5211171fa3ac0d2d000d93e585672caa6e7a2fd7a"),
    (1, "e319923eceb050247ff1d265e80927fe71f7e3a42d24f007dbb870239bdd8fc9"),
    (7, "69ff0b3981c94d84e7349736092df951dacc79f4bbc313f7a39b0a6d53839aa5"),
    (42, "d5a9cd09fd8441a595b74258680bd8feb8509cf288a6aa4b7cef4227c8d57776"),
])
def test_verify_reports_are_byte_stable(capsys, seed, digest):
    # every residual keeps its last bit; the b0-two-step-uniformity line
    # reports the worst measure spread of its invariant states
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["classify", "--measure", '{"kind":"finite","values":5}'],
    ["classify", "--measure", '{"kind":"finite","values":[1,2],"offset":null}'],
    ["classify", "--measure", '{"kind":"periodic","values":[1,null]}'],
    ["eigen-check", "--coin", "flip", "--eigenvalue", "1",
     "--state", '{"kind":"periodic","amplitudes":[1]}'],
    ["eigen-check", "--coin", "flip", "--eigenvalue", "1",
     "--state", '{"kind":"periodic","period":null,"amplitudes":[[[1,0,0,0],[1,0,0,0]]]}'],
    ["eigen-check", "--coin", "flip", "--eigenvalue", "1",
     "--state", '{"kind":"finite","offset":[0],"amplitudes":[[[1,0,0,0],[1,0,0,0]]]}'],
    ["xi", "--coin", '{"a":[1,0,0,null],"b":[0,0,0,0],"c":[0,0,0,0],"d":[1,0,0,0]}',
     "-n", "2", "-l", "1", "-m", "1"],
    ["dist", "--coin", "hadamard", "--init", "[[1,0,0,null],[0,0,0,0]]"],
    ["dist", "--coin", "hadamard", "--init", "[[1,0,0,1%s],[0,0,0,0]]" % ("0" * 400)],
    ["classify", "--measure", '{"kind":"finite","values":[1%s]}' % ("0" * 400)],
    ["classify", "--measure", '{"kind":"finite","values":[1,2],"offset":-1.5}'],
    ["classify", "--measure", '{"kind":"finite","values":[1,2],"offset":"-1"}'],
    ["classify", "--measure", '{"kind":"finite","values":[1,"2"]}'],
    ["classify", "--measure", '{"kind":"periodic","values":[1,true]}'],
    ["eigen-check", "--coin", "flip", "--eigenvalue", "1",
     "--state", '{"kind":"periodic","period":2.5,"amplitudes":'
                '[[[1,0,0,0],[1,0,0,0]],[[1,0,0,0],[1,0,0,0]]]}'],
    ["xi", "--coin", '{"a":[true,0,0,0],"b":[0,0,0,0],"c":[0,0,0,0],"d":[1,0,0,0]}',
     "-n", "2", "-l", "1", "-m", "1"],
    ["dist", "--coin", "hadamard", "--init", '[[1,0,0,"0"],[0,0,0,0]]'],
    ["classify", "--measure", '{"kind":"periodic","period":5,"values":[1,2]}'],
    ["eigen-check", "--coin", "flip", "--eigenvalue", "1",
     "--state", '{"kind":"periodic","period":1}'],
    ["dist", "--coin", "hadamard", "--init", "1,0,0"],
    ["dist", "--coin", "hadamard", "--init", ","],
    ["dist", "--coin", "hadamard", "--init", "[[1,0,0,0]]"],
], ids=["measure-values-not-array", "measure-offset-null", "measure-value-null",
        "state-pair-not-array", "state-period-null", "state-offset-array",
        "coin-component-null", "spinor-component-null", "spinor-component-huge",
        "measure-value-huge", "measure-offset-fractional", "measure-offset-string",
        "measure-value-string", "measure-value-boolean", "state-period-fractional",
        "coin-component-boolean", "spinor-component-string", "measure-period-mismatch",
        "state-amplitudes-missing", "spinor-text-three-parts", "spinor-text-empty-parts",
        "spinor-json-one-entry"])
def test_malformed_json_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "invalid configuration" in err


@pytest.mark.parametrize("config", [
    {"coin": "hadamard", "steps": None},
    {"coin": 5},
    {"coin": "hadamard", "init": 7},
    {"coin": "hadamard", "steps": 1e400},
    {"coin": "hadamard", "steps": 2.9},
    {"coin": "hadamard", "steps": True},
    {"coin": "hadamard", "steps": "3"},
    {"coin": "hadamard", "stepz": 3},
    {"coin": "hadamard", "format": "json"},
], ids=["steps-null", "coin-number", "init-number", "steps-infinite",
        "steps-fractional", "steps-boolean", "steps-string", "unknown-key-stepz",
        "unknown-key-format"])
def test_malformed_config_file_exits_2(capsys, tmp_path, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "dist", "--config", str(path))
    assert code == 2
    assert out == "" and "invalid configuration" in err


def test_unknown_config_keys_are_named_with_the_known_ones(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"coin": "hadamard", "stepz": 3, "format": "json"}))
    code, out, err = run_cli(capsys, "dist", "--config", str(path))
    assert code == 2 and out == ""
    assert "format, stepz" in err and "coin, init, steps, output" in err


@pytest.mark.parametrize("coin, init, digest", [
    ("example-ijk", SYMMETRIC_J_INIT,
     "9d893d43729463a73c8eba9be38f3fa93452fff76ff618104ed7993bdc856ce2"),
    (RANDOM_COIN, RANDOM_INIT,
     "7a33b935306a4f60281858e52a12dffa7653c025a2a70b088e356e2e9c42a929"),
], ids=["example-ijk", "random-coin"])
def test_dist_json_is_bit_identical_to_the_scalar_walk(capsys, coin, init, digest):
    # digests of the JSON writer that sorted each step's sites itself: a
    # reordered site or a changed last bit of a probability changes them
    code, out, _ = run_cli(capsys, "dist", "--coin", coin, "--init", init,
                           "--steps", "200", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


DEEP_JSON = "[" * 100000


@pytest.mark.parametrize("argv", [
    ["classify", "--measure", DEEP_JSON],
    ["xi", "--coin", DEEP_JSON, "-n", "2", "-l", "1", "-m", "1"],
    ["eigen-check", "--coin", "flip", "--eigenvalue", "1", "--state", DEEP_JSON],
    ["dist", "--coin", "hadamard", "--init", DEEP_JSON],
    ["dist", "--config", "run.json"],
], ids=["measure", "coin", "state", "init", "config"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(DEEP_JSON)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "invalid configuration" in err


@pytest.mark.parametrize("mode", ["brute", "reduced"])
def test_xi_tol_is_rejected_outside_decompose(capsys, mode):
    code, out, err = run_cli(capsys, "xi", "--coin", "hadamard", "-n", "3", "-l", "1",
                             "-m", "2", "--mode", mode, "--tol", "1e-10")
    assert code == 2
    assert out == "" and "--tol applies only to --mode decompose" in err


def test_xi_decompose_residual_above_tol_exits_1_with_output(capsys):
    argv = ("xi", "--coin", "example-ijk", "-n", "6", "-l", "3", "-m", "3",
            "--mode", "decompose")
    code, passing, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, "--tol", "0")
    assert code == 1
    assert out == passing
    assert len(err.splitlines()) == 1 and "exceeds --tol 0.0" in err


def test_reused_parser_carries_nothing_between_calls(capsys):
    # main builds its parser once per process; _cmd_xi tells a user --tol from
    # the default by identity, so a parse must not leave the last --tol behind
    assert build_parser() is build_parser()
    split = ("xi", "--coin", "hadamard", "-n", "4", "-l", "1", "-m", "3")
    assert run_cli(capsys, *split, "--mode", "decompose", "--tol", "0.5")[0] == 0
    code, out, err = run_cli(capsys, *split, "--mode", "brute")
    assert code == 0 and err == ""
    assert json.loads(out) == path_sum_bruteforce(preset_coin("hadamard"), 4, 1, 3).to_json()

    code, before, err = run_cli(capsys, "verify", "--suite", "unitary", "--seed", "3")
    assert code == 0 and err == ""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "unitary", "--seed", "x", "--tol", "0.5"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "verify", "--suite", "unitary", "--seed", "3") == (0, before, "")


def test_mistyped_preset_lists_the_presets(capsys):
    code, out, err = run_cli(capsys, "xi", "--coin", "hadamrd", "-n", "2", "-l", "1",
                             "-m", "1")
    assert code == 2 and out == ""
    for name in ("hadamard", "example-ijk", "flip", "flip-neg"):
        assert name in err


def test_closed_stdout_exits_141_without_a_message():
    # 300 steps of CSV fill any pipe buffer, so the child is still writing
    # when the reader leaves after the header
    proc = subprocess.Popen([*CHILD_CLI, "dist", "--coin", "hadamard", "--init", "1,0",
                             "--steps", "300"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=CHILD_ENV)
    try:
        assert proc.stdout.readline() == b"n,x,probability\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert err == b""


#: The CLI in a child process that lists every module it loaded on stderr.
CHILD_MODULES = [sys.executable, "-c", "import sys; from qqwalk.cli import main; "
                                       "code = main(sys.argv[1:]); "
                                       "print(*sys.modules, file=sys.stderr); sys.exit(code)"]


#: Standard modules that no subcommand needs: only a fitted ``classify`` loads ``statistics``.
UNUSED_STDLIB = ["dataclasses", "inspect", "statistics"]


@pytest.mark.parametrize("argv, loaded, absent", [
    (["dist", "--coin", "hadamard", "--init", "1,0", "--steps", "3"], [],
     ["qqwalk.pathsum", "qqwalk.stationary", "qqwalk.verify", *UNUSED_STDLIB]),
    (["xi", "--coin", "hadamard", "-n", "4", "-l", "2", "-m", "2", "--mode", "brute"],
     ["qqwalk.pathsum"], ["qqwalk.stationary", "qqwalk.verify", *UNUSED_STDLIB]),
    (["eigen-check", "--coin", "flip", "--eigenvalue", "1",
      "--state", '{"kind":"periodic","amplitudes":[[[1,0,0,0],[1,0,0,0]]]}'],
     ["qqwalk.stationary"], ["qqwalk.verify", *UNUSED_STDLIB]),
    (["verify", "--suite", "all", "--seed", "0"], ["qqwalk.verify"], UNUSED_STDLIB),
    (["classify", "--measure", '{"kind":"periodic","values":[1,2]}'], ["qqwalk.stationary"],
     ["qqwalk.verify", *UNUSED_STDLIB]),
], ids=["dist", "xi-brute", "eigen-check", "verify", "classify-periodic"])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, loaded, absent):
    proc = subprocess.run([*CHILD_MODULES, *argv], capture_output=True, text=True,
                          timeout=60, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = set(proc.stderr.split())
    assert set(loaded) <= modules
    assert not modules & set(absent)


def test_bare_import_loads_no_submodule_until_one_is_named():
    code = ("import sys, qqwalk; "
            "before = sorted(m for m in sys.modules if m.startswith('qqwalk')); "
            "print(before, qqwalk.pathsum.__name__, qqwalk.path_sum.__module__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=CHILD_ENV)
    assert proc.stdout == "['qqwalk'] qqwalk.pathsum qqwalk.pathsum\n", proc.stderr[-2000:]


def test_walk_kernels_are_compiled_on_first_use_not_at_import():
    code = ("from qqwalk import cli, verify, walk; n = len(walk._KERNELS); "
            "cli.main(['dist', '--coin', 'flip', '--init', '1,0', '--steps', '1']); "
            "print(n, len(walk._KERNELS))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=CHILD_ENV)
    assert proc.stdout.splitlines()[-1] == "0 1", proc.stderr[-2000:]


class BlockProbe(io.TextIOBase):
    """A stdout sink that keeps the most live blocks seen at any write."""

    peak = 0

    def write(self, text):
        self.peak = max(self.peak, sys.getallocatedblocks())
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dist_holds_one_step_at_a_time(fmt):
    # dist writes each step as it is measured, so a held series (and its
    # JSON copy) is alive at the first write already
    start = sys.getallocatedblocks()
    sink = BlockProbe()
    with contextlib.redirect_stdout(sink):
        assert main(["dist", "--coin", "hadamard", "--init", "1,0",
                     "--steps", str(TRACED_STEPS), "--format", fmt]) == 0
    assert sink.peak - start < HELD_BLOCKS
