"""Mutants that the bit-identity and contract tests must kill.

Each row names a file under ``src/qqwalk``, an exact piece of its text, a
replacement, and the tests that must fail once the replacement is made.
For each row the script copies ``src/`` to a temporary directory, applies
the edit there, and runs those tests with ``PYTHONPATH`` on the copy; the
working tree is never edited.  Up to four rows run at a time, each on its
own copy, in a pytest process that loads no installed plugin but
hypothesis's.  First it runs every named test on an unedited copy, which must
pass, and it checks that ``qqwalk`` is imported from the copy, not from an
installed package.

A row whose old text does not occur exactly once fails the script, so a
refactor that moves a mutated line must update its row.  A mutant
survives when any of its tests passes; the script then exits 1.

Run it from anywhere, with pytest, hypothesis and numpy installed:

    python tests/mutants.py

It is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A pytest plugin, written next to each copy, with a hypothesis profile that
# does not shrink: a killed mutant needs one failing example, not the least.
PLUGIN = """from hypothesis import Phase, settings
settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate))
"""

#: The source check of the rule that every tuple is built at its final size.
TUPLE_RULE = "tests/test_package.py::test_no_tuple_is_built_from_an_iterator"

# (file under src/qqwalk, exact old text, new text, test node ids that must fail)
MUTANTS = [
    ("walk.py",  # _row_sum: a coin row's two products summed as one, not added as two
     'return " + ".join([f"({group})" for group in groups])',
     'return " + ".join(groups)',
     ["tests/test_walk.py::test_coin_rows_are_bit_identical_to_the_scalar_product"]),
    ("walk.py",  # _HAMILTON: the x component's second and third terms swapped
     '(("+", 0, 1), ("+", 1, 0), ("+", 2, 3), ("-", 3, 2)),',
     '(("+", 0, 1), ("+", 2, 3), ("+", 1, 0), ("-", 3, 2)),',
     ["tests/test_walk.py::test_coin_rows_are_bit_identical_to_the_scalar_product"]),
    ("walk.py",  # _kernel: a component of a zero coin float kept at the sparse sum's sign of zero
     'else f"{half}{name} = {kept} or {fallback}")',
     'else f"{half}{name} = {kept}")',
     ["tests/test_walk.py::test_coin_rows_are_bit_identical_to_the_scalar_product"]),
    ("walk.py",  # _kernel: the full sum recomputed for a +0.0 kept sum, and a -0.0 one kept
     "copysign(1.0, {kept}) < 0.0 else 0.0)",
     "copysign(1.0, {kept}) > 0.0 else -0.0)",
     ["tests/test_walk.py::test_coin_rows_are_bit_identical_to_the_scalar_product"]),
    ("walk.py",  # _HAMILTON: the sign of the w component's x term flipped
     '((("+", 0, 0), ("-", 1, 1), ("-", 2, 2), ("-", 3, 3)),',
     '((("+", 0, 0), ("+", 1, 1), ("-", 2, 2), ("-", 3, 3)),',
     ["tests/test_exact_oracle.py::"
      "test_float_laws_match_the_exact_laws_on_rational_coins[quaternion]"]),
    ("walk.py",  # _chain: a chain with an infinite or NaN amplitude steps on its sparse kernel
     "zeros = coin.flat_zeros if sum(weights) < math.inf else _DENSE",
     "zeros = coin.flat_zeros",
     ["tests/test_walk.py::test_non_finite_amplitudes_step_as_the_scalar_product[hadamard]",
      "tests/test_walk.py::test_non_finite_amplitudes_step_as_the_scalar_product[b0]"]),
    ("walk.py",  # the kernel template: a chain's far end padded with a -0.0 half
     "sites.append((0.0, 0.0, 0.0, 0.0, pw, px, py, pz))",
     "sites.append((-0.0, 0.0, 0.0, 0.0, pw, px, py, pz))",
     ["tests/test_walk.py::test_flat_walk_is_bit_identical_to_the_scalar_walk[real]"]),
    ("walk.py",  # _closed: a closed chain's first site keeps only its upper half's weight
     "weights[0] += weights.pop()",
     "weights.pop()",
     ["tests/test_walk.py::test_flat_walk_is_bit_identical_to_the_scalar_walk[real]"]),
    ("walk.py",  # FiniteSupportState.evolve: a dense window's even and odd chains swapped
     "_merge(_chain(coin, s[::2], w),\n"
     "                                                  _chain(coin, s[1::2], w))",
     "_merge(_chain(coin, s[1::2], w),\n"
     "                                                  _chain(coin, s[::2], w))",
     ["tests/test_walk.py::test_flat_walk_is_bit_identical_to_the_scalar_walk[real]"]),
    ("walk.py",  # PeriodicState.evolve: a period-1 chain stepped open, its overflow site kept
     "state._sites, state._weights = _closed(coin, s, w)",
     "state._sites, state._weights = _chain(coin, s, w)",
     ["tests/test_walk.py::test_flat_walk_is_bit_identical_to_the_scalar_walk[real]"]),
    ("walk.py",  # _open_chain: each step's first site one to the right
     "yield -t, weights",
     "yield 1 - t, weights",
     ["tests/test_walk.py::test_site_weights_are_the_stored_weights_of_the_walk[hadamard]"]),
    ("stationary.py",  # stationary_residual: each step compared with the step before
     "deviations.extend(map(abs, map(sub, weights, values)))",
     "deviations.extend(map(abs, map(sub, weights, values)))\n        values = weights",
     ["tests/test_stationary.py::"
      "test_stationary_residual_keeps_the_bits_of_the_per_step_measure_fold[quaternion]"]),
    ("stationary.py",  # stationary_residual: a step with an infinite weight sum let through
     "if not 0.0 < sum(weights) < math.inf:",
     "if not 0.0 < sum(weights):",
     ["tests/test_stationary.py::test_a_step_whose_weights_the_measure_rejects_raises[overflow]"]),
    ("walk.py",  # FiniteSupportState: a one-site state stored dense, its dead sites computed
     "self.stride = 2 if len(self._sites) == 1 else 1",
     "self.stride = 1",
     ["tests/test_walk.py::test_point_started_walks_step_only_their_live_sites"]),
    ("walk.py",  # FiniteSupportState.amplitude: a site between two stored ones reads a neighbour
     "_pair(self._sites[idx]) if not off and 0 <= idx",
     "_pair(self._sites[idx]) if 0 <= idx",
     ["tests/test_walk.py::test_flat_walk_is_bit_identical_to_the_scalar_walk[real]"]),
    ("coin.py",  # _matmul: the same regrouping in the flat 2x2 kernel
     "return ((aw * ew - ax * ex - ay * ey - az * ez) + (bw * gw - bx * gx - by * gy - bz * gz),",
     "return (aw * ew - ax * ex - ay * ey - az * ez + bw * gw - bx * gx - by * gy - bz * gz,",
     ["tests/test_coin.py::test_flat_kernel_is_bit_identical_to_the_scalar_operators"]),
    ("coin.py",  # _max_dev: the builtin max drops a NaN that is not first
     "return max_or_nan([abs(x - y) for x, y in zip(m, n)])",
     "return max([abs(x - y) for x, y in zip(m, n)])",
     ["tests/test_coin.py::test_flat_max_dev_is_nan_wherever_the_nan_sits"]),
    ("pathsum.py",  # _right_product, both oracles' step: the real part summed as w - (x + y + z)
     "return (cw * ew - cx * ex - cy * ey - cz * ez,",
     "return (cw * ew - (cx * ex + cy * ey + cz * ez),",
     ["tests/test_pathsum.py::test_oracles_are_bit_identical_to_word_by_word_folds"]),
    ("coin.py",  # _flat: a tuple sized by resizing, outside the tuple free list
     "return (matrix.e11.components() + matrix.e12.components()\n"
     "            + matrix.e21.components() + matrix.e22.components())",
     "return tuple(c for e in (matrix.e11, matrix.e12, matrix.e21, matrix.e22)\n"
     "                 for c in e.components())",
     ["tests/test_pathsum.py::test_decompose_keeps_no_blocks_across_calls"]),
    ("walk.py",  # _flatten: a nonzero state judged by weights, which underflow
     "if not any(map(any, sites)):",
     "if not any(_weights(sites)):",
     ["tests/test_walk.py::test_tiny_amplitudes_are_not_zero"]),
    ("pathsum.py",  # _leaf_rows: the real part summed as w - (x + y + z)
     "return (uw * ew - ux * ex - uy * ey - uz * ez,",
     "return (uw * ew - (ux * ex + uy * ey + uz * ez),",
     ["tests/test_pathsum.py::test_oracles_are_bit_identical_to_word_by_word_folds"]),
    ("pathsum.py",  # _half_steps: brute force takes its after-Q entries from the P row
     '"Q": (_right_product(*flat[8:12]), _right_product(*flat[12:16]))',
     '"Q": (_right_product(*flat[0:4]), _right_product(*flat[4:8]))',
     ["tests/test_pathsum.py::test_oracles_are_bit_identical_to_word_by_word_folds"]),
    ("pathsum.py",  # _folds: a forced Q tail after a P starts with the Q->Q step
     "folded = after[last][1](folded)",
     "folded = q_to_q(folded)",
     ["tests/test_pathsum.py::test_oracles_are_bit_identical_to_word_by_word_folds"]),
    ("pathsum.py",  # _folds: the P root's words one Q short (the root guard still holds)
     "(l - 1, n - l)",
     "(l - 1, n - l - 1)",
     ["tests/test_pathsum.py::test_oracles_are_bit_identical_to_word_by_word_folds"]),
    ("pathsum.py",  # path_sum_bruteforce: a row total started at -0.0 keeps it with no words
     "sw = sx = sy = sz = tw = tx = ty = tz = 0.0",
     "sw = sx = sy = sz = tw = tx = ty = tz = -0.0",
     ["tests/test_cli.py::test_xi_oracles_are_bit_identical_to_word_by_word_folds[flip-0-brute]"]),
    ("coin.py",  # _lmul: the real part of q * a summed as w - (x + y + z)
     "return (qw * aw - qx * ax - qy * ay - qz * az,",
     "return (qw * aw - (qx * ax + qy * ay + qz * az),",
     ["tests/test_coin.py::test_flat_kernel_is_bit_identical_to_the_scalar_operators"]),
    ("coin.py",  # _unitarity_residual: U U* measured, U* U dropped
     "zip(_matmul(m, adj) + _matmul(adj, m),",
     "zip(_matmul(m, adj),",
     ["tests/test_coin.py::test_one_pass_unitarity_residual_keeps_the_bits_of_the_nested_one"]),
    ("pathsum.py",  # path_sums: splits read from site -n up, so l and n - l swap
     "for x in range(n, -n - 1, -2)",
     "for x in range(-n, n + 1, 2)",
     ["tests/test_pathsum.py::test_path_sums_match_the_bruteforce_oracle_at_every_split[hadamard]",
      "tests/test_pathsum.py::test_path_sums_keep_the_bits_of_one_walk_per_split[example-ijk]"]),
    ("stationary.py",  # _fit_exponential_side: an unresolved slope taken as a class
     "if residual > EXP_FIT_TOL or abs(slope) * (xs[-1] - xs[0]) <= EXP_FIT_TOL:",
     "if residual > EXP_FIT_TOL:",
     ["tests/test_cli.py::test_classify_near_flat_measure_is_other[noise-order-1]"]),
    ("cli.py",  # verify imported at module level, so every dist process loads it
     "from .walk import PeriodicState",
     "from .verify import run_suites\nfrom .walk import PeriodicState",
     ["tests/test_cli.py::test_each_subcommand_loads_only_the_modules_it_runs[dist]"]),
    ("pathsum.py",  # a generated result class again, so xi loads dataclasses and inspect
     "import math\n",
     "import math\nfrom dataclasses import dataclass\n",
     ["tests/test_cli.py::test_each_subcommand_loads_only_the_modules_it_runs[xi-brute]"]),
    ("stationary.py",  # the fit from statistics again, imported at the top, so verify loads it
     "import math\n",
     "import math\nfrom statistics import linear_regression\n",
     ["tests/test_cli.py::test_each_subcommand_loads_only_the_modules_it_runs[verify]"]),
    ("stationary.py",  # path_sum imported at the top, so classify and eigen-check load pathsum
     "from .coin import Coin\n",
     "from .coin import Coin\nfrom .pathsum import path_sum\n",
     ["tests/test_cli.py::test_each_subcommand_loads_only_the_modules_it_runs[eigen-check]",
      "tests/test_cli.py::test_each_subcommand_loads_only_the_modules_it_runs[classify-fitted]"]),
    ("stationary.py",  # _least_squares: the slope's numerator taken uncentred
     "sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))",
     "sxy = math.fsum(x * y for x, y in zip(xs, ys)) - n * x_bar * y_bar",
     ["tests/test_cli.py::test_classify_prints_the_same_bits_on_every_python"]),
    ("stationary.py",  # _least_squares: the intercept taken from the sums, not the means
     "return slope, y_bar - slope * x_bar",
     "return slope, (math.fsum(ys) - slope * math.fsum(xs)) / n",
     ["tests/test_cli.py::test_classify_prints_the_same_bits_on_every_python"]),
    ("coin.py",  # random imported for the annotations, so every dist process loads it
     "import os\n",
     "import os\nfrom random import Random\n",
     ["tests/test_cli.py::test_each_subcommand_loads_only_the_modules_it_runs[dist-no-site]"]),
    ("__init__.py",  # the package imports a submodule eagerly again
     '__version__ = "0.1.0"',
     'from . import stationary\n\n__version__ = "0.1.0"',
     ["tests/test_cli.py::test_each_subcommand_loads_only_the_modules_it_runs[dist]"]),
    ("cli.py",  # main: a nesting too deep for the JSON parser escapes as a traceback
     "except (ValueError, KeyError, OSError, RecursionError) as exc:",
     "except (ValueError, KeyError, OSError) as exc:",
     ["tests/test_cli_fuzz.py::test_cli_contract_holds_for_drawn_argv"]),
    ("cli.py",  # dist: an Infinity in a CSV row
     'f"{head}{x},{p!r}"',
     'f"{head}{x},{p if p < 1.0 else math.inf!r}"',
     ["tests/test_cli_fuzz.py::test_cli_contract_holds_for_drawn_argv"]),
    ("cli.py",  # dist: a NaN in a JSON row
     'row = json.dumps({"n": n, "dist": {str(x): p for x, p in dist.items()}})',
     'row = json.dumps({"n": n, "dist": {str(x): p for x, p in dist.items()}, "x": math.nan})',
     ["tests/test_cli_fuzz.py::test_cli_contract_holds_for_drawn_argv"]),
    ("cli.py",  # xi brute/reduced: a NaN in the operator
     "print(json.dumps(xi.to_json()))",
     "print(json.dumps(xi.to_json() + [math.nan]))",
     ["tests/test_cli_fuzz.py::test_cli_contract_holds_for_drawn_argv"]),
    ("cli.py",  # xi decompose: an Infinity in a coefficient
     "print(json.dumps(deco.to_json()))",
     'print(json.dumps({**deco.to_json(), "p": [math.inf] * 4}))',
     ["tests/test_cli_fuzz.py::test_cli_contract_holds_for_drawn_argv"]),
    ("cli.py",  # verify: a NaN residual in each report
     "    for report in reports:\n        print(json.dumps(report))",
     '    for report in reports:\n        print(json.dumps({**report, "max_residual": math.nan}))',
     ["tests/test_cli_fuzz.py::test_cli_contract_holds_for_drawn_argv"]),
    ("cli.py",  # classify: an Infinity in the class
     "print(json.dumps(klass.to_json()))",
     'print(json.dumps({**klass.to_json(), "c": math.inf}))',
     ["tests/test_cli_fuzz.py::test_cli_contract_holds_for_drawn_argv"]),
    ("cli.py",  # dist: the whole series held in a list, not one step at a time
     "series = distributions(coin_from_spec(coin), _parse_spinor(init), steps)",
     "series = list(distributions(coin_from_spec(coin), _parse_spinor(init), steps))",
     ["tests/test_cli.py::test_dist_holds_one_step_at_a_time[csv]"]),
    ("cli.py",  # eigen-check: lambda normalized by a modulus that underflows to 0.0
     "lam = parse_quaternion(args.eigenvalue)\n",
     "lam = parse_quaternion(args.eigenvalue)\n    lam = lam / lam.norm()\n",
     ["tests/test_cli.py::test_eigen_check_tiny_eigenvalue_exits_2_naming_it[1e-200]"]),
    # each tuple below built from an iterator again: it fills a tuple free list
    ("walk.py",  # Measure
     "vals = tuple(list(map(float, values)))",
     "vals = tuple(map(float, values))",
     ["tests/test_walk.py::test_measure_keeps_no_blocks_across_calls", TUPLE_RULE]),
    ("walk.py",  # PeriodicState.pairs
     "tuple(list(map(_pair, self._sites)))",
     "tuple(map(_pair, self._sites))",
     ["tests/test_walk.py::test_pairs_keep_no_blocks_across_calls", TUPLE_RULE]),
    ("verify.py",  # _random_direction
     "q = Quaternion(*[rng.gauss(0.0, 1.0) for _ in range(4)])",
     "q = Quaternion(*(rng.gauss(0.0, 1.0) for _ in range(4)))",
     ["tests/test_verify.py::test_random_direction_keeps_no_blocks_across_calls", TUPLE_RULE]),
    ("verify.py",  # _random_b0_state
     "pairs = [(Quaternion(*[rng.gauss(0.0, 1.0) for _ in range(4)]),\n"
     "                  Quaternion(*[rng.gauss(0.0, 1.0) for _ in range(4)]))",
     "pairs = [(Quaternion(*(rng.gauss(0.0, 1.0) for _ in range(4))),\n"
     "                  Quaternion(*(rng.gauss(0.0, 1.0) for _ in range(4))))",
     ["tests/test_verify.py::test_random_b0_state_keeps_no_blocks_across_calls", TUPLE_RULE]),
    ("quaternion.py",  # Quaternion.from_json
     'return cls(*[_json_cast(float, v, "quaternion component") for v in data])',
     'return cls(*(_json_cast(float, v, "quaternion component") for v in data))',
     ["tests/test_quaternion.py::test_from_json_keeps_no_blocks_across_calls", TUPLE_RULE]),
    ("walk.py",  # Measure: finite values whose sum overflows rejected
     "sum(vals) > 0.0",
     "0.0 < sum(vals) < math.inf",
     ["tests/test_walk.py::test_state_measure_takes_weights_whose_sum_overflows"]),
    ("walk.py",  # Measure: a NaN sum let through
     "sum(vals) > 0.0",
     "not sum(vals) <= 0.0",
     ["tests/test_walk.py::test_measure_validation",
      "tests/test_walk.py::test_state_measure_rejects_weights_the_constructor_rejects[nan-second]"]),
    ("walk.py",  # distributions: the laws read on the dead parity
     "zip(count(first, 2), weights)",
     "zip(count(first + 1, 2), weights)",
     ["tests/test_walk.py::test_point_started_walks_are_zero_off_the_live_parity[hadamard]"]),
    ("verify.py",  # run_suites: all runs every registered suite, not its own five
     "for suite in _ALL for report in SUITES[suite]",
     "for suite in SUITES for report in SUITES[suite]",
     ["tests/test_verify.py::test_all_runs_its_five_suites_in_order_and_no_other"]),
    ("verify.py",  # suite_theorem1: the original walk's weights compared with themselves
     "devs.extend(map(abs, map(sub, wa, wb)))",
     "devs.extend(map(abs, map(sub, wa, wa)))",
     ["tests/test_cli.py::test_verify_reports_are_byte_stable[0-"
      "3f011c322375247347d899a5211171fa3ac0d2d000d93e585672caa6e7a2fd7a]"]),
    ("pathsum.py",  # path_sums: the columns zipped from a generator
     "columns = [[state.amplitude(x) for x in range(n, -n - 1, -2)] for state in walks]",
     "columns = ([state.amplitude(x) for x in range(n, -n - 1, -2)] for state in walks)",
     ["tests/test_pathsum.py::test_path_sums_keep_no_blocks_across_calls", TUPLE_RULE]),
    ("walk.py",  # Measure.max_dev: the other window's sites never read
     "sites = {*self.sites(), *other.sites()}",
     "sites = self.sites()",
     ["tests/test_walk.py::test_max_dev_equals_the_scan_from_the_lower_start_to_the_higher_end[disjoint]"]),
    ("walk.py",  # FiniteSupportState and Measure: a float or str offset truncated by int()
     "from operator import index",
     "index = int",
     ["tests/test_walk.py::test_offsets_are_integers[float-0.5]"]),
]


def _copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (dest / "mutants_profile.py").write_text(PLUGIN, encoding="utf-8")
    return dest / "src"


def _env(src: Path) -> dict:
    path = os.pathsep.join([str(src), str(src.parent)])  # the copy, then the plugin
    # no installed plugin is loaded unless ``_pytest`` names it: a row's process
    # starts in a fraction of the time
    return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1",
            "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}


def _check_import(src: Path, cwd: Path) -> None:
    where = subprocess.run([sys.executable, "-c", "import qqwalk; print(qqwalk.__file__)"],
                           env=_env(src), cwd=cwd, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).resolve().is_relative_to(src.resolve()):
        sys.exit(f"qqwalk is imported from {where.stdout.strip()}, not from the copy {src}")


def _pytest(src: Path, cwd: Path, node_ids: list[str]) -> tuple[int, str]:
    """Exit code and output of pytest on ``node_ids``, importing the copy at ``src``.

    The run starts in ``cwd``, a temporary directory, so hypothesis keeps
    its example database there and not in the checkout.
    """
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-p", "hypothesis.extra.pytestplugin", "-p", "mutants_profile",
            "--hypothesis-profile=mutants", "--hypothesis-seed=0",
            *(str(ROOT / node) for node in node_ids)]
    run = subprocess.run(argv, env=_env(src), cwd=cwd, capture_output=True, text=True)
    return run.returncode, run.stdout + run.stderr


def _run_mutant(row) -> tuple[int, str]:
    """Exit code and output of the row's tests on a copy of ``src/`` with its edit."""
    file, old, new, node_ids = row
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp) / "mutant")
        path = src / "qqwalk" / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        return _pytest(src, Path(tmp), node_ids)


def main() -> int:
    started = time.perf_counter()
    for file, old, _, _ in MUTANTS:
        count = (ROOT / "src" / "qqwalk" / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            sys.exit(f"mutant text occurs {count} times in {file}, not once: {old!r}")

    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp) / "unedited")
        _check_import(src, Path(tmp))
        node_ids = sorted({node for *_, nodes in MUTANTS for node in nodes})
        code, output = _pytest(src, Path(tmp), node_ids)
        if code != 0:
            print(output)
            sys.exit("the mutants' tests do not pass on the unedited copy")

    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        results = list(pool.map(_run_mutant, MUTANTS))
    survivors = 0
    for index, ((file, _, new, _), (code, output)) in enumerate(zip(MUTANTS, results)):
        summary = output.strip().splitlines()[-1] if output.strip() else ""
        killed = code == 1 and not re.search(r"\b\d+ passed\b", summary)
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED'} #{index} {file}: {new.strip()!r} ({summary})")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
