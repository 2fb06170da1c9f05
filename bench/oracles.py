"""Independent checks of the package's CLI output.

The oracles use numpy and the real 4x4 left-multiplication matrix of a
quaternion, never the package's own arithmetic.  Each ``check_*`` returns
``(ok, info)``; a deviation beyond the package's stated tolerances fails.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import VERIFY_CHECKS

#: Per-site probability tolerance of the golden distribution tests.
DIST_TOL = 1e-12
#: Tolerance on | sum_x P(X_n = x) - 1 | for every row (the package's NORM_TOL).
NORM_TOL = 1e-9
#: Componentwise tolerance on path-sum entries (the package's DEFAULT_TOL).
XI_TOL = 1e-10

_H = 1.0 / math.sqrt(2.0)
PRESETS = {
    "hadamard": [[_H, 0, 0, 0], [_H, 0, 0, 0], [_H, 0, 0, 0], [-_H, 0, 0, 0]],
    "example-ijk": [[_H, 0, 0, 0], [0, _H, 0, 0], [0, 0, _H, 0], [0, 0, 0, _H]],
}


def lmat(q) -> np.ndarray:
    """Real 4x4 matrix of left multiplication by ``q = w + xi + yj + zk``."""
    w, x, y, z = q
    return np.array([[w, -x, -y, -z],
                     [x, w, -z, y],
                     [y, z, w, -x],
                     [z, -y, x, w]], dtype=float)


def _entries(coin: str) -> list[np.ndarray]:
    """Coin entries a, b, c, d as 4-vectors from a preset name or inline JSON."""
    if coin in PRESETS:
        return [np.array(e, dtype=float) for e in PRESETS[coin]]
    data = json.loads(coin)
    return [np.array(data[k], dtype=float) for k in ("a", "b", "c", "d")]


def walk_distributions(coin: str, spinor, steps: int) -> np.ndarray:
    """P(X_t = x) for t = 0..steps, x = -steps..steps (column x + steps)."""
    a, b, c, d = (lmat(e) for e in _entries(coin))
    size = 2 * steps + 1
    left = np.zeros((size, 4))
    right = np.zeros((size, 4))
    left[steps], right[steps] = spinor
    probs = np.zeros((steps + 1, size))
    for t in range(steps + 1):
        probs[t] = (left ** 2).sum(axis=1) + (right ** 2).sum(axis=1)
        new_left = np.zeros_like(left)
        new_right = np.zeros_like(right)
        new_left[:-1] = left[1:] @ a.T + right[1:] @ b.T
        new_right[1:] = left[:-1] @ c.T + right[:-1] @ d.T
        left, right = new_left, new_right
    return probs


def check_dist(check: dict, rc, text: str) -> tuple[bool, dict]:
    """CSV rows against the oracle walk; every row (time step) must sum to 1."""
    steps = check["steps"]
    if rc != 0:
        return False, {"error": f"exit code {rc}"}
    lines = text.splitlines()
    if not lines or lines[0] != "n,x,probability":
        return False, {"error": "missing CSV header"}
    got = np.zeros((steps + 1, 2 * steps + 1))
    seen = set()
    try:
        for line in lines[1:]:
            n_text, x_text, p_text = line.split(",")
            n, x = int(n_text), int(x_text)
            if (n, x) in seen or not 0 <= n <= steps or abs(x) > n:
                return False, {"error": f"unexpected row {line!r}"}
            seen.add((n, x))
            got[n, x + steps] = float(p_text)
    except ValueError as exc:
        return False, {"error": f"malformed row: {exc}"}
    expected = walk_distributions(check["coin"], check["spinor"], steps)
    site_dev = float(np.abs(got - expected).max())
    drift = float(np.abs(got.sum(axis=1) - 1.0).max())
    ok = bool(site_dev <= DIST_TOL and drift <= NORM_TOL)
    return ok, {"max_site_dev": site_dev, "norm_drift": drift}


def _as_matrix(entries) -> np.ndarray:
    """8x8 real block matrix of a 2x2 quaternion matrix acting from the left."""
    out = np.zeros((8, 8))
    for i in range(2):
        for j in range(2):
            out[4 * i:4 * i + 4, 4 * j:4 * j + 4] = lmat(entries[i][j])
    return out


def path_sum(coin: str, n: int, l: int) -> np.ndarray:
    """Xi_n(l, m) by Xi_k(l, m) = P Xi_{k-1}(l-1, m) + Q Xi_{k-1}(l, m-1)."""
    a, b, c, d = _entries(coin)
    zero = np.zeros(4)
    p = _as_matrix([[a, b], [zero, zero]])
    q = _as_matrix([[zero, zero], [c, d]])
    m = n - l
    xi = {(0, 0): np.eye(8)}
    for _ in range(n):
        nxt = {}
        for (i, j) in {(i + 1, j) for i, j in xi} | {(i, j + 1) for i, j in xi}:
            if i > l or j > m:
                continue
            total = np.zeros((8, 8))
            if (i - 1, j) in xi:
                total += p @ xi[(i - 1, j)]
            if (i, j - 1) in xi:
                total += q @ xi[(i, j - 1)]
            nxt[(i, j)] = total
        xi = nxt
    return xi[(l, m)]


def _quaternion_entries(matrix: np.ndarray) -> list[list[np.ndarray]]:
    # the first column of L(q) is q itself
    return [[matrix[4 * i:4 * i + 4, 4 * j] for j in range(2)] for i in range(2)]


def _conj(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def check_xi(check: dict, rc, text: str) -> tuple[bool, dict]:
    """Path-sum matrix (brute, reduced) or its P/Q/R/S coefficients (decompose)."""
    if rc != 0:
        return False, {"error": f"exit code {rc}"}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return False, {"error": f"malformed JSON: {exc}"}
    (x11, x12), (x21, x22) = _quaternion_entries(
        path_sum(check["coin"], check["n"], check["l"]))
    try:
        if check["mode"] == "decompose":
            a, b, c, d = (_conj(e) for e in _entries(check["coin"]))
            expected = {"p": lmat(x11) @ a + lmat(x12) @ b,
                        "r": lmat(x11) @ c + lmat(x12) @ d,
                        "s": lmat(x21) @ a + lmat(x22) @ b,
                        "q": lmat(x21) @ c + lmat(x22) @ d}
            dev = max(float(np.abs(np.array(data[k], dtype=float) - v).max())
                      for k, v in expected.items())
        else:
            got = np.array(data, dtype=float)
            if got.shape != (2, 2, 4):
                return False, {"error": f"matrix of shape {got.shape}"}
            dev = float(np.abs(got - np.array([[x11, x12], [x21, x22]])).max())
    except (KeyError, TypeError, ValueError) as exc:
        return False, {"error": f"unexpected output: {exc}"}
    return bool(dev <= XI_TOL), {"max_entry_dev": dev}


def check_verify(check: dict, rc, text: str) -> tuple[bool, dict]:
    """Every report passes, within its tolerance, and each expected check is present."""
    if rc != 0:
        return False, {"error": f"exit code {rc}"}
    try:
        reports = [json.loads(line) for line in text.splitlines() if line.strip()]
        names = [r["check"] for r in reports]
        failing = [r["check"] for r in reports
                   if r["pass"] is not True or not r["max_residual"] <= r["params"]["tol"]]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return False, {"error": f"malformed report: {exc}"}
    missing = [name for name in VERIFY_CHECKS if name not in names]
    worst = max((r["max_residual"] for r in reports), default=0.0)
    ok = not failing and not missing
    return ok, {"failing": failing, "missing": missing, "max_residual": worst}


_CHECKS = {"dist": check_dist, "xi": check_xi, "verify": check_verify}


def check(op_check: dict, rc, text: str) -> tuple[bool, dict]:
    """Check one op's exit code and stdout with the oracle for its kind."""
    return _CHECKS[op_check["kind"]](op_check, rc, text)
