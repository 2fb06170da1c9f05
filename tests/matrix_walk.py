"""An independent walk for the tests: numpy and real 4x4 matrices.

A quaternion ``w + xi + yj + zk`` acts on R^4 by its real 4x4
left-multiplication matrix, and one step sends
``psiL'(x) = a psiL(x+1) + b psiR(x+1)`` and
``psiR'(x) = c psiL(x-1) + d psiR(x-1)``.  Nothing here imports the
package, so agreement with it is evidence rather than a tautology.  Coin
entries and spinors come in as 4-tuples ``(w, x, y, z)``.
"""

from __future__ import annotations

import numpy as np


def lmat(q) -> np.ndarray:
    """Real 4x4 matrix of left multiplication by ``q = w + xi + yj + zk``."""
    w, x, y, z = q
    return np.array([[w, -x, -y, -z],
                     [x, w, -z, y],
                     [y, z, w, -x],
                     [z, -y, x, w]], dtype=float)


def walk(entries, spinor, steps: int):
    """Yield ``(left, right)`` for t = 0..steps; row ``x + steps`` holds site x.

    ``entries`` are the coin's a, b, c, d and ``spinor`` the pair started
    at the origin; each array is ``(2 steps + 1, 4)``.
    """
    a, b, c, d = (lmat(e).T for e in entries)
    left = np.zeros((2 * steps + 1, 4))
    right = np.zeros((2 * steps + 1, 4))
    left[steps], right[steps] = spinor
    for t in range(steps + 1):
        yield left, right
        if t < steps:
            new_left = np.zeros_like(left)
            new_right = np.zeros_like(right)
            new_left[:-1] = left[1:] @ a + right[1:] @ b
            new_right[1:] = left[:-1] @ c + right[:-1] @ d
            left, right = new_left, new_right


def laws(entries, spinor, steps: int):
    """Yield P(X_t = x) for t = 0..steps as arrays indexed by ``x + steps``."""
    for left, right in walk(entries, spinor, steps):
        yield (left ** 2).sum(axis=1) + (right ** 2).sum(axis=1)
