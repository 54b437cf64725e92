"""Probability vectors, majorization, and T-transform chains.

Index arguments that mirror the usual mathematical notation (tail start
``l``, transform coordinates ``i``/``j``) are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, MajorizationError, NormalizationError, ParameterError

# comparison slack for sums and partial-sum dominance
ATOL = 1e-9
# below this, masses are treated as zero and negative dust is clamped
TINY = 1e-12


def prob_vector(entries) -> np.ndarray:
    """Validate ``entries`` as a probability vector and return it as float64.

    Entries must be finite. Entries in [-1e-12, 0) are clamped to 0;
    anything more negative is rejected. The sum must be 1 within 1e-9.
    """
    x = np.atleast_1d(np.asarray(entries, dtype=float)).copy()
    if x.ndim != 1 or x.size == 0:
        raise NormalizationError("expected a non-empty 1-d sequence")
    if not np.isfinite(x).all():
        raise NormalizationError("entries must be finite")
    if np.any(x < -TINY):
        raise NormalizationError(f"entry {x.min():.3e} below -{TINY:.0e}")
    np.clip(x, 0.0, None, out=x)
    total = float(x.sum())
    if abs(total - 1.0) > ATOL:
        raise NormalizationError(f"entries sum to {total!r}, expected 1 within {ATOL:.0e}")
    return x


def sorted_desc(x) -> np.ndarray:
    """Non-increasing rearrangement. Stable: tied entries keep their order."""
    x = np.asarray(x, dtype=float)
    return x[np.argsort(-x, kind="stable")]


def tail_sum(x, l: int) -> float:
    """Sum of the d-l+1 smallest entries of ``x`` (the tail of the sorted
    vector starting at 1-based position ``l``). ``x`` need not be sorted."""
    x = np.asarray(x, dtype=float)
    d = x.size
    if not 1 <= l <= d:
        raise IndexError(f"l={l} outside [1, {d}]")
    return float(np.sort(x)[: d - l + 1].sum())


def majorizes(y, x) -> bool:
    """True iff x is majorized by y: every leading partial sum of the
    sorted-descending x is bounded by y's, within ATOL."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise DimensionMismatchError(f"lengths {x.size} and {y.size} differ")
    cx = np.cumsum(sorted_desc(x))
    cy = np.cumsum(sorted_desc(y))
    return bool(np.all(cx <= cy + ATOL))


@dataclass(frozen=True)
class TTransform:
    """Doubly stochastic mix of two coordinates (1-based ``i`` < ``j``).

    Applying it replaces (v_i, v_j) by
    (t*v_i + (1-t)*v_j, (1-t)*v_i + t*v_j).
    """

    i: int
    j: int
    t: float

    def __post_init__(self):
        if self.i < 1 or self.j < 1 or self.i == self.j:
            raise ParameterError(f"bad coordinate pair ({self.i}, {self.j})")
        if not 0.0 <= self.t <= 1.0:
            raise ParameterError(f"mix weight {self.t} outside [0, 1]")

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float).copy()
        a, b = v[self.i - 1], v[self.j - 1]
        v[self.i - 1] = self.t * a + (1.0 - self.t) * b
        v[self.j - 1] = (1.0 - self.t) * a + self.t * b
        return v


def apply_chain(chain, v) -> np.ndarray:
    """Apply a transform chain to ``v``; the last list element acts first."""
    v = np.asarray(v, dtype=float).copy()
    for tr in reversed(list(chain)):
        v = tr.apply(v)
    return v


def ttransform_chain(x, y) -> list:
    """Chain of at most d-1 T-transforms carrying ``y`` to ``x``.

    Both inputs must be sorted non-increasing with x majorized by y. The
    returned list [T_1, ..., T_k] reproduces x as T_1(T_2(...T_k(y))),
    i.e. via :func:`apply_chain`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise DimensionMismatchError(f"lengths {x.size} and {y.size} differ")
    for name, v in (("x", x), ("y", y)):
        if np.any(np.diff(v) > TINY):
            raise ParameterError(f"{name} must be sorted non-increasing")
    if not majorizes(y, x):
        raise MajorizationError("x is not majorized by y")

    out = []
    v = y.copy()
    for _ in range(x.size):
        diff = v - x
        donors = np.nonzero(diff > ATOL)[0]
        if donors.size == 0:
            break
        recipients = np.nonzero(diff < -ATOL)[0]
        # largest donor, then the nearest recipient to its right; this pair
        # has no differing coordinate between them, which keeps x majorized
        # by the running vector after the transfer
        i = int(donors.max())
        right = recipients[recipients > i]
        if right.size == 0:
            raise MajorizationError("majorization lost during chain construction")
        j = int(right.min())
        delta = min(v[i] - x[i], x[j] - v[j])
        t = 1.0 - delta / (v[i] - v[j])
        tr = TTransform(i + 1, j + 1, float(min(max(t, 0.0), 1.0)))
        v = tr.apply(v)
        out.append(tr)
    else:
        raise MajorizationError("chain did not converge in d steps")
    out.reverse()
    return out
