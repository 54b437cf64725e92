"""Probability vectors, majorization, and T-transform chains.

Every chain comes from one right-to-left sweep, ``_transfers``, which
also records the pair of masses each transform mixes for the protocols.

Index arguments that mirror the usual mathematical notation (tail start
``l``, transform coordinates ``i``/``j``) are 1-based throughout.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, MajorizationError, NormalizationError, ParameterError

# comparison slack for sums and partial-sum dominance
ATOL = 1e-9
# below this, masses are treated as zero and negative dust is clamped
TINY = 1e-12


def _count(n, least: int | None = 1, what: str = "count") -> int:
    """An integer >= ``least``, numpy integers accepted, booleans refused: a
    count of copies, samples, restarts or dimensions, a seed (least 0) or a
    1-based coordinate; ``least`` None admits any integer."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or (least is not None and n < least):
        at_least = "" if least is None else f" >= {least}"
        raise ParameterError(f"{what} must be an integer{at_least}, got {n!r}")
    return int(n)


def _tail_start(l, least: int | None = None, what: str = "tail start") -> int:
    """``_count``'s integer >= ``least``, or a float of integral value, shown
    as given when refused: ``tail_sum``'s l and the kyfan order."""
    if (isinstance(l, numbers.Real) and not isinstance(l, numbers.Integral)
            and float(l).is_integer() and (least is None or l >= least)):
        l = int(l)
    return _count(l, least, what)


def _vector(v, name: str) -> np.ndarray:
    """``v`` as a float array, refused unless it is a non-empty 1-d vector."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or not v.size:
        raise ParameterError(f"{name} must be a 1-d vector of at least one entry, got shape {v.shape}")
    return v


def _real(x, what: str) -> float:
    """A real number, numpy reals accepted, booleans refused: a mix weight or
    a target mass."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ParameterError(f"{what} must be a real number, got {x!r}")
    return float(x)


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
    """Non-increasing rearrangement of the entries of ``x``."""
    return np.sort(np.asarray(x, dtype=float))[::-1]


def tail_sum(x, l: int) -> float:
    """Sum of the d-l+1 smallest entries of ``x`` (the tail of the sorted
    vector starting at 1-based position ``l``). ``x`` need not be sorted."""
    x = _vector(x, "x")
    l = _tail_start(l)
    if not 1 <= l <= x.size:
        raise IndexError(f"l={l} outside [1, {x.size}]")
    return float(_tail_sums(x, l))


def _tail_sums(x, l: int):
    """Sums of the d-l+1 smallest entries along the last axis of ``x``, 0
    where l > d: ``tail_sum`` and the kyfan functional."""
    return np.sort(x, axis=-1)[..., : max(x.shape[-1] - l + 1, 0)].sum(axis=-1)


def majorizes(y, x) -> bool:
    """True iff x is majorized by y: every leading partial sum of the
    sorted-descending x is bounded by y's, within ATOL."""
    x, y = _vector(x, "x"), _vector(y, "y")
    if x.size != y.size:
        raise DimensionMismatchError(f"lengths {x.size} and {y.size} differ")
    cx = np.cumsum(sorted_desc(x))
    cy = np.cumsum(sorted_desc(y))
    return bool(np.all(cx <= cy + ATOL))


def _mix(t: float, a: float, b: float) -> float:
    return t * a + (1.0 - t) * b


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
        if _count(self.i, what="coordinate") == _count(self.j, what="coordinate"):
            raise ParameterError(f"bad coordinate pair ({self.i}, {self.j})")
        if not 0.0 <= _real(self.t, "mix weight") <= 1.0:
            raise ParameterError(f"mix weight {self.t} outside [0, 1]")

    def apply(self, v) -> np.ndarray:
        return apply_chain([self], v)


def apply_chain(chain, v) -> np.ndarray:
    """Apply a transform chain to ``v``; the last list element acts first.
    A transform acting on a coordinate beyond ``v`` raises
    DimensionMismatchError."""
    v = np.asarray(v, dtype=float).copy()
    try:
        for tr in reversed(list(chain)):
            a, b = v[tr.i - 1], v[tr.j - 1]
            v[tr.i - 1], v[tr.j - 1] = _mix(tr.t, a, b), _mix(tr.t, b, a)
    except IndexError:
        # coordinates are at least 1, so the index error is one past the end
        raise DimensionMismatchError(f"{tr} acts beyond a vector of length {v.size}") from None
    return v


def _transfers(x, y, starts=(0,)) -> list:
    """Records (i, j, u, a, b) of the T-transforms carrying ``y`` to ``x``.

    Each block [starts[k], starts[k+1]) of coordinates, the whole vector by
    default, is swept on its own. Going right to left, recipients (below x)
    wait on a stack, nearest on top; each donor (above x) moves the least of
    its excess and the top one's room, and the side that limited the move
    lands on its target exactly. The leftmost donor of a block owes every
    waiting recipient exactly its room and pays just that: its own excess is
    a difference of large masses. Only a donor left without a recipient may
    keep an excess, up to ATOL. A record holds the 0-based pair, the share u
    of a - b moved and the pair (a, b) it mixes; records come in chain order.
    Inputs may rise by TINY, so a pair may be near-tied: u is capped at 1,
    and is 0 where a <= b, mixing a pair that is equal within TINY. The
    float-array inputs are not checked here: ``_chain_inputs`` checks them
    for the public entry points, and ``optimal_protocol`` sweeps its own
    ladder's pair.
    """
    xs, v, above = x.tolist(), y.tolist(), y > x
    out = []
    for lo, hi in zip(starts, [*starts[1:], x.size]):
        # the block's leftmost donor; lo when it has none, as lo then never gives
        first = lo + int(above[lo:hi].argmax())
        stack = []
        for i in range(hi - 1, lo - 1, -1):
            # the rightmost donor gives to its nearest recipient: no
            # coordinate between them differs from x, which keeps x
            # majorized by the running vector after the transfer
            while v[i] > xs[i] and stack:
                j = stack[-1]
                a, b = v[i], v[j]
                excess, room = a - xs[i], xs[j] - b
                moved = room if i == first else min(excess, room)
                out.append((i, j, min(moved / (a - b), 1.0) if a > b else 0.0, a, b))
                v[i] = xs[i] if moved == excess else a - moved
                if moved == room:
                    stack.pop()  # j is settled and never read again
                else:
                    v[j] = b + moved
            if v[i] - xs[i] > ATOL:
                raise MajorizationError("majorization lost during chain construction")
            if v[i] < xs[i]:
                stack.append(i)
    return out[::-1]


def _chain_inputs(x, y) -> tuple:
    """``x`` and ``y`` as ``_vector`` reads them, checked for ``_transfers``:
    equal lengths, both sorted non-increasing within TINY, x majorized by y."""
    x, y = _vector(x, "x"), _vector(y, "y")
    if x.size != y.size:
        raise DimensionMismatchError(f"lengths {x.size} and {y.size} differ")
    for name, v in (("x", x), ("y", y)):
        if np.any(np.diff(v) > TINY):
            raise ParameterError(f"{name} must be sorted non-increasing")
    if not majorizes(y, x):
        raise MajorizationError("x is not majorized by y")
    return x, y


def ttransform_chain(x, y) -> list:
    """Chain of at most d-1 T-transforms carrying ``y`` to ``x``.

    Both inputs must be sorted non-increasing with x majorized by y, as
    ``_chain_inputs`` checks before the sweep. The returned list
    [T_1, ..., T_k] reproduces x as T_1(T_2(...T_k(y))), via
    :func:`apply_chain`. One sweep builds it in O(d) steps, the rightmost
    donor always giving to its nearest recipient on the right.
    """
    return [TTransform(i + 1, j + 1, 1.0 - u) for i, j, u, _, _ in _transfers(*_chain_inputs(x, y))]
