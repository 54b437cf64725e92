"""Incoherent Kraus-operator sets, stored with their one nonzero entry per
column: completeness check, selective application to pure states, channel
action on density matrices, composition. Dense matrices appear only where
they enter (``kraus_set``) and leave (``KrausSet.operators``)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, groupby

import numpy as np

from .errors import (
    CompletenessError,
    DimensionMismatchError,
    IncoherenceError,
    ParameterError,
    ResourceLimitError,
)
from .simplex import ATOL, TINY
from .states import check_density, pure_state

# cap on the products compose() may form for one stage, and on the live
# branches verify_protocol may carry
COMPOSE_CAP = 1 << 14
# largest stack of stored operators built or decoded at once, in entries,
# enough for the 2 (d - 1) operators of a chain at d = 4096; a decoded file
# may add a filter's two. Rows and values take 8 + 16 bytes an entry, and
# decoding peaks at 24.2 bytes an entry (191 MiB for the 8.3 million of a
# d = 2048 file), so near 775 MiB at the cap
STAGE_CAP = 1 << 25
# stages checked as one stack hold at most this many stored entries: at
# d = 2048 one stack of the whole protocol took 2.4 times as long as stacks
# of this size, and held 362 MiB against 3 MiB
_BLOCK = 1 << 16


@dataclass(frozen=True)
class IncoherenceWitness:
    """Locates a violating column: two rows of one operator column exceed
    the magnitude threshold. All positions are 1-based."""

    operator: int
    column: int
    rows: tuple


@dataclass(frozen=True)
class Branch:
    """One measurement outcome: its probability, normalized post-state, label."""

    probability: float
    state: np.ndarray
    label: str = ""


@dataclass(frozen=True)
class KrausSet:
    """K_n[rows[n, c], c] = vals[n, c], other entries zero. An all-zero
    column is stored as row c, value +0: equal operators, equal arrays. A
    stored zero adds nothing to sum K^dag K, whichever row it sits on.
    ``labels`` holds one string per operator, "" when it has none."""

    rows: np.ndarray
    vals: np.ndarray
    labels: tuple

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def operators(self) -> tuple:
        """The operators as dense d x d matrices."""
        n, d = self.rows.shape
        ops = np.zeros((n, d, d), dtype=complex)
        ops[np.arange(n)[:, None], self.rows, np.arange(d)] = self.vals
        return tuple(ops)


def _from_stored(rows, vals, labels=None) -> KrausSet:
    """KrausSet of stored arrays, unchecked: each stored zero moves to its
    own row as +0, and the labels become strings, "" when there are none."""
    zero = vals == 0
    if zero.any():
        rows = np.where(zero, np.arange(rows.shape[1]), rows)
        vals = np.where(zero, 0j, vals)
    labels = ("",) * rows.shape[0] if labels is None else tuple(str(s) for s in labels)
    if len(labels) != rows.shape[0]:
        raise ParameterError(f"{len(labels)} labels for {rows.shape[0]} operators")
    return KrausSet(rows=rows, vals=vals, labels=labels)


def _stored(operators) -> tuple:
    """(rows, vals) of dense operators, each column's largest entry; a column
    with two entries above ATOL raises IncoherenceError, witnessing it."""
    ops = [np.asarray(k, dtype=complex) for k in operators]
    if not ops:
        raise ParameterError("at least one operator required")
    d = ops[0].shape
    if len(d) != 2 or d[0] != d[1]:
        raise DimensionMismatchError(f"operators must be square, got shape {d}")
    if any(op.shape != d for op in ops):
        raise DimensionMismatchError("operators differ in shape")
    ops = np.stack(ops)
    mag = np.abs(ops)
    big = mag > ATOL
    coherent = np.argwhere(big.sum(axis=1) > 1)
    if coherent.size:
        n, c = (int(x) for x in coherent[0])
        r = np.nonzero(big[n, :, c])[0]
        witness = IncoherenceWitness(n + 1, c + 1, (int(r[0]) + 1, int(r[1]) + 1))
        raise IncoherenceError(f"coherent operator: {witness}", witness)
    rows = mag.argmax(axis=1)
    return rows, np.take_along_axis(ops, rows[:, None, :], axis=1)[:, 0, :]


def kraus_set(operators, labels=None) -> KrausSet:
    """KrausSet of dense operators, as ``_stored`` reads them, complete within ATOL."""
    return _require_complete(_from_stored(*_stored(operators), labels))


def is_complete(k: KrausSet):
    """(residual <= ATOL, residual): max deviation of sum K^dag K from the identity."""
    residual = float(_stacked(k.rows, k.vals, [len(k)])[0])
    return residual <= ATOL, residual


def _stacked(rows, vals, counts) -> np.ndarray:
    """Completeness residuals of consecutive stages of one dimension, their
    operators concatenated as ``rows`` and ``vals`` of shape (N, d), stage
    s holding ``counts[s]`` of them. The column masses, the diagonal of
    sum K^dag K, are summed per run of stages with one operator count; a
    stage with two nonzero entries of one operator on one row forms the
    whole matrix, in O(n d^2)."""
    d = rows.shape[1]
    mass = np.square(np.abs(vals))
    residual, at = [], 0
    for n, run in groupby(counts):
        m = len(list(run))
        residual.append(np.abs(mass[at:at + m * n].reshape(m, n, d).sum(axis=1) - 1.0).max(axis=1))
        at += m * n
    residual = np.concatenate(residual)
    # each stored zero sits on a row of its own, -1 - c, below every real
    # row; the stable sort runs fast through the nearly sorted rows
    keys = rows
    if (zero := vals == 0).any():
        keys = np.where(zero, ~np.arange(d), rows)
    srt = np.sort(keys, axis=1, kind="stable")
    if (same := srt[:, 1:] == srt[:, :-1]).any():
        starts = np.cumsum(counts) - counts
        for s in np.unique(np.repeat(np.arange(len(counts)), counts)[same.any(axis=1)]):
            span = slice(starts[s], starts[s] + counts[s])
            r, v = rows[span], vals[span]
            gram = np.einsum("nc,nk,nck->ck", v.conj(), v, r[:, :, None] == r[:, None, :])
            residual[s] = np.abs(gram - np.eye(d)).max()
    return residual


def _residuals(stages) -> list:
    """Completeness residual of each KrausSet of ``stages``. Consecutive
    stages of one dimension are measured in one ``_stacked`` pass over
    their concatenated operators, at most _BLOCK stored entries at a time;
    a lone stage is not copied."""
    out, at = [], 0
    while at < len(stages):
        end, size = at + 1, stages[at].rows.size
        while (end < len(stages) and stages[end].dim == stages[at].dim
               and size + stages[end].rows.size <= _BLOCK):
            size += stages[end].rows.size
            end += 1
        block = stages[at:end]
        rows, vals = block[0].rows, block[0].vals
        if len(block) > 1:
            rows, vals = np.concatenate([k.rows for k in block]), np.concatenate([k.vals for k in block])
        out += _stacked(rows, vals, [len(k) for k in block]).tolist()
        at = end
    return out


def is_incoherent(k: KrausSet):
    """(True, None): a KrausSet holds one entry per operator column, so it
    is incoherent by construction; ``kraus_set`` refuses coherent input with
    IncoherenceError and its witness."""
    return True, None


def _incomplete(found, where: str = ""):
    """The error, led by ``where``, of a residual or a file's coherent stage."""
    if isinstance(found, IncoherenceError):
        return IncoherenceError(f"{where}{found}", found.witness)
    return CompletenessError(f"{where}sum K^dag K deviates from identity by {found:.3e}")


def _require_complete(k, atol: float = ATOL, where: str = "") -> KrausSet:
    """``k``, complete within ``atol``, else ``_incomplete``'s error led by ``where``."""
    found = is_complete(k)[1] if isinstance(k, KrausSet) else k
    # NaN-safe: a NaN residual fails this test
    if isinstance(found, IncoherenceError) or not found <= atol:
        raise _incomplete(found, where)
    return k


def _require_stages(stages, atol: float = ATOL, where: str = "") -> list:
    """Residuals of ``stages``, measured at once; the first failing stage raises as
    ``_require_complete`` does, led by ``where`` and ``stage m of k: ``."""
    residuals = _residuals([s for s in stages if isinstance(s, KrausSet)])
    found = iter(residuals)
    for m, stage in enumerate(stages, 1):
        r = next(found) if isinstance(stage, KrausSet) else stage
        if isinstance(r, IncoherenceError) or not r <= atol:
            raise _incomplete(r, f"{where}stage {m} of {len(stages)}: ")
    return residuals


def _outcomes(k: KrausSet, psi: np.ndarray) -> tuple:
    """(operator indices, probabilities, normalized post-states as rows) of
    the branches of ``k``, already checked complete, on a validated state
    whose probability exceeds TINY."""
    if k.dim != psi.size:
        raise DimensionMismatchError(f"operator dim {k.dim} vs state dim {psi.size}")
    vecs = np.zeros(k.vals.shape, dtype=complex)
    np.add.at(vecs, (np.arange(len(k))[:, None], k.rows), k.vals * psi)
    probs = (vecs.real**2 + vecs.imag**2).sum(axis=1)
    live = np.nonzero(probs > TINY)[0]
    if live.size < probs.size:
        probs, vecs = probs[live], vecs[live]
    vecs /= np.sqrt(probs)[:, None]
    return live, probs, vecs


def apply_selective(k: KrausSet, psi) -> list:
    """All measurement branches of ``k`` on a pure state.

    Branches with probability at or below TINY are dropped; the kept
    probabilities still account for all but negligible mass.
    """
    _require_complete(k)
    live, probs, states = _outcomes(k, pure_state(psi))
    return [Branch(p, s, k.labels[n]) for n, p, s in zip(live, probs.tolist(), states)]


def apply_channel(k: KrausSet, rho) -> np.ndarray:
    """sum_n K_n rho K_n^dag for a complete Kraus set."""
    _require_complete(k)
    rho = check_density(rho)
    if k.dim != rho.shape[0]:
        raise DimensionMismatchError(f"operator dim {k.dim} vs state dim {rho.shape[0]}")
    # K rho K^dag moves entry (c, c') of rho to (rows[c], rows[c'])
    terms = k.vals[:, :, None] * rho * k.vals[:, None, :].conj()
    out = np.zeros_like(rho)
    np.add.at(out, (k.rows[:, :, None], k.rows[:, None, :]), terms)
    return out


def _join(a: str, b: str) -> str:
    if a and b:
        return f"{a}.{b}"
    return a or b


def _product(rows, vals, labels, then: KrausSet) -> tuple:
    """(rows, vals, labels) of the products [m, n] = then's operator m
    after operator n of the stored ``rows``, ``vals`` and ``labels``, those
    of Frobenius norm at or below TINY dropped, unchecked and with stored
    zeros where the products put them: column c goes to rows[n, c], then on
    to then.rows[m, rows[n, c]]."""
    vals = (then.vals[:, rows] * vals).reshape(-1, then.dim)
    rows = then.rows[:, rows].reshape(-1, then.dim)
    keep = np.sqrt((vals.real**2 + vals.imag**2).sum(axis=1)) > TINY
    labels = list(compress((_join(a, b) for b in then.labels for a in labels), keep))
    return rows[keep], vals[keep], labels


def compose(stages) -> KrausSet:
    """Collapse sequential stages into one Kraus set (stage 1 acts first).

    Products with Frobenius norm at or below TINY are dropped. Labels
    of the surviving products join the stages' non-empty labels in order.
    The product count can double with every stage: a stage whose products
    would number more than COMPOSE_CAP raises ResourceLimitError before any
    of them is formed.
    """
    stages = list(stages)
    if not stages:
        raise ParameterError("at least one stage required")
    d = stages[0].dim
    if any(s.dim != d for s in stages):
        raise DimensionMismatchError("stages differ in dimension")
    rows, vals, labels = stages[0].rows, stages[0].vals, stages[0].labels
    for stage in stages[1:]:
        if len(rows) * len(stage) > COMPOSE_CAP:
            raise ResourceLimitError(
                f"{len(rows)} x {len(stage)} products exceed the cap of {COMPOSE_CAP}"
            )
        rows, vals, labels = _product(rows, vals, labels, stage)
    return _require_complete(_from_stored(rows, vals, labels), len(stages) * ATOL)
