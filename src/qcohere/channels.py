"""Incoherent Kraus-operator sets, stored with their one nonzero entry per
column: completeness check, selective application to pure states, channel
action on density matrices, composition. Dense matrices appear only where
they enter (``kraus_set``) and leave (``KrausSet.operators``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompletenessError, DimensionMismatchError, IncoherenceError, ResourceLimitError
from .simplex import ATOL, TINY
from .states import COMPOSE_CAP, check_density, pure_state


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
    column is stored as row c, value +0: equal operators, equal arrays."""

    rows: np.ndarray
    vals: np.ndarray
    labels: tuple | None = None

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


def _from_stored(rows, vals, labels=None, atol: float = ATOL) -> KrausSet:
    """KrausSet from stored arrays, enforcing completeness within ``atol``."""
    zero = vals == 0
    if zero.any():
        rows = np.where(zero, np.arange(rows.shape[1]), rows)
        vals = np.where(zero, 0j, vals)
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != rows.shape[0]:
            raise ValueError(f"{len(labels)} labels for {rows.shape[0]} operators")
    ks = KrausSet(rows=rows, vals=vals, labels=labels)
    ok, residual = is_complete(ks, atol=atol)
    if not ok:
        raise CompletenessError(f"sum K^dag K deviates from identity by {residual:.3e}")
    return ks


def kraus_set(operators, labels=None, atol: float = ATOL) -> KrausSet:
    """KrausSet of dense operators, enforcing completeness within ``atol``.

    Each column keeps its largest entry. A column with two entries above
    ATOL raises IncoherenceError, whose witness is the first such column.
    """
    ops = [np.asarray(k, dtype=complex) for k in operators]
    if not ops:
        raise ValueError("at least one operator required")
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
    vals = np.take_along_axis(ops, rows[:, None, :], axis=1)[:, 0, :]
    return _from_stored(rows, vals, labels=labels, atol=atol)


def is_complete(k: KrausSet, atol: float = ATOL):
    """(flag, residual): max deviation of sum K^dag K from the identity.

    Its diagonal holds the column masses. Entry (c, c') can be nonzero only
    if an operator sends columns c and c' to one row; only then is the
    whole matrix formed, in O(n d^2).
    """
    residual = float(np.abs(np.square(np.abs(k.vals)).sum(axis=0) - 1.0).max())
    srt = np.sort(k.rows, axis=1)
    if (srt[:, 1:] == srt[:, :-1]).any():
        same = k.rows[:, :, None] == k.rows[:, None, :]
        gram = np.einsum("nc,nk,nck->ck", k.vals.conj(), k.vals, same)
        residual = float(np.abs(gram - np.eye(k.dim)).max())
    return residual <= atol, residual


def is_incoherent(k: KrausSet, tol: float = ATOL):
    """(True, None): a KrausSet holds one entry per operator column, so it
    is incoherent by construction; ``kraus_set`` refuses coherent input with
    IncoherenceError and its witness."""
    return True, None


def _require_complete(k: KrausSet) -> None:
    ok, residual = is_complete(k)
    if not ok:
        raise CompletenessError(f"completeness residual {residual:.3e}")


def _branches(k: KrausSet, psi: np.ndarray, prune: float) -> list:
    """apply_selective on a validated state, without the completeness check."""
    if k.dim != psi.size:
        raise DimensionMismatchError(f"operator dim {k.dim} vs state dim {psi.size}")
    vecs = np.zeros(k.vals.shape, dtype=complex)
    np.add.at(vecs, (np.arange(len(k))[:, None], k.rows), k.vals * psi)
    probs = (vecs.real**2 + vecs.imag**2).sum(axis=1)
    live = np.nonzero(probs > prune)[0]
    kept = float(probs[live].sum())
    if abs(kept - 1.0) > ATOL + prune * len(k):
        raise CompletenessError(f"branch probabilities sum to {kept!r}")
    labels = k.labels if k.labels is not None else ("",) * len(k)
    return [Branch(float(probs[n]), vecs[n] / np.sqrt(probs[n]), labels[n]) for n in live]


def apply_selective(k: KrausSet, psi, prune: float = TINY) -> list:
    """All measurement branches of ``k`` on a pure state.

    Branches with probability at or below ``prune`` are dropped; the kept
    probabilities still account for all but negligible mass.
    """
    _require_complete(k)
    return _branches(k, pure_state(psi), prune)


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


def compose(stages, prune: float = TINY) -> KrausSet:
    """Collapse sequential stages into one Kraus set (stage 1 acts first).

    Products with Frobenius norm at or below ``prune`` are dropped. Labels
    of the surviving products join the stages' non-empty labels in order.
    The product count can double with every stage: a stage whose products
    would number more than COMPOSE_CAP raises ResourceLimitError before any
    of them is formed.
    """
    stages = list(stages)
    if not stages:
        raise ValueError("at least one stage required")
    d = stages[0].dim
    if any(s.dim != d for s in stages):
        raise DimensionMismatchError("stages differ in dimension")
    rows, vals = stages[0].rows, stages[0].vals
    labels = list(stages[0].labels) if stages[0].labels is not None else [""] * len(rows)
    for stage in stages[1:]:
        if len(rows) * len(stage) > COMPOSE_CAP:
            raise ResourceLimitError(
                f"{len(rows)} x {len(stage)} products exceed the cap of {COMPOSE_CAP}"
            )
        # product [m, n] = stage op m after op n: column c goes to rows[n, c],
        # then on to stage.rows[m, rows[n, c]]
        rows2 = stage.rows[:, rows].reshape(-1, d)
        vals2 = (stage.vals[:, rows] * vals).reshape(-1, d)
        slabels = stage.labels if stage.labels is not None else [""] * len(stage)
        keep = np.sqrt((vals2.real**2 + vals2.imag**2).sum(axis=1)) > prune
        rows, vals = rows2[keep], vals2[keep]
        joined = [_join(lab1, lab2) for lab2 in slabels for lab1 in labels]
        labels = [lab for lab, k in zip(joined, keep) if k]
    if not any(labels):
        labels = None
    return _from_stored(rows, vals, labels=labels, atol=len(stages) * ATOL)
