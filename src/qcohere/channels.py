"""Kraus-operator sets: incoherence and completeness checks, selective
application to pure states, channel action on density matrices, composition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompletenessError, DimensionMismatchError, ResourceLimitError
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
    operators: tuple
    labels: tuple | None = None

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)


def kraus_set(operators, labels=None, atol: float = ATOL) -> KrausSet:
    """Build a KrausSet, enforcing completeness within ``atol``."""
    ops = tuple(np.asarray(k, dtype=complex) for k in operators)
    if not ops:
        raise ValueError("at least one operator required")
    d = ops[0].shape
    if len(d) != 2 or d[0] != d[1]:
        raise DimensionMismatchError(f"operators must be square, got shape {d}")
    if any(op.shape != d for op in ops):
        raise DimensionMismatchError("operators differ in shape")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(ops):
            raise ValueError(f"{len(labels)} labels for {len(ops)} operators")
    ks = KrausSet(operators=ops, labels=labels)
    ok, residual = is_complete(ks, atol=atol)
    if not ok:
        raise CompletenessError(f"sum K^dag K deviates from identity by {residual:.3e}")
    return ks


def is_complete(k: KrausSet, atol: float = ATOL):
    """(flag, residual): max deviation of sum K^dag K from the identity."""
    d = k.dim
    acc = np.zeros((d, d), dtype=complex)
    for op in k.operators:
        acc += op.conj().T @ op
    residual = float(np.abs(acc - np.eye(d)).max())
    return residual <= atol, residual


def is_incoherent(k: KrausSet, tol: float = ATOL):
    """Every operator column may hold at most one entry above ``tol``.

    Returns (True, None) or (False, witness) for the first violation found.
    """
    for n, op in enumerate(k.operators):
        big = np.abs(op) > tol
        for c in range(op.shape[1]):
            rows = np.nonzero(big[:, c])[0]
            if rows.size > 1:
                witness = IncoherenceWitness(
                    operator=n + 1, column=c + 1, rows=(int(rows[0]) + 1, int(rows[1]) + 1)
                )
                return False, witness
    return True, None


def apply_selective(k: KrausSet, psi, prune: float = TINY) -> list:
    """All measurement branches of ``k`` on a pure state.

    Branches with probability at or below ``prune`` are dropped; the kept
    probabilities still account for all but negligible mass.
    """
    ok, residual = is_complete(k)
    if not ok:
        raise CompletenessError(f"completeness residual {residual:.3e}")
    psi = pure_state(psi)
    if k.dim != psi.size:
        raise DimensionMismatchError(f"operator dim {k.dim} vs state dim {psi.size}")
    branches = []
    kept = 0.0
    for n, op in enumerate(k.operators):
        vec = op @ psi
        p = float((vec.real**2 + vec.imag**2).sum())
        if p <= prune:
            continue
        label = k.labels[n] if k.labels is not None else ""
        branches.append(Branch(probability=p, state=vec / np.sqrt(p), label=label))
        kept += p
    if abs(kept - 1.0) > ATOL + prune * len(k.operators):
        raise CompletenessError(f"branch probabilities sum to {kept!r}")
    return branches


def apply_channel(k: KrausSet, rho) -> np.ndarray:
    """sum_n K_n rho K_n^dag for a complete Kraus set."""
    ok, residual = is_complete(k)
    if not ok:
        raise CompletenessError(f"completeness residual {residual:.3e}")
    rho = check_density(rho)
    if k.dim != rho.shape[0]:
        raise DimensionMismatchError(f"operator dim {k.dim} vs state dim {rho.shape[0]}")
    out = np.zeros_like(rho)
    for op in k.operators:
        out += op @ rho @ op.conj().T
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
    ops = list(stages[0].operators)
    labels = list(stages[0].labels) if stages[0].labels is not None else [""] * len(ops)
    for stage in stages[1:]:
        if len(ops) * len(stage) > COMPOSE_CAP:
            raise ResourceLimitError(
                f"{len(ops)} x {len(stage)} products exceed the cap of {COMPOSE_CAP}"
            )
        nxt_ops, nxt_labels = [], []
        slabels = stage.labels if stage.labels is not None else [""] * len(stage)
        for op2, lab2 in zip(stage.operators, slabels):
            for op1, lab1 in zip(ops, labels):
                prod = op2 @ op1
                if float(np.sqrt((prod.real**2 + prod.imag**2).sum())) <= prune:
                    continue
                nxt_ops.append(prod)
                nxt_labels.append(_join(lab1, lab2))
        ops, labels = nxt_ops, nxt_labels
    if not any(labels):
        labels = None
    return kraus_set(ops, labels=labels, atol=len(stages) * ATOL)
