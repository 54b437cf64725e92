"""Incoherent Kraus-operator sets in run form, each measured where it is made
(``_residuals``, the one completeness measure); selective application to pure
states, channel action on density matrices, composition. Dense (n, d) views
are derived on demand, dense matrices only in ``kraus_set`` and ``operators``."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

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
# largest chain stack the builder lists, in entries of 8 + 8 + 16 bytes, at
# most 10 a stage: the d - 1 stages of a chain up to d = 419,431. A file is
# measured over at most 2 (STAGE_CAP + 4 dim) column masses and matrix
# entries, what a built protocol's file needs
STAGE_CAP = 1 << 22


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


def _frozen(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class KrausSet:
    """K_n[rows[n, c], c] = vals[n, c], else 0, from signed integer ``rows``
    in [0, d) and ``vals`` of one shape (n, d), n, d >= 1, and n ``labels``
    (None: all ""), in the file's run form (see ``fileio``), a zero on its own
    row as +0: ``pos`` and ``to`` hold n d + column and n d + row of each listed
    entry, ``amp`` its value, ``ends`` each operator's end. None is written or
    rebound, so the residual measured at birth stays valid; copies re-list them."""

    __slots__ = ("dim", "labels", "ends", "pos", "to", "amp", "_residual")

    def __new__(cls, rows, vals, labels=None):
        rows, vals = np.asarray(rows), np.asarray(vals)
        if not (rows.ndim == 2 and rows.shape == vals.shape and rows.size and rows.dtype.kind == "i"):
            raise DimensionMismatchError("KrausSet rows, signed integers, and vals need one shape (n, d), "
                                         f"n, d >= 1; got {rows.dtype} {rows.shape} and {vals.shape}")
        n, d = rows.shape
        if labels is not None and len(labels := tuple(labels)) != n:
            raise ParameterError(f"{len(labels)} labels for {n} operators")
        if rows.min() < 0 or rows.max() >= d:
            raise ParameterError(f"KrausSet rows must lie in [0, {d}), got {rows.min()} to {rows.max()}")
        base = np.arange(0, n * d, d)[:, None]
        return _stack(d, [n], [labels], np.arange(n * d), np.ravel(base + rows), np.ravel(vals))[0]

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a KrausSet's {name} cannot be rebound")

    __delattr__ = __setattr__
    __reduce__ = lambda k: (_restack, (k.dim, k.labels, k.pos, k.to, k.amp))
    __repr__ = lambda k: f"KrausSet(dim={k.dim}, operators={len(k)}, listed={k.pos.size}, labels={k.labels})"

    def __len__(self) -> int:
        return len(self.ends)

    _runs = property(lambda k: (len(k), k.dim, k.pos, k.to, k.amp))
    rows = property(lambda k: _frozen(_dense(*k._runs)[0].reshape(len(k), k.dim) % k.dim)[0])
    vals = property(lambda k: _frozen(_dense(*k._runs)[1])[0])

    @property
    def operators(self) -> tuple:
        """The operators as dense d x d matrices."""
        flat, vals = _dense(*self._runs)
        ops = np.zeros((flat.size, self.dim), dtype=complex)
        ops[flat, np.arange(flat.size) % self.dim] = vals.ravel()
        return tuple(ops.reshape(len(self), self.dim, self.dim))


def _dense(n: int, d: int, pos, to, amp) -> tuple:
    """(n d + row of each entry, the (n, d) values) of n operators' runs."""
    flat = np.arange(n * d)
    vals = amp[pos.searchsorted(flat, "right") - 1].reshape(n, d)
    flat[pos] = to
    return flat, vals


def _stack(d: int, nops, labels, pos, to, amp, cap=None) -> list:
    """KrausSets of ``nops[m]`` operators and ``labels[m]`` each, views of one
    stack listed from sorted candidates (pos, to, amp) counted from each set's
    first operator (each column 0, every column where a row or value may
    change), measured in one pass, ``cap`` as ``_residuals`` takes it."""
    if not nops:
        return []
    amp = np.ascontiguousarray(amp, dtype=complex)
    if (zero := amp == 0).any():
        to, amp = np.where(zero, pos, to), np.where(zero, 0j, amp)
    bits = amp.view("V16")
    keep = to != pos
    keep[1:] |= bits[1:] != bits[:-1]
    keep |= (head := pos % d == 0)
    pos, to, amp = _frozen(pos[keep], to[keep], amp[keep])
    starts, first = head[keep].nonzero()[0], (nops := np.asarray(nops)).cumsum() - nops
    # each operator's end and each set's start in the listed stack
    hi, lo = np.concatenate((starts[1:], [pos.size])), starts[first]
    ends, = _frozen(hi - lo.repeat(nops))
    residuals = _residuals(d, nops, hi[first + nops - 1] - lo, pos, to, amp, cap)
    sets, put, lo = [], object.__setattr__, lo.tolist()
    for f, n, a, b, lab, r in zip(first.tolist(), nops.tolist(), lo, lo[1:] + [pos.size], labels, residuals):
        sets.append(k := object.__new__(KrausSet))
        for name, v in zip(KrausSet.__slots__, (d, ("",) * n if lab is None else tuple(lab), ends[f:f + n],
                                                pos[a:b], to[a:b], amp[a:b], r)):
            put(k, name, v)
    return sets


def _restack(d, labels, pos, to, amp) -> KrausSet:
    return _stack(d, [len(labels)], [labels], pos, to, amp)[0]


def _stored(operators) -> tuple:
    """(rows, vals) of dense operators, each column's largest entry; a column
    with two entries above ATOL raises IncoherenceError, witnessing it."""
    ops = [np.asarray(k, dtype=complex) for k in operators]
    if not ops:
        raise ParameterError("at least one operator required")
    d = ops[0].shape
    if len(d) != 2 or d[0] != d[1] or not d[0]:
        raise DimensionMismatchError(f"operators must be nonempty square matrices, got shape {d}")
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
    return _require_complete(KrausSet(*_stored(operators), labels if labels is None else [*map(str, labels)]))


def is_complete(k: KrausSet):
    """(residual <= ATOL, residual): max deviation of sum K^dag K from the
    identity, as measured where ``k`` was made."""
    return k._residual <= ATOL, k._residual


@np.errstate(over="ignore", invalid="ignore")
def _residuals(d: int, nops, sizes, pos, to, amp, cap=None) -> list:
    """Residuals, in the dense kernel's bits, of the sets of dimension d of
    ``nops[m]`` operators listing ``sizes[m]`` entries each, their runs (pos,
    to, amp) stacked. More than ``cap`` column masses and matrix entries
    raise ResourceLimitError before any is formed. Overflow gives inf, unwarned."""
    first, n, lo = (nops.cumsum() - nops) * d, int(nops.max()), sizes.cumsum() - sizes
    # entries keyed by column from their set's first operator, then by n d + column
    base = first.repeat(sizes)
    gpos, key = base + pos, base + pos % d
    # an entry off its own row meets a nonzero entry on that row: another
    # such entry, or the one in column row (listed on its row, or unlisted).
    # Rows that are the columns of the entries off their rows, one each, meet none
    off = (to != pos).nonzero()[0]
    row = np.sort((base + to)[off])
    shared = []
    if not (row == gpos[off]).all():
        at = gpos.searchsorted(row, "right") - 1
        meets = (amp[at] != 0) & ((gpos[at] != row) | (to[at] == pos[at]))
        meets[1:] |= row[1:] == row[:-1]
        # two entries sharing a row: the whole matrix over the set's listed
        # columns and the rows they meet; any other column sits on its own
        # row alone, with the values of the listed column before it
        hit = sorted(set((first.searchsorted(row[meets], "right") - 1).tolist())) if meets.any() else []
        shared = [(s, run := slice(lo[s], lo[s] + sizes[s]), np.unique(np.concatenate([pos[run], to[run]]) % d))
                  for s in hit]
    # column masses sum over a set's operators in order at its listed
    # columns, along a strided axis as over the dense (n, d); pairwise at d = 1
    if n > 2:
        # once each, and column 1 too: at d >= 2 numpy then sums over >= 2 columns, in order
        bps = np.unique(np.concatenate([key, first + min(d - 1, 1)]))
        starts = bps.searchsorted(first)
        per = np.diff(starts, append=bps.size)
    else:
        bps, per, starts = key, sizes, lo
    # at d >= 2 sets of at most two operators sum as one, a missing operator
    # adding +0, which leaves every bit as it is; other counts sum on their own
    w = np.maximum(nops, min(n, 2)) if d > 1 else nops
    if cap is not None and (work := int(per @ w) + sum(int(nops[s]) * c.size**2 for s, _, c in shared)) > cap:
        raise ResourceLimitError(f"{work} column masses and matrix entries exceed the cap of {cap}")
    n_at = nops.repeat(per) if d > 1 and n > nops.min() else None
    dev, widths = np.empty(bps.size), set(w.tolist())
    for m in widths:
        g = slice(None) if len(widths) == 1 else (w.repeat(per) == m).nonzero()[0]
        q = bps[g] + np.arange(0, m * d, d)[:, None]
        mass = np.square(np.abs(amp[gpos.searchsorted(q if d > 1 else q.T, "right") - 1]))
        if n_at is not None:
            mass[np.arange(m)[:, None] >= n_at[g]] = 0.0
        dev[g] = np.abs(mass.sum(axis=0 if d > 1 else 1) - 1.0)
    out = np.maximum.reduceat(dev, starts)
    for s, run, c in shared:
        q = np.arange(0, nops[s] * d, d)[:, None] + c
        at = pos[run].searchsorted(q, "right") - 1
        v, r = amp[run][at], np.where(pos[run][at] == q, to[run][at], q)
        gram = np.einsum("nc,nk,nck->ck", v.conj(), v, r[:, :, None] == r[:, None, :])
        out[s] = float(np.abs(gram - np.eye(c.size)).max())
    return out.tolist()


def is_incoherent(k: KrausSet):
    """(True, None): a KrausSet holds one entry per operator column, so it
    is incoherent by construction; ``kraus_set`` refuses coherent input with
    IncoherenceError and its witness."""
    return True, None


def _findings(stages) -> list:
    """Each stage's residual, or a file's coherent stage's IncoherenceError."""
    return [s._residual if isinstance(s, KrausSet) else s for s in stages]


def _require_complete(k, atol: float = ATOL, where: str = ""):
    """``k``, a KrausSet or one of ``_findings``, if complete within ``atol``;
    else its IncoherenceError or a CompletenessError, led by ``where``."""
    found = k._residual if isinstance(k, KrausSet) else k
    if isinstance(found, IncoherenceError):
        raise IncoherenceError(f"{where}{found}", found.witness)
    # NaN-safe: a NaN residual fails this test
    if not found <= atol:
        raise CompletenessError(f"{where}sum K^dag K deviates from identity by {found:.3e}")
    return k


def _require_stages(stages, atol: float = ATOL, where: str = "") -> list:
    """``_findings`` of ``stages``; the first failing stage raises as
    ``_require_complete`` does, led by ``where`` and ``stage m of k: ``."""
    findings = _findings(stages)
    for m, found in enumerate(findings, 1):
        _require_complete(found, atol, f"{where}stage {m} of {len(stages)}: ")
    return findings


def _outcomes(k: KrausSet, psi: np.ndarray, dense=None) -> tuple:
    """(operator indices, probabilities, normalized post-states as rows) of
    the branches of complete ``k`` on a validated state, ``dense`` its dense
    view if at hand."""
    if k.dim != psi.size:
        raise DimensionMismatchError(f"operator dim {k.dim} vs state dim {psi.size}")
    flat, vals = dense or _dense(*k._runs)
    vecs = np.zeros(vals.shape, dtype=complex)
    np.add.at(vecs.ravel(), flat, (vals * psi).ravel())
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
    rows, vals = k.rows, k.vals
    terms = vals[:, :, None] * rho * vals[:, None, :].conj()
    out = np.zeros_like(rho)
    np.add.at(out, (rows[:, :, None], rows[:, None, :]), terms)
    return out


def _join(a: str, b: str) -> str:
    if a and b:
        return f"{a}.{b}"
    return a or b


def compose(stages) -> KrausSet:
    """Collapse sequential stages into one Kraus set (stage 1 acts first).

    Products with Frobenius norm at or below TINY are dropped. Labels of the
    surviving products join the stages' non-empty labels in order. The
    product count can double with every stage: a stage whose products would
    number more than COMPOSE_CAP raises ResourceLimitError before any forms.
    """
    stages = list(stages)
    if not stages:
        raise ParameterError("at least one stage required")
    d = stages[0].dim
    if any(s.dim != d for s in stages):
        raise DimensionMismatchError("stages differ in dimension")
    rows, vals, labels = stages[0].rows, stages[0].vals, stages[0].labels
    for then in stages[1:]:
        if len(rows) * len(then) > COMPOSE_CAP:
            raise ResourceLimitError(f"{len(rows)} x {len(then)} products exceed the cap of {COMPOSE_CAP}")
        # product [m, n], then's operator m after operator n: column c goes
        # to rows[n, c], then on to then's rows[m, rows[n, c]]
        vals = (then.vals[:, rows] * vals).reshape(-1, d)
        rows = then.rows[:, rows].reshape(-1, d)
        keep = np.sqrt((vals.real**2 + vals.imag**2).sum(axis=1)) > TINY
        rows, vals = rows[keep], vals[keep]
        labels = list(compress((_join(a, b) for b in then.labels for a in labels), keep))
    # with every product gone, the zero map is 1 off the identity
    return _require_complete(KrausSet(rows, vals, labels) if len(rows) else 1.0, len(stages) * ATOL)
