"""Optimal pure-state conversion under incoherent operations.

The maximal success probability P for psi -> phi is the ladder's first
rung: the least ratio of tail sums of the squared sorted moduli. The optimal
protocol realizing it is a chain of two-outcome incoherent steps reaching an
intermediate state gamma, then a two-operator filter built from the ladder;
``optimal_protocol`` computes every step's runs in one array kernel, joins the
two states' frames to the end stages, and lists and measures all stages as
one stack. ``verify_protocol`` replays a protocol branch by branch."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    COMPOSE_CAP,
    STAGE_CAP,
    KrausSet,
    _join,
    _dense,
    _outcomes,
    _require_complete,
    _require_stages,
    _stack,
)
from .errors import (
    DimensionMismatchError,
    InfeasibleStepError,
    NoLadderError,
    ParameterError,
    ResourceLimitError,
)
from .simplex import ATOL, TINY, _chain_inputs, _count, _real, _transfers
from .states import (
    _canonical,
    fidelity_pure,
    pure_state,
    support_size,
    tensor_power,
)

# relative slack when comparing tail ratios for the smallest minimizer
RATIO_TIE = 1e-12


def _pad(psi: np.ndarray, d: int) -> np.ndarray:
    if psi.size == d:
        return psi
    if psi.size > d:
        raise DimensionMismatchError(f"state dimension {psi.size} exceeds {d}")
    out = np.zeros(d, dtype=psi.dtype)
    out[: psi.size] = psi
    return out


def _common_pair(psi, phi):
    psi = pure_state(psi)
    phi = pure_state(phi)
    d = max(psi.size, phi.size)
    return _pad(psi, d), _pad(phi, d)


def canonical_pair(psi, phi) -> tuple:
    """Canonical frames of psi and phi, zero-padded to the larger dimension."""
    psi, phi = _common_pair(psi, phi)
    return _canonical(psi), _canonical(phi)


def _require_nonneg_real(psi) -> np.ndarray:
    psi = pure_state(psi)
    if float(np.abs(psi.imag).max()) > TINY:
        raise ParameterError("amplitudes must be real")
    if float(psi.real.min()) < -TINY:
        raise ParameterError("amplitudes must be nonnegative")
    return np.clip(psi.real, 0.0, None)


def _require_canonical(psi) -> np.ndarray:
    s = _require_nonneg_real(psi)
    if np.any(np.diff(s) > TINY):
        raise ParameterError("state must be canonical: amplitudes not sorted")
    return s


def _suffix_sums(a: np.ndarray) -> np.ndarray:
    """out[k] = a[k] + ... + a[-1]; exact zeros over all-zero tails."""
    return np.cumsum(a[::-1])[::-1]


def _floored(t: np.ndarray) -> np.ndarray:
    """Canonical t with every coordinate whose suffix mass is at or below
    TINY set to zero, renormalized; t itself when there is none. The one
    floor rule: P, the ladder and the filter all read this target."""
    dust = _suffix_sums(t * t) <= TINY
    if not t[dust].any():
        return t
    t = np.where(dust, 0.0, t)
    return t / np.sqrt((t * t).sum())


def _min_block_ratio(sa, sb, hi: int):
    """Minimizing (l, ratio) of block sums over 1-based l in [1, hi].

    Blocks run from l to hi inclusive; ``sa`` and ``sb`` are suffix sums of
    the source and the floored target. Blocks without target mass are
    skipped. Only on the first rung (hi = d) does the floor decide P = 0:
    there a block with target mass but source mass at or below 1e-12 forces
    ratio 0. Among ratios within a relative 1e-12 of the minimum the
    smallest l wins. Block l = 1 always has target mass.
    """
    block_a = sa[:hi] - (sa[hi] if hi < sa.size else 0.0)
    block_b = sb[:hi] - (sb[hi] if hi < sb.size else 0.0)
    live = block_b > 0.0
    empty = live & (block_a <= TINY) & (hi == sa.size)
    if empty.any():
        return int(empty.argmax()) + 1, 0.0
    ratio = np.divide(block_a, block_b, out=np.full(hi, np.inf), where=live)
    l = int((ratio <= ratio.min() * (1.0 + RATIO_TIE)).argmax())
    return l + 1, float(ratio[l])


def _first_rung(s: np.ndarray, t: np.ndarray) -> tuple:
    """(sa, sb, t, (l, ratio)) for canonical s -> t: the suffix sums of the
    squares of s and of t floored, t floored, and the ladder's first rung,
    whose ratio clipped to [0, 1] is P."""
    t = _floored(t)
    sa, sb = _suffix_sums(s * s), _suffix_sums(t * t)
    return sa, sb, t, _min_block_ratio(sa, sb, s.size)


def conversion_probability(psi, phi) -> float:
    """Maximal success probability of converting psi into phi.

    States of unequal dimension are zero-padded to the larger one. P is the
    ladder's first rung, on the squared sorted moduli that every stage reads;
    target masses whose suffix sum is at or below 1e-12 count as zero.
    """
    psi, phi = _common_pair(psi, phi)
    _, ratio = _first_rung(*(np.sort(np.abs(x))[::-1] for x in (psi, phi)))[3]
    return float(min(max(ratio, 0.0), 1.0))


@dataclass(frozen=True)
class ConversionLadder:
    """Blocks of tail minimizers defining the filter stage.

    ``breakpoints`` (l_1 > l_2 > ... > l_k = 1, 1-based) split the
    coordinates into blocks [l_j, l_{j-1}-1] with l_0 = d+1; ``ratios``
    are the corresponding block mass ratios, strictly increasing.
    ``gamma`` is the intermediate state: sqrt(r_j) * phi_i on block j.
    ``success_probability`` is r_1 clipped to [0, 1].
    """

    breakpoints: tuple
    ratios: tuple
    gamma: np.ndarray

    @property
    def dim(self) -> int:
        return self.gamma.size

    @property
    def success_probability(self) -> float:
        return float(min(max(self.ratios[0], 0.0), 1.0))


def _coordinate_ratios(breakpoints, ratios, d: int) -> np.ndarray:
    """Each coordinate's block ratio r_j, in coordinate order."""
    sizes = -np.diff([d + 1, *breakpoints])
    return np.repeat(ratios[::-1], sizes[::-1])


def build_ladder(psi, phi) -> ConversionLadder:
    """Ladder for canonical psi -> canonical phi with positive probability."""
    s = _require_canonical(psi)
    t = _require_canonical(phi)
    if s.size != t.size:
        raise DimensionMismatchError(f"dimensions {s.size} and {t.size} differ")
    return _ladder(*_first_rung(s, t))


def _ladder(sa, sb, t: np.ndarray, first) -> ConversionLadder:
    """Ladder from the suffix sums ``sa``, ``sb`` of canonical s and of the
    floored target t, whose first rung (l, ratio) is ``first``."""
    breakpoints, ratios = [], []
    l, ratio = first
    while True:
        if ratio <= 0.0:
            raise NoLadderError("conversion probability is zero")
        breakpoints.append(l)
        ratios.append(ratio)
        if l == 1:
            break
        l, ratio = _min_block_ratio(sa, sb, l - 1)
    gamma = np.sqrt(_coordinate_ratios(breakpoints, ratios, t.size)) * t
    return ConversionLadder(breakpoints=tuple(breakpoints), ratios=tuple(ratios), gamma=gamma)


def filter_operator(ladder: ConversionLadder, phi) -> KrausSet:
    """Two-operator filter collapsing gamma onto phi with the ladder's
    success probability. Both operators are diagonal, hence incoherent."""
    t = _floored(_require_canonical(phi))
    if t.size != ladder.dim:
        raise DimensionMismatchError(f"phi has dimension {t.size}, ladder {ladder.dim}")
    m, stored = _filter(ladder)
    if float(np.abs(m * ladder.gamma - np.sqrt(ladder.ratios[0]) * t).max()) > ATOL:
        raise ParameterError("filter does not map gamma onto phi; inputs inconsistent")
    return _require_complete(KrausSet(*stored))


def _filter(ladder: ConversionLadder) -> tuple:
    """(m, (rows, values, labels)) of the ladder's filter, unchecked: the
    success operator's diagonal m scales block j by sqrt(r_1 / r_j), taking
    gamma to sqrt(r_1) times the floored target the ladder was built for."""
    d = ladder.dim
    r1 = ladder.ratios[0]
    m = np.sqrt(r1 / _coordinate_ratios(ladder.breakpoints, ladder.ratios, d))
    comp = np.sqrt(np.clip(1.0 - m * m, 0.0, None))
    ops = (m, comp) if float((comp * comp).sum()) > TINY else (m,)
    rows = np.array([np.arange(d)] * len(ops))
    return m, (rows, np.array(ops, dtype=complex), ("success", "fail")[: len(ops)])


def _pair_runs(d: int, u, a, b, i, j) -> tuple:
    """(operator counts, candidate counts, pos, to, amp), as ``_stack`` takes
    them, of the exact steps undoing k chain transfers of the share ``u``,
    clipped to [0, 1], of ``a - b`` between 0-based coordinates ``i`` and
    ``j``: operator 1 diagonal with weight 1 - u, operator 2 swapping i and j
    with weight u, the pair columns trig pairs (cos, sin), exact even for tiny
    sources. An operator is dropped only when its weight is at or below TINY
    and none of its columns holds mass above ATOL."""
    # candidates: columns 0, lo, lo + 1, hi, hi + 1; of two in a column the later stands
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    k = u.size
    # refuse a stack over the cap before allocating it
    if 10 * k > STAGE_CAP:
        raise ResourceLimitError(f"{k} x 10 listed stage entries exceed the cap of {STAGE_CAP}")
    w = np.empty((k, 2))
    w[:, 0], w[:, 1] = 1.0 - u, u
    t = np.sqrt(w)
    # the target amplitudes at columns lo and hi, their angles, and the trig pairs
    c = np.sqrt(np.where(i < j, [a, b], [b, a]))
    th = np.arctan2(t[:, 1] * c[::-1], t[:, 0] * c)
    trig = np.empty((2, k, 2))
    np.cos(th, out=trig[..., 0])
    np.sin(th, out=trig[..., 1])
    keep = (w > TINY) | (trig * trig > ATOL).any(axis=0)
    cols = np.zeros((k, 5), dtype=np.intp)
    cols[:, 1], cols[:, 3] = np.minimum(i, j), np.maximum(i, j)
    cols[:, 2::2] = cols[:, 1::2] + 1
    vals = np.empty((k, 2, 5), dtype=complex)
    vals[..., ::2], vals[..., 1], vals[..., 3] = t[..., None], trig[0], trig[1]
    pick = cols < d
    pick[:, :-1] &= cols[:, :-1] != cols[:, 1:]
    pick = keep[:, :, None] & pick[:, None]
    # operator 2 counts from 0 when operator 1 is dropped; it swaps lo and hi
    pos = cols[:, None] + d * (keep[:, :1] & [False, True])[..., None]
    to = pos.copy()
    to[:, 1, 1], to[:, 1, 3] = pos[:, 1, 3], pos[:, 1, 1]
    return keep.sum(axis=1).tolist(), pick.sum(axis=(1, 2)).tolist(), pos[pick], to[pick], vals[pick]


def _pair_steps(d: int, u, a, b, i, j) -> list:
    """The steps of ``_pair_runs`` as one stack."""
    nops, _, *runs = _pair_runs(d, u, a, b, i, j)
    return _stack(d, nops, [None] * len(nops), *runs)


def two_level_step(source, target_pair, i: int, j: int) -> KrausSet:
    """Two-outcome incoherent step moving pair mass at coordinates i, j.

    ``source`` is a real nonnegative state; ``target_pair`` holds the two
    squared amplitudes wanted at 1-based coordinates ``i`` and ``j``. Both
    outcomes produce the same post-state (source with the pair replaced).
    The pair masses must agree and the implied branch weight must lie in
    [0, 1]; otherwise the step is infeasible. Equal targets give the
    identity. This is the one-stage call of the stacked builder.
    """
    s = _require_nonneg_real(source)
    d = s.size
    i, j = _count(i, what="coordinate"), _count(j, what="coordinate")
    if i > d or j > d or i == j:
        raise ParameterError(f"bad coordinate pair ({i}, {j}) for dimension {d}")
    si2, sj2 = float(s[i - 1] ** 2), float(s[j - 1] ** 2)
    try:
        ci2, cj2 = target_pair
    except (TypeError, ValueError):
        raise ParameterError(f"target pair must hold two numbers, got {target_pair!r}") from None
    ci2, cj2 = _real(ci2, "target mass"), _real(cj2, "target mass")
    if min(ci2, cj2) < -TINY:
        raise InfeasibleStepError(f"negative target pair ({ci2}, {cj2})")
    ci2, cj2 = max(ci2, 0.0), max(cj2, 0.0)
    if abs((si2 + sj2) - (ci2 + cj2)) > ATOL:
        raise InfeasibleStepError(f"pair mass {si2 + sj2!r} differs from target mass {ci2 + cj2!r}")
    if abs(ci2 - cj2) <= TINY:
        if abs(si2 - ci2) > ATOL:
            raise InfeasibleStepError("equal targets require an equal source pair")
        u = 0.0
    else:
        u = (ci2 - si2) / (ci2 - cj2)
        if not -ATOL <= u <= 1.0 + ATOL:
            raise InfeasibleStepError(f"branch weight {1.0 - u!r} outside [0, 1]")
    return _pair_steps(d, [u], [ci2], [cj2], [i - 1], [j - 1])[0]


def deterministic_protocol(psi, gamma) -> list:
    """Stages converting canonical psi into canonical gamma with certainty.

    Requires psi's squared amplitudes to be majorized by gamma's
    (MajorizationError otherwise). Each of at most d-1 stages is a
    two-outcome step whose branches coincide, undoing one chain transform.
    """
    s, g = _require_canonical(psi), _require_canonical(gamma)
    return _pair_steps(s.size, *_block_transfers(*_chain_inputs(s * s, g * g), (0,)))


def _block_transfers(x: np.ndarray, y: np.ndarray, starts) -> tuple:
    """(u, a, b, i, j) of the chain transfers from squared amplitudes y to x,
    one sweep per block from each 0-based start in ``starts``, unchecked."""
    i, j, u, a, b = np.array(_transfers(x, y, starts), dtype=float).reshape(-1, 5).T
    return u, a, b, i, j


@dataclass(frozen=True)
class Protocol:
    """Full conversion protocol in the original frames.

    ``stages`` act in order, the source's canonicalization folded into the
    first and the target's undone in the last; measurement paths whose
    joined label equals ``success_label`` leave the target state, and their
    total probability is ``probability``.
    """

    stages: tuple
    success_label: str
    probability: float


def optimal_protocol(psi, phi) -> Protocol:
    """Protocol realizing the maximal conversion probability for any pair.

    Inputs may carry phases and arbitrary amplitude order. The source frame
    P D, sending column c to row inverse-permutation[c] with phase c, joins
    the first stage, and the target's (P D)^H the filter. The stages are
    complete by construction, ``verify_protocol`` the check; zero probability
    yields an empty protocol."""
    cs, ct = canonical_pair(psi, phi)
    s = cs.state
    sa, sb, t, first = _first_rung(s, ct.state)
    if first[1] <= 0.0:  # P = 0, as conversion_probability finds it
        return Protocol(stages=(), success_label="success", probability=0.0)
    ladder = _ladder(sa, sb, t, first)
    # no transfer crosses a breakpoint, where the tails of psi and gamma agree
    g, d = ladder.gamma, s.size
    nops, sizes, *runs = _pair_runs(d, *_block_transfers(s * s, g * g, [l - 1 for l in ladder.breakpoints[::-1]]))
    # both end stages join the chain's runs as dense candidates: the first
    # chain stage after P D, the diagonal filter before (P D)^H
    back, n = np.argsort(cs.permutation), nops[0] if nops else 1
    to, amp = back, cs.phases
    if nops:
        flat, vals = _dense(n, d, *(r[:sizes[0]] for r in runs))
        to, amp = flat.reshape(n, d)[:, back].ravel(), (vals[:, back] * amp).ravel()
        runs = [r[sizes[0]:] for r in runs]
    filt = _filter(ladder)[1][1]
    nf = len(filt)
    runs = map(np.concatenate, zip((np.arange(n * d), to, amp), runs, (
        np.arange(nf * d), (np.arange(0, nf * d, d)[:, None] + ct.permutation).ravel(),
        (ct.phases[ct.permutation].conj() * filt).ravel())))
    stages = _stack(d, [n, *nops[1:], nf], [None] * len(nops or [0]) + [("success", "fail")[:nf]], *runs)
    return Protocol(stages=tuple(stages), success_label="success", probability=ladder.success_probability)


@dataclass(frozen=True)
class ProtocolReport:
    """Verification summary of a protocol against a state pair.

    ``branch_count`` counts the live branches after the last stage, once
    branches with equal labels and equal post-states are merged;
    ``success_count`` counts those carrying the success label.
    """

    stage_completeness: tuple
    success_probability: float
    declared_probability: float
    min_success_fidelity: float
    branch_count: int
    success_count: int

    def passes(self) -> bool:
        """Every stage complete, the declared probability delivered and
        every success branch on the target, each within ATOL; NaN fails."""
        return (all(r <= ATOL for r in self.stage_completeness)
                and abs(self.success_probability - self.declared_probability) <= ATOL
                and self.min_success_fidelity >= 1.0 - ATOL)


# cell size of the branch fingerprints, far above TINY: equal post-states
# reached along different paths round alike unless they straddle a cell edge
FINGERPRINT_GRID = 1e-6
# a step with at most this many children compares each with every kept
# branch of its label; a larger one only with those sharing its fingerprint
SCAN_LIMIT = 8


def _fingerprint(state: np.ndarray) -> bytes:
    """The state with its global phase fixed by its largest-modulus entry
    (the first among equal rounded moduli), rounded to the grid."""
    mod = np.abs(state)
    k = int(np.rint(mod / FINGERPRINT_GRID).argmax())
    fixed = state * (state[k].conjugate() / mod[k])
    return np.rint(fixed.view(float) / FINGERPRINT_GRID).astype(np.int64).tobytes()


def _step(branches: list, stage: KrausSet) -> list:
    """Run every live branch, a (probability, state, label) tuple, through
    one stage, already checked complete, its dense view derived once.

    Children with absolute probability at or below TINY are dropped. Two
    children merge when their labels are equal and their states agree
    (fidelity within TINY of 1); the first state is kept and the
    probabilities add. Beyond SCAN_LIMIT children, only children with equal
    fingerprints are compared, which may cost a branch, not soundness."""
    many = len(branches) * len(stage) > SCAN_LIMIT
    out = {}  # (label, fingerprint or None) -> live branches carrying them
    count, dense = 0, _dense(*stage._runs)
    for prob, state, label in branches:
        live, probs, states = _outcomes(stage, state, dense)
        for n, q, child in zip(live.tolist(), probs.tolist(), states):
            p = prob * q
            if p <= TINY:
                continue
            joined = _join(label, stage.labels[n])
            kept = out.setdefault((joined, _fingerprint(child) if many else None), [])
            for k, (kp, ks, _) in enumerate(kept):
                if fidelity_pure(ks, child) >= 1.0 - TINY:
                    kept[k] = (kp + p, ks, joined)
                    break
            else:
                count += 1
                if count > COMPOSE_CAP:
                    raise ResourceLimitError(f"live branches exceed the cap of {COMPOSE_CAP}")
                kept.append((p, child, joined))
    return [b for kept in out.values() for b in kept]


def verify_protocol(protocol: Protocol, psi, phi) -> ProtocolReport:
    """Simulate ``protocol`` on psi and check it delivers phi as declared.

    The first stage whose carried residual exceeds ATOL, or is NaN, raises
    CompletenessError. The stages then act in turn on the live branches from
    psi; branches with equal labels and equal post-states merge, so a
    protocol from optimal_protocol carries at most two. More than
    COMPOSE_CAP live branches raise ResourceLimitError. Nothing from the
    builder (ladder, gamma, declared probability) enters the simulation.
    """
    if not protocol.stages:
        # no stage acts, but the states must still be states
        pure_state(psi)
        pure_state(phi)
        return ProtocolReport((), 0.0, protocol.probability, 1.0, 0, 0)
    d = protocol.stages[0].dim
    psi = _pad(pure_state(psi), d)
    phi = _pad(pure_state(phi), d)
    residuals = tuple(_require_stages(protocol.stages))
    branches = [(1.0, psi, "")]
    for stage in protocol.stages:
        branches = _step(branches, stage)
    succ = [(p, state) for p, state, label in branches if label == protocol.success_label]
    total = float(sum(p for p, _ in succ))
    fid = min((fidelity_pure(phi, state) for _, state in succ), default=1.0)
    return ProtocolReport(
        stage_completeness=residuals, success_probability=total,
        declared_probability=protocol.probability, min_success_fidelity=float(fid),
        branch_count=len(branches), success_count=len(succ),
    )


def support_shortcut(psi, phi, n: int) -> bool:
    """True when n copies of phi hold mass above TINY outside any set of
    support(psi) amplitudes.

    Incoherent operations never enlarge the support, so the conversion
    probability of psi into n copies of phi is then exactly zero. Two lower
    bounds show it without forming the copies: the s masses of phi whose
    n-th power exceeds TINY give s**n products that all clear the floor, and
    the support(psi) largest products hold at most support(psi) * top**n of
    the copies' total mass total**n, top and total being phi's largest and
    total mass (pure_state lets total differ from 1 by up to 1e-9).
    """
    n = _count(n)
    s_psi = support_size(psi)
    phi = np.asarray(phi, dtype=complex)
    masses = phi.real**2 + phi.imag**2
    s_n = int(np.count_nonzero(masses**n > TINY))
    # s_n >= 2 gives s_n ** bit_length(s_psi) > s_psi, so capping the
    # exponent there keeps the integer small and the comparison exact
    if s_psi < s_n ** min(n, s_psi.bit_length()):
        return True
    return s_psi * masses.max() ** n < masses.sum() ** n - 2 * TINY


def multicopy_probability(psi, phi, n: int) -> float:
    """Probability of converting psi into n copies of phi.

    For n >= 2 the probability vanishes outright whenever ``support_shortcut``
    finds mass of the n copies outside psi's support. Otherwise the tensor power
    of phi's nonzero amplitudes is formed explicitly (at most TENSOR_CAP
    amplitudes) and the single-copy rule applies; zero amplitudes would
    only pad it and leave the probability unchanged.
    """
    n = _count(n)
    psi = pure_state(psi)
    phi = pure_state(phi)
    if n == 1:
        return conversion_probability(psi, phi)
    if support_shortcut(psi, phi, n):
        return 0.0
    target = tensor_power(phi[phi != 0], n)
    return conversion_probability(psi, target)
