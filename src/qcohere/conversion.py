"""Optimal pure-state conversion under incoherent operations.

The maximal success probability for psi -> phi is the minimum over tail
starts l of the ratio of squared-amplitude tail sums, taken in canonical
frames. The optimal protocol realizing it is a chain of two-outcome
incoherent steps reaching an intermediate state gamma, followed by a
single two-operator filter built from the ladder of minimizing tails.
The steps are built together: one array kernel computes every step's
branch weights, trig pairs and stored operators as a single stack and
checks them all in one pass; ``two_level_step`` is its one-step call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    COMPOSE_CAP,
    Branch,
    KrausSet,
    _branches,
    _from_stored,
    _join,
    compose,
    is_complete,
)
from .errors import (
    CompletenessError,
    DimensionMismatchError,
    InfeasibleStepError,
    NoLadderError,
    NormalizationError,
    ParameterError,
    ResourceLimitError,
)
from .simplex import ATOL, TINY, _transfers, prob_vector, sorted_desc
from .states import (
    _copy_count,
    canonicalize,
    fidelity_pure,
    pure_state,
    squared_amplitudes,
    support_size,
    tensor_power,
)

# slack when comparing tail ratios for the smallest minimizer
RATIO_TIE = 1e-12
# largest stage stack ``_pair_steps`` builds, in entries 2 k d of its (k, 2, d)
# arrays: 2^25 entries are 768 MiB of rows and values (8 + 16 bytes each),
# enough for the d - 1 stages of a chain at d = 4096
STAGE_CAP = 1 << 25


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
    return _pad(psi, d), _pad(phi, d), d


def canonical_pair(psi, phi) -> tuple:
    """Canonical frames of psi and phi, zero-padded to the larger dimension."""
    psi, phi, _ = _common_pair(psi, phi)
    return canonicalize(psi), canonicalize(phi)


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


def _min_block_ratio(sa, sb, hi: int):
    """Minimizing (l, ratio) of block sums over 1-based l in [1, hi].

    Blocks run from l to hi inclusive; ``sa`` and ``sb`` are suffix sums.
    Blocks with target mass at or below 1e-12 are skipped (vacuous
    constraints); the first block with target mass but source mass at or
    below 1e-12 forces ratio 0. Among minima within 1e-12 of each other the
    smallest l wins. The l = 1 block holds the target's largest mass, so
    some block always has target mass.
    """
    block_a = sa[:hi] - (sa[hi] if hi < sa.size else 0.0)
    block_b = sb[:hi] - (sb[hi] if hi < sb.size else 0.0)
    live = block_b > TINY
    empty = live & (block_a <= TINY)
    if empty.any():
        return int(empty.argmax()) + 1, 0.0
    ratio = np.divide(block_a, block_b, out=np.full(hi, np.inf), where=live)
    l = int((ratio <= ratio.min() + RATIO_TIE).argmax())
    return l + 1, float(ratio[l])


def conversion_probability(psi, phi) -> float:
    """Maximal success probability of converting psi into phi.

    States of unequal dimension are zero-padded to the larger one.
    """
    psi, phi, d = _common_pair(psi, phi)
    a = sorted_desc(squared_amplitudes(psi))
    b = sorted_desc(squared_amplitudes(phi))
    _, ratio = _min_block_ratio(_suffix_sums(a), _suffix_sums(b), d)
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
    d = s.size
    sa = _suffix_sums(s * s)
    sb = _suffix_sums(t * t)

    breakpoints, ratios = [], []
    hi = d
    while hi >= 1:
        l, ratio = _min_block_ratio(sa, sb, hi)
        if ratio <= 0.0:
            raise NoLadderError("conversion probability is zero")
        breakpoints.append(l)
        ratios.append(ratio)
        hi = l - 1
    gamma = np.sqrt(_coordinate_ratios(breakpoints, ratios, d)) * t
    return ConversionLadder(breakpoints=tuple(breakpoints), ratios=tuple(ratios), gamma=gamma)


def filter_operator(ladder: ConversionLadder, phi) -> KrausSet:
    """Two-operator filter collapsing gamma onto phi with the ladder's
    success probability. Both operators are diagonal, hence incoherent."""
    t = _require_canonical(phi)
    d = ladder.dim
    if t.size != d:
        raise DimensionMismatchError(f"phi has dimension {t.size}, ladder {d}")
    r1 = ladder.ratios[0]
    m = np.sqrt(r1 / _coordinate_ratios(ladder.breakpoints, ladder.ratios, d))
    out = m * ladder.gamma - np.sqrt(r1) * t
    if float(np.abs(out).max()) > ATOL:
        raise ParameterError("filter does not map gamma onto phi; inputs inconsistent")
    comp = np.sqrt(np.clip(1.0 - m * m, 0.0, None))
    ops = (m, comp) if float((comp * comp).sum()) > TINY else (m,)
    rows = np.array([np.arange(d)] * len(ops))
    return _from_stored(rows, np.array(ops, dtype=complex), labels=["success", "fail"][: len(ops)])


def _pair_steps(d: int, n2, si2, sj2, ci2, cj2, i, j) -> list:
    """Two-outcome incoherent steps for k coordinate pairs, built as one stack.

    Stage m acts on a real nonnegative source of squared norm ``n2[m]``
    whose squared amplitudes at 0-based coordinates ``i[m]``, ``j[m]`` are
    ``si2[m]``, ``sj2[m]``; it leaves ``ci2[m]``, ``cj2[m]`` there. With
    branch weight p1 = (si2 - cj2) / (ci2 - cj2), operator 1 is diagonal
    with sqrt(p1) off the pair, operator 2 swaps i and j with sqrt(1 - p1)
    off the pair, and the pair columns hold trig pairs (cos, sin), which
    keep each column exactly normalized even for tiny sources. Equal
    targets give the identity. An operator is dropped only when its branch
    weight is at or below TINY and none of its columns holds mass above
    ATOL. All stages share one (k, 2, d) array of rows and one of values;
    each returned KrausSet views its stage's kept operators. The first
    stage failing a check raises, naming itself as "stage m of k".
    """
    n2, si2, sj2, ci2, cj2 = (np.asarray(v, dtype=float) for v in (n2, si2, sj2, ci2, cj2))
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    k = si2.size
    if k == 0:
        return []
    # refuse a stack over the cap before allocating it
    if 2 * k * d > STAGE_CAP:
        raise ResourceLimitError(f"{k} x 2 x {d} stage entries exceed the cap of {STAGE_CAP}")
    at = np.arange(k)
    # where() rather than min/max/clip: the same result as Python's min and
    # max on the scalars, signed zeros and NaN included
    with np.errstate(invalid="ignore", divide="ignore"):
        neg = np.where(cj2 < ci2, cj2, ci2) < -TINY
        asked = ci2, cj2
        ci2 = np.where(0.0 > ci2, 0.0, ci2)
        cj2 = np.where(0.0 > cj2, 0.0, cj2)
        gap = np.abs((si2 + sj2) - (ci2 + cj2))
        equal = np.abs(ci2 - cj2) <= TINY
        weight = (si2 - cj2) / np.where(equal, 1.0, ci2 - cj2)
        off = ~equal & ((weight < -ATOL) | (weight > 1.0 + ATOL))
        p1 = np.where(equal, 1.0, np.where(0.0 > weight, 0.0, weight))
        p1 = np.where(1.0 < p1, 1.0, p1)
        p2 = 1.0 - p1
        t1, t2 = np.sqrt(p1), np.sqrt(p2)
        ci, cj = np.sqrt(ci2), np.sqrt(cj2)
        # columns (i, j) of both operators; equal targets keep the identity
        th = np.where(equal, 0.0, np.arctan2(t2 * [cj, ci], t1 * [ci, cj]))
        cos, sin = np.cos(th), np.sin(th)
        # column masses of each operator: off the pair, then i and j
        mass1 = np.array([t1 * t1, *(cos * cos)])
        mass2 = np.array([t2 * t2, *(sin * sin)])
        keep1 = (p1 > TINY) | (mass1[1:] > ATOL).any(axis=0)
        keep2 = (p2 > TINY) | (mass2[1:] > ATOL).any(axis=0)
        mass = np.where(keep1, mass1, 0.0) + np.where(keep2, mass2, 0.0)
        if d == 2:  # no column off the pair
            mass = mass[1:]
        residual = np.abs(mass - 1.0).max(axis=0)

    rows = np.empty((k, 2, d), dtype=np.intp)
    rows[:] = np.arange(d)
    rows[at, 1, i], rows[at, 1, j] = j, i
    vals = np.empty((k, 2, d), dtype=complex)
    vals[:, 0] = t1[:, None]
    vals[:, 1] = t2[:, None]
    vals[at, 0, i], vals[at, 0, j] = cos
    vals[at, 1, i], vals[at, 1, j] = sin
    zero = vals == 0
    if zero.any():
        np.copyto(rows, np.arange(d), where=zero)
        vals[zero] = 0.0
    lo = np.where(keep1, 0, 1)
    hi = np.where(keep2, 2, 1)
    stages = [
        KrausSet(rows=rows[m, a:b], vals=vals[m, a:b], labels=("",) * (b - a))
        for m, a, b in zip(range(k), lo.tolist(), hi.tolist())
    ]
    # a zero pair column leaves operator 2 with one row twice, where only
    # the full Gram matrix measures completeness
    for m in np.flatnonzero(keep2 & (rows[at, 1, i] == rows[at, 1, j])):
        residual[m] = is_complete(stages[m])[1]

    checks = (
        (~(np.abs(n2 - 1.0) <= ATOL), NormalizationError,
         lambda m: f"squared norm {float(n2[m])!r}, expected 1 within {ATOL:.0e}"),
        (neg, InfeasibleStepError,
         lambda m: f"negative target pair ({float(asked[0][m])}, {float(asked[1][m])})"),
        (gap > ATOL, InfeasibleStepError,
         lambda m: f"pair mass {float(si2[m] + sj2[m])!r} differs from target mass "
                   f"{float(ci2[m] + cj2[m])!r}"),
        (equal & (np.abs(si2 - ci2) > ATOL), InfeasibleStepError,
         lambda m: "equal targets require an equal source pair"),
        (off, InfeasibleStepError, lambda m: f"branch weight {float(weight[m])!r} outside [0, 1]"),
        (~(residual <= ATOL), CompletenessError,
         lambda m: f"sum K^dag K deviates from identity by {residual[m]:.3e}"),
    )
    failed = np.array([c[0] for c in checks])
    if failed.any():
        m = int(failed.any(axis=0).argmax())
        _, err, message = next(c for c in checks if c[0][m])
        raise err(f"stage {m + 1} of {k}: {message(m)}")
    return stages


def two_level_step(source, target_pair, i: int, j: int) -> KrausSet:
    """Two-outcome incoherent step moving pair mass at coordinates i, j.

    ``source`` is a real nonnegative state; ``target_pair`` holds the two
    squared amplitudes wanted at 1-based coordinates ``i`` and ``j``. Both
    outcomes produce the same post-state (source with the pair replaced).
    The pair masses must agree and the implied branch weight must lie in
    [0, 1]; otherwise the step is infeasible. This is the one-stage call of
    the stacked builder behind ``deterministic_protocol``.
    """
    s = _require_nonneg_real(source)
    d = s.size
    if not (1 <= i <= d and 1 <= j <= d) or i == j:
        raise ParameterError(f"bad coordinate pair ({i}, {j}) for dimension {d}")
    return _pair_steps(
        d, [float((s * s).sum())], [float(s[i - 1] ** 2)], [float(s[j - 1] ** 2)],
        [float(target_pair[0])], [float(target_pair[1])], [i - 1], [j - 1],
    )[0]


def _identity(d: int) -> KrausSet:
    return _from_stored(np.arange(d)[None], np.ones((1, d), dtype=complex))


def deterministic_protocol(psi, gamma) -> list:
    """Stages converting canonical psi into canonical gamma with certainty.

    Requires psi's squared amplitudes to be majorized by gamma's
    (MajorizationError otherwise). Each of at most d-1 stages is a
    two-outcome incoherent step whose branches coincide, so every path ends
    in gamma. Stage m undoes the chain's transform T_{m+1}: its targets are
    the pair that transform mixes, as recorded by the chain's sweep, and its
    source is psi with the earlier stages' targets in place. All stages are
    built and checked in one stacked pass.
    """
    s = _require_canonical(psi)
    g = _require_canonical(gamma)
    if s.size != g.size:
        raise DimensionMismatchError(f"dimensions {s.size} and {g.size} differ")
    steps = _transfers(prob_vector(s * s), prob_vector(g * g))
    # each stage's source pair, and its squared norm carried from psi's by
    # the pair changes of the stages before it
    cur = s.tolist()
    n2 = float((s * s).sum())
    norms, si2, sj2 = [], [], []
    for i, j, _, ci2, cj2 in steps:
        a2, b2 = cur[i] ** 2, cur[j] ** 2
        norms.append(n2)
        si2.append(a2)
        sj2.append(b2)
        cur[i], cur[j] = math.sqrt(ci2), math.sqrt(cj2)
        n2 += (cur[i] ** 2 + cur[j] ** 2) - (a2 + b2)
    i, j, _, ci2, cj2 = np.array(steps, dtype=float).reshape(-1, 5).T
    return _pair_steps(s.size, norms, si2, sj2, ci2, cj2, i, j)


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

    Inputs may carry phases and arbitrary amplitude order; the first stage
    absorbs the source canonicalization and the last one undoes the
    target's. Zero probability yields an empty protocol.
    """
    cs, ct = canonical_pair(psi, phi)
    d = cs.state.size
    p = conversion_probability(psi, phi)
    if p <= 0.0:
        return Protocol(stages=(), success_label="success", probability=0.0)
    ladder = build_ladder(cs.state, ct.state)
    det = deterministic_protocol(cs.state, ladder.gamma)
    if not det:
        det = [_identity(d)]
    filt = filter_operator(ladder, ct.state)

    # the frames as one-operator sets: w_in = P D sends column c to row
    # inverse-permutation[c] with phase c; w_out = (P D)^H sends column k to
    # row permutation[k] with the conjugate phase of that row
    w_in = _from_stored(np.argsort(cs.permutation)[None], cs.phases[None])
    w_out = _from_stored(ct.permutation[None], ct.phases[ct.permutation].conj()[None])
    stages = [compose([w_in, det[0]])] + det[1:] + [compose([filt, w_out])]
    return Protocol(
        stages=tuple(stages), success_label="success",
        probability=ladder.success_probability,
    )


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
        every success branch on the target, each within ATOL."""
        if self.stage_completeness and max(self.stage_completeness) > ATOL:
            return False
        if abs(self.success_probability - self.declared_probability) > ATOL:
            return False
        return self.min_success_fidelity >= 1.0 - ATOL


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
    """Run every live branch through one stage, already checked complete.

    Children with absolute probability at or below TINY are dropped. Two
    children merge when their labels are equal and their states agree
    (fidelity within TINY of 1): a mixture of equal pure states is that
    same pure state, so the first state is kept and the probabilities add.
    Beyond SCAN_LIMIT children, only children with equal fingerprints are
    compared; equal states that fall into different cells stay apart, which
    costs a branch, not soundness.
    """
    many = len(branches) * len(stage) > SCAN_LIMIT
    out = {}  # (label, fingerprint or None) -> live branches carrying them
    count = 0
    for parent in branches:
        for child in _branches(stage, parent.state):
            p = parent.probability * child.probability
            if p <= TINY:
                continue
            label = _join(parent.label, child.label)
            kept = out.setdefault((label, _fingerprint(child.state) if many else None), [])
            for k, b in enumerate(kept):
                if fidelity_pure(b.state, child.state) >= 1.0 - TINY:
                    kept[k] = Branch(probability=b.probability + p, state=b.state, label=label)
                    break
            else:
                count += 1
                if count > COMPOSE_CAP:
                    raise ResourceLimitError(f"live branches exceed the cap of {COMPOSE_CAP}")
                kept.append(Branch(probability=p, state=child.state, label=label))
    return [b for kept in out.values() for b in kept]


def verify_protocol(protocol: Protocol, psi, phi) -> ProtocolReport:
    """Simulate ``protocol`` on psi and check it delivers phi as declared.

    Each stage's completeness residual is measured once; a stage off by
    more than ATOL raises CompletenessError. The stages then act in turn on
    the live branches, starting from psi. Branches with equal labels and
    equal post-states merge, so a protocol from optimal_protocol carries at
    most two and the cost is linear in the stage count; more than
    COMPOSE_CAP live branches raise ResourceLimitError. Nothing from the
    builder (ladder, gamma, declared probability) enters the simulation.
    """
    if not protocol.stages:
        return ProtocolReport(
            stage_completeness=(), success_probability=0.0,
            declared_probability=protocol.probability,
            min_success_fidelity=1.0, branch_count=0, success_count=0,
        )
    d = protocol.stages[0].dim
    psi = _pad(pure_state(psi), d)
    phi = _pad(pure_state(phi), d)
    residuals = tuple(is_complete(stage)[1] for stage in protocol.stages)
    branches = [Branch(probability=1.0, state=psi)]
    for n, (stage, res) in enumerate(zip(protocol.stages, residuals), 1):
        if res > ATOL:
            raise CompletenessError(f"stage {n}: completeness residual {res:.3e}")
        branches = _step(branches, stage)
    succ = [b for b in branches if b.label == protocol.success_label]
    total = float(sum(b.probability for b in succ))
    fid = min((fidelity_pure(phi, b.state) for b in succ), default=1.0)
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
    n = _copy_count(n)
    psi = pure_state(psi)
    phi = pure_state(phi)
    if n == 1:
        return conversion_probability(psi, phi)
    if support_shortcut(psi, phi, n):
        return 0.0
    target = tensor_power(phi[phi != 0], n)
    return conversion_probability(psi, target)
