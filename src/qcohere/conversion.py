"""Optimal pure-state conversion under incoherent operations.

The maximal success probability for psi -> phi is the minimum over tail
starts l of the ratio of squared-amplitude tail sums, taken in canonical
frames. The optimal protocol realizing it is a chain of two-outcome
incoherent steps reaching an intermediate state gamma, followed by a
single two-operator filter built from the ladder of minimizing tails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Branch, KrausSet, _branches, _from_stored, _join, compose, is_complete
from .errors import (
    CompletenessError,
    DimensionMismatchError,
    InfeasibleStepError,
    MajorizationError,
    NoLadderError,
    ParameterError,
    ResourceLimitError,
)
from .simplex import ATOL, TINY, majorizes, prob_vector, sorted_desc, ttransform_chain
from .states import (
    COMPOSE_CAP,
    Canonicalization,
    canonicalize,
    fidelity_pure,
    pure_state,
    squared_amplitudes,
    support_size,
    tensor_power,
)

# slack when comparing tail ratios for the smallest minimizer
RATIO_TIE = 1e-12


def _pad(psi: np.ndarray, d: int) -> np.ndarray:
    if psi.size == d:
        return psi
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
        raise ValueError("amplitudes must be real")
    if float(psi.real.min()) < -TINY:
        raise ValueError("amplitudes must be nonnegative")
    return np.clip(psi.real, 0.0, None)


def _require_canonical(psi) -> np.ndarray:
    s = _require_nonneg_real(psi)
    if np.any(np.diff(s) > TINY):
        raise ValueError("state must be canonical: amplitudes not sorted")
    return s


def _suffix_sums(a: np.ndarray) -> np.ndarray:
    """out[k] = a[k] + ... + a[-1]; exact zeros over all-zero tails."""
    return np.cumsum(a[::-1])[::-1]


def _min_block_ratio(sa, sb, hi: int):
    """Minimizing (l, ratio) of block sums over 1-based l in [1, hi].

    Blocks run from l to hi inclusive. Candidates with target mass at or
    below 1e-12 are skipped (vacuous constraints); a candidate with target
    mass but source mass at or below 1e-12 forces ratio 0. Among minima
    within 1e-12 of each other the smallest l wins.
    """
    d = sa.size
    top_a = sa[hi] if hi < d else 0.0
    top_b = sb[hi] if hi < d else 0.0
    candidates = []
    for l in range(1, hi + 1):
        block_b = sb[l - 1] - top_b
        if block_b <= TINY:
            continue
        block_a = sa[l - 1] - top_a
        if block_a <= TINY:
            return l, 0.0
        candidates.append((l, block_a / block_b))
    if not candidates:
        return 0, np.inf
    rmin = min(r for _, r in candidates)
    for l, r in candidates:
        if r <= rmin + RATIO_TIE:
            return l, r
    return candidates[0]


def conversion_probability(psi, phi) -> float:
    """Maximal success probability of converting psi into phi.

    States of unequal dimension are zero-padded to the larger one.
    """
    psi, phi, d = _common_pair(psi, phi)
    a = sorted_desc(squared_amplitudes(psi))
    b = sorted_desc(squared_amplitudes(phi))
    sa = _suffix_sums(a)
    sb = _suffix_sums(b)
    _, ratio = _min_block_ratio(sa, sb, d)
    if not np.isfinite(ratio):
        return 1.0
    return float(min(max(ratio, 0.0), 1.0))


@dataclass(frozen=True)
class ConversionLadder:
    """Blocks of tail minimizers defining the filter stage.

    ``breakpoints`` (l_1 > l_2 > ... > l_k = 1, 1-based) split the
    coordinates into blocks [l_j, l_{j-1}-1] with l_0 = d+1; ``ratios``
    are the corresponding block mass ratios, strictly increasing.
    ``gamma`` is the intermediate state: sqrt(r_j) * phi_i on block j.
    """

    breakpoints: tuple
    ratios: tuple
    gamma: np.ndarray
    success_probability: float

    @property
    def dim(self) -> int:
        return self.gamma.size


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
        if l == 0 or ratio <= 0.0:
            raise NoLadderError("conversion probability is zero")
        breakpoints.append(l)
        ratios.append(float(ratio))
        hi = l - 1

    gamma = np.zeros(d)
    prev = d + 1
    for l, r in zip(breakpoints, ratios):
        gamma[l - 1 : prev - 1] = np.sqrt(r) * t[l - 1 : prev - 1]
        prev = l
    p = float(min(max(ratios[0], 0.0), 1.0))
    return ConversionLadder(
        breakpoints=tuple(breakpoints), ratios=tuple(ratios), gamma=gamma,
        success_probability=p,
    )


def filter_operator(ladder: ConversionLadder, phi) -> KrausSet:
    """Two-operator filter collapsing gamma onto phi with the ladder's
    success probability. Both operators are diagonal, hence incoherent."""
    t = _require_canonical(phi)
    d = ladder.dim
    if t.size != d:
        raise DimensionMismatchError(f"phi has dimension {t.size}, ladder {d}")
    r1 = ladder.ratios[0]
    m = np.ones(d)
    prev = d + 1
    for l, r in zip(ladder.breakpoints, ladder.ratios):
        m[l - 1 : prev - 1] = np.sqrt(r1 / r)
        prev = l
    out = m * ladder.gamma - np.sqrt(r1) * t
    if float(np.abs(out).max()) > ATOL:
        raise ValueError("filter does not map gamma onto phi; inputs inconsistent")
    comp = np.sqrt(np.clip(1.0 - m * m, 0.0, None))
    ops = (m, comp) if float((comp * comp).sum()) > TINY else (m,)
    rows = np.array([np.arange(d)] * len(ops))
    return _from_stored(rows, np.array(ops, dtype=complex), labels=["success", "fail"][: len(ops)])


def two_level_step(source, target_pair, i: int, j: int) -> KrausSet:
    """Two-outcome incoherent step moving pair mass at coordinates i, j.

    ``source`` is a real nonnegative state; ``target_pair`` holds the two
    squared amplitudes wanted at 1-based coordinates ``i`` and ``j``. Both
    outcomes produce the same post-state (source with the pair replaced).
    The pair masses must agree and the implied branch weight must lie in
    [0, 1]; otherwise the step is infeasible.
    """
    s = _require_nonneg_real(source)
    d = s.size
    if not (1 <= i <= d and 1 <= j <= d) or i == j:
        raise ParameterError(f"bad coordinate pair ({i}, {j}) for dimension {d}")
    ci2, cj2 = float(target_pair[0]), float(target_pair[1])
    if min(ci2, cj2) < -TINY:
        raise InfeasibleStepError(f"negative target pair ({ci2}, {cj2})")
    ci2, cj2 = max(ci2, 0.0), max(cj2, 0.0)
    si2, sj2 = float(s[i - 1] ** 2), float(s[j - 1] ** 2)
    if abs((si2 + sj2) - (ci2 + cj2)) > ATOL:
        raise InfeasibleStepError(
            f"pair mass {si2 + sj2!r} differs from target mass {ci2 + cj2!r}"
        )
    if abs(ci2 - cj2) <= TINY:
        # degenerate targets: only the already-converted source is feasible
        if abs(si2 - ci2) > ATOL:
            raise InfeasibleStepError("equal targets require an equal source pair")
        return _identity(d)
    p1 = (si2 - cj2) / (ci2 - cj2)
    if p1 < -ATOL or p1 > 1.0 + ATOL:
        raise InfeasibleStepError(f"branch weight {p1!r} outside [0, 1]")
    p1 = min(max(p1, 0.0), 1.0)
    p2 = 1.0 - p1
    t1, t2 = np.sqrt(p1), np.sqrt(p2)
    ci, cj = np.sqrt(ci2), np.sqrt(cj2)

    a = np.full(d, t1)
    b = np.full(d, t2)
    # trig pairs keep each column exactly normalized even for tiny sources
    th_i = np.arctan2(t2 * cj, t1 * ci)
    th_j = np.arctan2(t2 * ci, t1 * cj)
    a[i - 1], b[i - 1] = np.cos(th_i), np.sin(th_i)
    a[j - 1], b[j - 1] = np.cos(th_j), np.sin(th_j)

    # k1 = diag(a); k2 scales by b and swaps coordinates i and j
    rows = np.array([np.arange(d)] * 2)
    rows[1, i - 1], rows[1, j - 1] = j - 1, i - 1
    keep = [p1 > TINY, p2 > TINY]
    return _from_stored(rows[keep], np.array([a, b], dtype=complex)[keep])


def _identity(d: int) -> KrausSet:
    return _from_stored(np.arange(d)[None], np.ones((1, d), dtype=complex))


def deterministic_protocol(psi, gamma) -> list:
    """Stages converting canonical psi into canonical gamma with certainty.

    Requires psi's squared amplitudes to be majorized by gamma's. Each
    stage is a two-outcome incoherent step whose branches coincide, so
    every measurement path ends in gamma; at most d-1 stages are needed.
    """
    s = _require_canonical(psi)
    g = _require_canonical(gamma)
    if s.size != g.size:
        raise DimensionMismatchError(f"dimensions {s.size} and {g.size} differ")
    x = prob_vector(s * s)
    y = prob_vector(g * g)
    if not majorizes(y, x):
        raise MajorizationError("gamma's squared amplitudes must majorize psi's")
    chain = ttransform_chain(x, y)
    if not chain:
        return []
    # walk y -> x recording intermediates, then invert transform by transform
    useq = [y]
    for tr in reversed(chain):
        useq.append(tr.apply(useq[-1]))
    useq.reverse()  # useq[m] is the squared vector before inverting T_{m+1}
    stages = []
    current = s.copy()
    for m, tr in enumerate(chain):
        target = useq[m + 1]
        pair = (float(target[tr.i - 1]), float(target[tr.j - 1]))
        stages.append(two_level_step(current, pair, tr.i, tr.j))
        current[tr.i - 1] = np.sqrt(pair[0])
        current[tr.j - 1] = np.sqrt(pair[1])
    return stages


@dataclass(frozen=True)
class Protocol:
    """Full conversion protocol in the original frames.

    ``stages`` act in order; measurement paths whose joined label equals
    ``success_label`` leave the target state, and their total probability
    is ``probability``.
    """

    stages: tuple
    success_label: str
    probability: float
    source_frame: Canonicalization
    target_frame: Canonicalization


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
        return Protocol(
            stages=(), success_label="success", probability=0.0,
            source_frame=cs, target_frame=ct,
        )
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
        probability=float(ladder.success_probability),
        source_frame=cs, target_frame=ct,
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

    def passes(self, atol: float = ATOL) -> bool:
        if self.stage_completeness and max(self.stage_completeness) > atol:
            return False
        if abs(self.success_probability - self.declared_probability) > atol:
            return False
        return self.min_success_fidelity >= 1.0 - atol


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
        for child in _branches(stage, parent.state, TINY):
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


def multicopy_probability(psi, phi, n: int, max_amplitudes: int = 1_000_000) -> float:
    """Probability of converting psi into n copies of phi.

    For n >= 2 the probability vanishes outright whenever ``support_shortcut``
    finds mass of the n copies outside psi's support. Otherwise the tensor power
    of phi's nonzero amplitudes is formed explicitly (subject to the
    amplitude cap) and the single-copy rule applies; zero amplitudes would
    only pad it and leave the probability unchanged.
    """
    if n < 1:
        raise ParameterError(f"copy count must be >= 1, got {n}")
    psi = pure_state(psi)
    phi = pure_state(phi)
    if n == 1:
        return conversion_probability(psi, phi)
    if support_shortcut(psi, phi, n):
        return 0.0
    target = tensor_power(phi[phi != 0], n, max_amplitudes=max_amplitudes)
    return conversion_probability(psi, target)
