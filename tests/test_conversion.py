import dataclasses
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcohere import (
    CompletenessError,
    InfeasibleStepError,
    MajorizationError,
    NoLadderError,
    NormalizationError,
    ParameterError,
    Protocol,
    ResourceLimitError,
    apply_selective,
    build_ladder,
    canonicalize,
    compose,
    conversion_probability,
    deterministic_protocol,
    fidelity_pure,
    filter_operator,
    is_complete,
    is_incoherent,
    kraus_set,
    majorizes,
    multicopy_probability,
    optimal_protocol,
    pure_state,
    sorted_desc,
    squared_amplitudes,
    support_size,
    tensor_power,
    two_level_step,
    verify_protocol,
)
from qcohere import channels, conversion
from qcohere.simplex import ATOL, TINY, prob_vector, ttransform_chain
from qcohere.channels import COMPOSE_CAP
from randgen import random_majorized_pair, random_pure_state

PSI = np.sqrt([0.8, 0.1, 0.1])
PHI = np.sqrt([0.4, 0.3, 0.3])


def oracle_probability(psi, phi):
    """Tail-ratio minimum computed directly from the definition."""
    a = np.sort(np.abs(np.asarray(psi, dtype=complex)) ** 2)[::-1]
    b = np.sort(np.abs(np.asarray(phi, dtype=complex)) ** 2)[::-1]
    d = max(a.size, b.size)
    a = np.pad(a, (0, d - a.size))
    b = np.pad(b, (0, d - b.size))
    best = np.inf
    for l in range(d):
        ta, tb = a[l:].sum(), b[l:].sum()
        if tb <= 1e-12:
            continue
        if ta <= 1e-12:
            return 0.0
        best = min(best, ta / tb)
    if not np.isfinite(best):
        return 1.0
    return float(min(best, 1.0))


def test_probability_worked_example():
    assert abs(conversion_probability(PSI, PHI) - 1.0 / 3.0) < 1e-12


def test_probability_identity_and_basis():
    psi = random_pure_state(np.random.default_rng(0), 4, phases=True)
    assert conversion_probability(psi, psi) == 1.0
    basis = np.array([0.0, 1.0, 0.0, 0.0])
    assert abs(conversion_probability(psi, basis) - 1.0) < 1e-12
    assert conversion_probability(basis, psi) == 0.0


def test_probability_padding():
    qubit = np.full(2, 1.0 / np.sqrt(2.0))
    qutrit = np.full(3, 1.0 / np.sqrt(3.0))
    assert conversion_probability(qubit, qutrit) == 0.0
    assert abs(conversion_probability(qutrit, qubit) - 1.0) < 1e-12


def test_probability_majorization_boundary():
    rng = np.random.default_rng(14)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        x, y = random_majorized_pair(rng, d)
        assert conversion_probability(np.sqrt(x), np.sqrt(y)) >= 1.0 - 1e-12


def test_probability_against_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        ds = int(rng.integers(2, 7))
        dt = int(rng.integers(2, 7))
        psi = random_pure_state(rng, ds, phases=True)
        phi = random_pure_state(rng, dt, phases=True)
        p = conversion_probability(psi, phi)
        assert abs(p - oracle_probability(psi, phi)) < 1e-12


def test_ladder_worked_example():
    ladder = build_ladder(PSI, PHI)
    assert ladder.breakpoints == (2, 1)
    assert abs(ladder.ratios[0] - 1.0 / 3.0) < 1e-12
    assert abs(ladder.ratios[1] - 2.0) < 1e-12
    assert abs(ladder.success_probability - 1.0 / 3.0) < 1e-12
    assert ladder.dim == 3
    # gamma reproduces the source exactly for this pair
    assert np.abs(ladder.gamma - PSI).max() < 1e-12


def test_ladder_identical_pair_is_single_block():
    c = np.sqrt([0.5, 0.3, 0.2])
    ladder = build_ladder(c, c)
    assert ladder.breakpoints == (1,)
    assert abs(ladder.ratios[0] - 1.0) < 1e-12
    assert np.abs(ladder.gamma - c).max() < 1e-12


def test_ladder_rejects_noncanonical():
    with pytest.raises(ValueError):
        build_ladder(np.sqrt([0.1, 0.8, 0.1]), PHI)
    with pytest.raises(ValueError):
        build_ladder(np.array([1j, 0.0, 0.0]), PHI)
    with pytest.raises(NoLadderError):
        build_ladder(np.array([1.0, 0.0, 0.0]), np.full(3, 1.0 / np.sqrt(3.0)))


def test_ladder_random_invariants():
    rng = np.random.default_rng(19)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        s = canonicalize(random_pure_state(rng, d, phases=True)).state
        t = canonicalize(random_pure_state(rng, d, phases=True)).state
        ladder = build_ladder(s, t)
        bp = ladder.breakpoints
        assert bp[-1] == 1
        assert all(bp[k] > bp[k + 1] for k in range(len(bp) - 1))
        assert all(
            ladder.ratios[k] < ladder.ratios[k + 1] for k in range(len(bp) - 1)
        )
        g2 = squared_amplitudes(ladder.gamma.astype(complex))
        assert abs(g2.sum() - 1.0) < 1e-9
        # gamma is reachable deterministically and filters onto the target
        assert majorizes(g2, squared_amplitudes(s.astype(complex)))
        p = conversion_probability(s.astype(complex), t.astype(complex))
        assert abs(ladder.success_probability - p) < 1e-12


def test_filter_worked_example():
    ladder = build_ladder(PSI, PHI)
    filt = filter_operator(ladder, PHI)
    assert filt.labels == ("success", "fail")
    succ = np.diag(filt.operators[0]).real
    fail = np.diag(filt.operators[1]).real
    assert np.abs(succ - [np.sqrt(1.0 / 6.0), 1.0, 1.0]).max() < 1e-12
    assert np.abs(fail - [np.sqrt(5.0 / 6.0), 0.0, 0.0]).max() < 1e-12
    out = filt.operators[0] @ ladder.gamma
    p = float((np.abs(out) ** 2).sum())
    assert abs(p - 1.0 / 3.0) < 1e-12
    assert np.abs(out / np.sqrt(p) - PHI).max() < 1e-12


def test_filter_single_operator_when_certain():
    c = np.sqrt([0.5, 0.3, 0.2])
    ladder = build_ladder(c, c)
    filt = filter_operator(ladder, c)
    assert len(filt) == 1
    assert filt.labels == ("success",)
    assert np.abs(filt.operators[0] - np.eye(3)).max() < 1e-12


def test_filter_rejects_mismatched_target():
    ladder = build_ladder(PSI, PHI)
    with pytest.raises(ValueError):
        filter_operator(ladder, np.sqrt([0.5, 0.3, 0.2]))


def test_two_level_step_worked_example():
    s = np.full(2, 1.0 / np.sqrt(2.0))
    ks = two_level_step(s, (0.7, 0.3), 1, 2)
    assert len(ks) == 2
    k1 = ks.operators[0].real
    assert np.abs(np.diag(k1) - [np.sqrt(0.7), np.sqrt(0.3)]).max() < 1e-12
    assert abs(k1[0, 1]) < 1e-15 and abs(k1[1, 0]) < 1e-15
    k2 = ks.operators[1].real
    assert abs(k2[0, 0]) < 1e-15 and abs(k2[1, 1]) < 1e-15
    target = np.sqrt([0.7, 0.3])
    for op in ks.operators:
        vec = op @ s
        p = float((np.abs(vec) ** 2).sum())
        assert abs(p - 0.5) < 1e-12
        assert np.abs(vec / np.sqrt(p) - target).max() < 1e-12
    assert is_incoherent(ks)[0]


def test_two_level_step_branch_weights():
    s = np.sqrt([0.55, 0.25, 0.2])
    ks = two_level_step(s, (0.65, 0.15), 1, 2)
    probs = sorted(float((np.abs(op @ s) ** 2).sum()) for op in ks.operators)
    p1 = (0.55 - 0.15) / (0.65 - 0.15)
    assert abs(probs[0] - (1.0 - p1)) < 1e-12
    assert abs(probs[1] - p1) < 1e-12


def test_two_level_step_tiny_amplitudes():
    eps = 1e-11
    s = np.sqrt([1.0 - eps, eps])
    ks = two_level_step(s, (1.0 - eps / 10.0, eps / 10.0), 1, 2)
    _, residual = is_complete(ks)
    assert residual < 1e-12
    target = np.sqrt([1.0 - eps / 10.0, eps / 10.0])
    for branch in apply_selective(ks, s.astype(complex)):
        assert fidelity_pure(branch.state, target.astype(complex)) >= 1.0 - 1e-9


def test_two_level_step_degenerate_targets():
    s = np.full(2, 1.0 / np.sqrt(2.0))
    ks = two_level_step(s, (0.5, 0.5), 1, 2)
    assert len(ks) == 1
    assert np.abs(ks.operators[0] - np.eye(2)).max() == 0.0
    with pytest.raises(InfeasibleStepError):
        two_level_step(np.sqrt([0.7, 0.3]), (0.5, 0.5), 1, 2)


def test_two_level_step_infeasible():
    s = np.full(2, 1.0 / np.sqrt(2.0))
    with pytest.raises(InfeasibleStepError):
        two_level_step(s, (0.8, 0.1), 1, 2)
    with pytest.raises(InfeasibleStepError):
        two_level_step(np.sqrt([0.1, 0.9]), (0.7, 0.3), 1, 2)
    with pytest.raises(ParameterError):
        two_level_step(s, (0.7, 0.3), 1, 1)
    with pytest.raises(ParameterError):
        two_level_step(s, (0.7, 0.3), 0, 2)


def test_two_level_step_keeps_operator_with_column_mass():
    # branch 2 weighs 1e-14, below TINY, yet its column 1 carries almost all
    # of that column's mass: dropping it left a residual of 9.99e-01
    s = np.sqrt([1e-14, 1.0 - 1e-14])
    target = (1e-17, 1.0 - 1e-17)
    ks = two_level_step(s, target, 1, 2)
    assert len(ks) == 2
    assert is_complete(ks)[0]
    branches = apply_selective(ks, s)
    assert len(branches) == 1
    assert fidelity_pure(branches[0].state, np.sqrt(target).astype(complex)) == 1.0


def test_stacked_steps_name_the_failing_stage():
    ok = (1.0, 0.5, 0.5, 0.7, 0.3)  # n2, si2, sj2, ci2, cj2 of a feasible step

    def steps(*stages):
        cols = list(zip(*stages))
        return conversion._pair_steps(3, *cols, [0] * len(stages), [1] * len(stages))

    assert len(steps(ok, ok)) == 2
    # the first failing stage raises, whatever fails after it
    with pytest.raises(InfeasibleStepError, match="^stage 2 of 3: pair mass"):
        steps(ok, (1.0, 0.5, 0.5, 0.8, 0.3), (0.5, *ok[1:]))
    with pytest.raises(NormalizationError, match="^stage 3 of 3: squared norm"):
        steps(ok, ok, (0.5, *ok[1:]))
    with pytest.raises(InfeasibleStepError, match="^stage 1 of 2: negative target"):
        steps((1.0, 0.5, 0.5, 1.0 + 1e-11, -1e-11), ok)
    with pytest.raises(InfeasibleStepError, match="^stage 2 of 2: equal targets"):
        steps(ok, (1.0, 0.7, 0.3, 0.5, 0.5))
    with pytest.raises(InfeasibleStepError, match="^stage 1 of 2: branch weight"):
        steps((1.0, 0.1, 0.9, 0.7, 0.3), ok)
    with pytest.raises(CompletenessError, match="^stage 2 of 2: sum K"):
        steps(ok, (1.0, np.nan, 0.5, 0.7, 0.3))
    # a stage with a zero pair column is checked through is_complete
    stage = steps((1.0, 0.5, 0.5, 1.0, 0.0))[0]
    assert stage.rows[1].tolist() == [0, 0, 2]
    assert is_complete(stage)[0]


def test_stacked_stages_view_one_stack():
    psi = np.sqrt([0.4, 0.3, 0.2, 0.1])
    gamma = np.sqrt([0.7, 0.2, 0.1, 0.0])
    stages = deterministic_protocol(psi, gamma)
    assert len(stages) >= 2
    base = stages[0].rows.base
    assert base is not None and all(ks.rows.base is base for ks in stages)
    assert all(ks.rows.flags.c_contiguous and ks.vals.flags.c_contiguous for ks in stages)


def run_stages(stages, psi):
    return apply_selective(compose(stages), pure_state(psi))


def test_deterministic_protocol_worked_example():
    psi = np.full(3, 1.0 / np.sqrt(3.0))
    gamma = np.sqrt([0.5, 0.3, 0.2])
    stages = deterministic_protocol(psi, gamma)
    assert len(stages) == 2
    branches = run_stages(stages, psi)
    total = sum(b.probability for b in branches)
    assert abs(total - 1.0) < 1e-12
    for b in branches:
        assert fidelity_pure(b.state, gamma.astype(complex)) >= 1.0 - 1e-12


def test_deterministic_protocol_interleaved_excess():
    psi = np.sqrt([0.4, 0.3, 0.2, 0.1])
    gamma = np.sqrt([0.45, 0.25, 0.25, 0.05])
    stages = deterministic_protocol(psi, gamma)
    assert 1 <= len(stages) <= 3
    for b in run_stages(stages, psi):
        assert fidelity_pure(b.state, gamma.astype(complex)) >= 1.0 - 1e-9


def test_deterministic_protocol_trivial_and_errors():
    c = np.sqrt([0.6, 0.4])
    assert deterministic_protocol(c, c) == []
    with pytest.raises(MajorizationError):
        deterministic_protocol(np.sqrt([0.9, 0.1]), np.sqrt([0.6, 0.4]))


def test_deterministic_protocol_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        x, y = random_majorized_pair(rng, d)
        psi, gamma = np.sqrt(x), np.sqrt(y)
        stages = deterministic_protocol(psi, gamma)
        assert len(stages) <= d - 1
        for ks in stages:
            ok, res = is_complete(ks)
            assert ok, f"stage residual {res:.3e}"
            assert is_incoherent(ks)[0]
        if not stages:
            assert np.abs(psi - gamma).max() < 1e-6
            continue
        branches = run_stages(stages, psi)
        assert abs(sum(b.probability for b in branches) - 1.0) < 1e-9
        for b in branches:
            assert fidelity_pure(b.state, gamma.astype(complex)) >= 1.0 - 1e-9


def reference_two_level_step(source, target_pair, i, j):
    """One stage built on its own, as before the stacked builder; it drops
    an operator on branch weight alone."""
    s = conversion._require_nonneg_real(source)
    d = s.size
    if not (1 <= i <= d and 1 <= j <= d) or i == j:
        raise ParameterError(f"bad coordinate pair ({i}, {j}) for dimension {d}")
    ci2, cj2 = float(target_pair[0]), float(target_pair[1])
    if min(ci2, cj2) < -TINY:
        raise InfeasibleStepError(f"negative target pair ({ci2}, {cj2})")
    ci2, cj2 = max(ci2, 0.0), max(cj2, 0.0)
    si2, sj2 = float(s[i - 1] ** 2), float(s[j - 1] ** 2)
    if abs((si2 + sj2) - (ci2 + cj2)) > ATOL:
        raise InfeasibleStepError("pair mass differs from target mass")
    if abs(ci2 - cj2) <= TINY:
        if abs(si2 - ci2) > ATOL:
            raise InfeasibleStepError("equal targets require an equal source pair")
        return conversion._identity(d)
    p1 = (si2 - cj2) / (ci2 - cj2)
    if p1 < -ATOL or p1 > 1.0 + ATOL:
        raise InfeasibleStepError(f"branch weight {p1!r} outside [0, 1]")
    p1 = min(max(p1, 0.0), 1.0)
    p2 = 1.0 - p1
    t1, t2 = np.sqrt(p1), np.sqrt(p2)
    ci, cj = np.sqrt(ci2), np.sqrt(cj2)
    a = np.full(d, t1)
    b = np.full(d, t2)
    th_i = np.arctan2(t2 * cj, t1 * ci)
    th_j = np.arctan2(t2 * ci, t1 * cj)
    a[i - 1], b[i - 1] = np.cos(th_i), np.sin(th_i)
    a[j - 1], b[j - 1] = np.cos(th_j), np.sin(th_j)
    rows = np.array([np.arange(d)] * 2)
    rows[1, i - 1], rows[1, j - 1] = j - 1, i - 1
    keep = [p1 > TINY, p2 > TINY]
    return channels._from_stored(rows[keep], np.array([a, b], dtype=complex)[keep])


def reference_deterministic_protocol(psi, gamma):
    """Stage by stage: the chain walked back from gamma as full vectors,
    then one reference step per transform."""
    s = conversion._require_canonical(psi)
    g = conversion._require_canonical(gamma)
    chain = ttransform_chain(prob_vector(s * s), prob_vector(g * g))
    useq = [prob_vector(g * g)]
    for tr in reversed(chain):
        useq.append(tr.apply(useq[-1]))
    useq.reverse()
    stages = []
    current = s.copy()
    for m, tr in enumerate(chain):
        target = useq[m + 1]
        pair = (float(target[tr.i - 1]), float(target[tr.j - 1]))
        stages.append(reference_two_level_step(current, pair, tr.i, tr.j))
        current[tr.i - 1] = np.sqrt(pair[0])
        current[tr.j - 1] = np.sqrt(pair[1])
    return stages


def canonical_masses(max_dim):
    """Sorted mass vectors with ties, exact zeros and masses near the 1e-12 floor."""
    floor = st.sampled_from([0.0, 1e-13, 5e-13, 1e-12, 2e-12, 1e-11])
    body = st.lists(st.integers(0, 4), min_size=1, max_size=max_dim).filter(any)
    return st.tuples(body, st.lists(floor, max_size=3)).map(
        lambda bt: np.sort(np.array(bt[0] + bt[1], dtype=float) / (sum(bt[0]) + sum(bt[1])))[::-1]
    )


def same_stage(a, b):
    return (
        a.rows.dtype == b.rows.dtype and a.rows.shape == b.rows.shape
        and a.rows.tobytes() == b.rows.tobytes()
        and a.vals.dtype == b.vals.dtype and a.vals.tobytes() == b.vals.tobytes()
        and a.labels == b.labels
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(canonical_masses(10), canonical_masses(10), st.sampled_from([0.0, 0.5, 1.0 - 1e-10, 1.0]))
@example(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1.0)
@example(np.array([0.5, 0.5 - 3e-9, 3e-9]), np.array([0.5, 0.5, 0.0]), 1.0)
def test_stacked_build_matches_stagewise_reference(x, y, mix):
    """``mix`` < 1 pulls y toward x's top-heavy rearrangement, which keeps y
    majorizing x; mix = 1 leaves independent draws, most not majorized."""
    d = max(x.size, y.size)
    x, y = np.pad(x, (0, d - x.size)), np.pad(y, (0, d - y.size))
    top = np.zeros(d)
    top[0] = 1.0
    y = mix * y + (1.0 - mix) * top
    y = np.sort(y / y.sum())[::-1]
    psi, gamma = np.sqrt(x), np.sqrt(y)
    try:
        want = reference_deterministic_protocol(psi, gamma)
    except CompletenessError:
        # the reference drops operators that still carry column mass; the
        # stacked build keeps them and must reach gamma with certainty
        stages = deterministic_protocol(psi, gamma)
        assert all(is_complete(ks)[0] for ks in stages)
        for b in run_stages(stages, psi):
            assert fidelity_pure(b.state, gamma.astype(complex)) >= 1.0 - 1e-9
        return
    except ValueError as err:
        with pytest.raises(type(err)):
            deterministic_protocol(psi, gamma)
        return
    got = deterministic_protocol(psi, gamma)
    assert len(got) == len(want)
    assert all(same_stage(a, b) for a, b in zip(got, want))


def test_optimal_protocol_worked_example():
    protocol = optimal_protocol(PSI, PHI)
    assert abs(protocol.probability - 1.0 / 3.0) < 1e-12
    report = verify_protocol(protocol, PSI, PHI)
    assert report.passes()
    assert abs(report.success_probability - 1.0 / 3.0) < 1e-9
    # verify_protocol raises on an incomplete stage, so these reports are built
    incomplete = report.stage_completeness[:-1] + (2e-9,)
    assert not dataclasses.replace(report, stage_completeness=incomplete).passes()
    overstated = report.declared_probability + 2e-9
    assert not dataclasses.replace(report, declared_probability=overstated).passes()
    assert report.min_success_fidelity >= 1.0 - 1e-9


def test_optimal_protocol_zero_probability():
    psi = np.full(2, 1.0 / np.sqrt(2.0))
    phi = np.full(3, 1.0 / np.sqrt(3.0))
    protocol = optimal_protocol(psi, phi)
    assert protocol.probability == 0.0
    assert protocol.stages == ()
    assert verify_protocol(protocol, psi, phi).passes()


def test_optimal_protocol_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        psi = random_pure_state(rng, d, phases=True)
        phi = random_pure_state(rng, d, phases=True)
        protocol = optimal_protocol(psi, phi)
        p = conversion_probability(psi, phi)
        assert abs(protocol.probability - p) < 1e-12
        report = verify_protocol(protocol, psi, phi)
        assert report.passes(), (
            f"d={d} prob={p} report={report}"
        )
        assert max(report.stage_completeness) < 1e-9
        assert report.success_count >= 1


def test_optimal_protocol_self_conversion_with_phases():
    rng = np.random.default_rng(31)
    psi = random_pure_state(rng, 4, phases=True)
    protocol = optimal_protocol(psi, psi)
    assert abs(protocol.probability - 1.0) < 1e-12
    report = verify_protocol(protocol, psi, psi)
    assert report.passes()
    assert abs(report.success_probability - 1.0) < 1e-9


def _protocol(stages, label="", probability=1.0):
    return Protocol(stages=tuple(stages), success_label=label, probability=probability)


def test_verify_protocol_merges_equal_branches():
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    half = np.sqrt(0.5) * np.eye(2, dtype=complex)
    # both outcomes leave the state unchanged: one live branch at any depth
    coin = kraus_set([half, half])
    report = verify_protocol(_protocol([coin] * 40), plus, plus)
    assert report.passes()
    assert report.branch_count == 1
    assert abs(report.success_probability - 1.0) < 1e-12
    # distinct labels keep equal states apart
    labelled = kraus_set([half, half], labels=["a", "b"])
    report = verify_protocol(_protocol([labelled], "a", 0.5), plus, plus)
    assert report.passes()
    assert (report.branch_count, report.success_count) == (2, 1)


def test_verify_protocol_checks_each_stage_once(monkeypatch):
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    half = np.sqrt(0.5) * np.eye(2, dtype=complex)
    protocol = _protocol([kraus_set([half, half], labels=["a", "b"])] * 12)
    calls = []

    def counting(k, *args, **kwargs):
        calls.append(k)
        return is_complete(k, *args, **kwargs)

    monkeypatch.setattr(channels, "is_complete", counting)
    monkeypatch.setattr(conversion, "is_complete", counting)
    report = verify_protocol(protocol, plus, plus)
    assert report.branch_count == 4096
    assert len(calls) == 12


def test_verify_protocol_rejects_incomplete_stage():
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    loose = kraus_set([np.sqrt(0.5 + 1e-7) * np.eye(2), np.sqrt(0.5) * np.eye(2)], atol=1e-6)
    with pytest.raises(CompletenessError):
        verify_protocol(_protocol([loose]), plus, plus)


def test_verify_protocol_branch_cap():
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    half = np.sqrt(0.5) * np.eye(2, dtype=complex)
    labelled = kraus_set([half, half], labels=["a", "b"])
    # distinct labels keep every branch apart: 2^stages of them
    protocol = _protocol([labelled] * 12, ".".join("a" * 12), 2.0**-12)
    report = verify_protocol(protocol, plus, plus)
    assert report.passes()
    assert (report.branch_count, report.success_count) == (4096, 1)
    assert 2**20 > COMPOSE_CAP
    with pytest.raises(ResourceLimitError):
        verify_protocol(_protocol([labelled] * 20), plus, plus)


def test_verify_protocol_keeps_distinct_states():
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    measure = kraus_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    report = verify_protocol(_protocol([measure]), plus, plus)
    # |0> and |1> share the empty label but are not merged
    assert report.branch_count == 2
    assert abs(report.success_probability - 1.0) < 1e-12
    assert abs(report.min_success_fidelity - 0.5) < 1e-12
    assert not report.passes()


def _scrambling_stage(rng, d):
    """Two unlabelled operators, each a random permutation with Dirichlet
    column weights and a global phase: the children of a branch share the
    empty label but differ in state, so the live branches nearly double with
    each stage, and paths reaching equal states leave them with different
    global phases."""
    ops = []
    for w in rng.dirichlet(np.ones(2), size=d).T:
        k = np.zeros((d, d), dtype=complex)
        k[rng.permutation(d), np.arange(d)] = np.sqrt(w) * np.exp(2j * np.pi * rng.random())
        ops.append(k)
    return kraus_set(ops)


def test_fingerprint_ignores_global_phase():
    rng = np.random.default_rng(6)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        # random moduli, and equal moduli, where the largest entry is a tie
        for psi in (random_pure_state(rng, d), np.exp(2j * np.pi * rng.random(d)) / np.sqrt(d)):
            turned = psi * np.exp(2j * np.pi * rng.random())
            assert conversion._fingerprint(turned) == conversion._fingerprint(psi)


def test_verify_protocol_unlabelled_branches_stay_fast():
    rng = np.random.default_rng(8)
    stage = _scrambling_stage(rng, 8)
    psi = random_pure_state(rng, 8)
    start = time.perf_counter()
    report = verify_protocol(_protocol([stage] * 12), psi, psi)
    assert time.perf_counter() - start < 0.5
    # children reaching equal states along different paths merged
    assert 2000 < report.branch_count < 4000
    assert abs(report.success_probability - 1.0) < 1e-9


def test_verify_protocol_unlabelled_branches_reach_cap():
    rng = np.random.default_rng(8)
    stage = _scrambling_stage(rng, 8)
    psi = random_pure_state(rng, 8)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        verify_protocol(_protocol([stage] * 20), psi, psi)
    assert time.perf_counter() - start < 5.0


def test_multicopy_probability():
    psi = pure_state([1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0])
    phi = pure_state(np.full(3, 1.0 / np.sqrt(3.0)))
    assert multicopy_probability(psi, phi, 1) == 0.0
    assert multicopy_probability(psi, phi, 2) == 0.0
    two = tensor_power(psi, 2)
    assert abs(multicopy_probability(two, phi, 1) - 1.0) < 1e-12
    src = np.sqrt([0.7, 0.1, 0.1, 0.1])
    tgt = np.full(2, 1.0 / np.sqrt(2.0))
    p = multicopy_probability(src, tgt, 2)
    assert abs(p - 0.4) < 1e-12
    explicit = conversion_probability(src, tensor_power(tgt, 2))
    assert abs(p - explicit) < 1e-15


def test_multicopy_guard_rails():
    uni = np.full(4, 0.5)
    tgt = np.full(2, 1.0 / np.sqrt(2.0))
    with pytest.raises(ParameterError):
        multicopy_probability(uni, tgt, 0)
    # 2^20 target amplitudes exceed the cap, and support 2^20 rules out
    # the shortcut
    with pytest.raises(ResourceLimitError):
        multicopy_probability(np.full(2**20, 2.0**-10), tgt, 20)


@pytest.mark.parametrize("n", [2.5, 1.5, 2.0])
def test_multicopy_rejects_non_integer_copy_counts(n):
    # n=2.5 used to return 0.0, the n=3 answer; n=2 gives 1
    with pytest.raises(ParameterError, match=f"got {re.escape(repr(n))}$"):
        multicopy_probability(np.full(4, 0.5), np.full(2, 1.0 / np.sqrt(2.0)), n)


def test_multicopy_support_shortcut_skips_tensor_power():
    # 2^20 target amplitudes exceed the cap, but support 4 < 2^20 decides P = 0
    uni = np.full(4, 0.5)
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    assert multicopy_probability(uni, plus, 20) == 0.0
    assert multicopy_probability(uni, plus, 10**9) == 0.0


def test_multicopy_support_one_target_is_fast():
    start = time.perf_counter()
    assert multicopy_probability(np.full(4, 0.5), [1.0, 0.0], 10**9) == 1.0
    assert time.perf_counter() - start < 0.01


def states(max_dim):
    """Pure states with integer weights, exact zero amplitudes and phases i^k."""
    weights = st.lists(st.integers(0, 4), min_size=1, max_size=max_dim).filter(any)
    return st.tuples(weights, st.lists(st.integers(0, 3), min_size=max_dim, max_size=max_dim)).map(
        lambda wk: np.sqrt(np.array(wk[0]) / sum(wk[0])) * 1j ** np.array(wk[1][: len(wk[0])])
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(states(9), states(3), st.sampled_from([2, 3]))
def test_multicopy_matches_explicit_tensor_power(psi, phi, n):
    p = multicopy_probability(psi, phi, n)
    explicit = conversion_probability(psi, tensor_power(phi, n))
    if support_size(psi) < support_size(phi) ** n:
        assert p == 0.0
        assert explicit == 0.0
    else:
        assert p == explicit


def test_multicopy_support_matches_probability_floor():
    # phi's second mass, 1e-16, lies below TINY: it counts toward neither
    # the support nor the probability
    phi = np.array([np.sqrt(1.0 - 1e-16), 1e-8])
    uni = np.full(3, 1.0 / np.sqrt(3.0))
    explicit = conversion_probability(uni, tensor_power(phi, 2))
    assert explicit == 1.0
    assert multicopy_probability(uni, phi, 2) == explicit


def test_multicopy_support_counts_products_above_floor():
    # both masses of phi exceed TINY, but their product, 4e-24, does not: two
    # copies have support 3 at the floor, so three uniform amplitudes suffice
    phi = np.sqrt([1.0 - 2e-12, 2e-12])
    uni = np.full(3, 1.0 / np.sqrt(3.0))
    explicit = conversion_probability(uni, tensor_power(phi, 2))
    assert explicit == 1.0
    assert multicopy_probability(uni, phi, 2) == explicit


def test_multicopy_support_bound_uses_phi_total_mass():
    # pure_state accepts a squared norm within 1e-9 of 1, so n copies of a
    # support-1 phi hold total**n, not 1, and all of it in one amplitude
    phi = [np.sqrt(1.0 - 3e-10), 0.0]
    assert conversion_probability([1.0, 0.0], tensor_power(phi, 2)) == 1.0
    assert multicopy_probability([1.0, 0.0], phi, 2) == 1.0
    # rounding alone: the mass 1 - 2**-52 to the power 10**4 is 1 - 2.2e-12
    assert multicopy_probability([1.0, 0.0], [np.sqrt(1.0 - 1e-16), 0.0], 10_000) == 1.0


def test_multicopy_power_skips_zero_amplitudes():
    # |0> has dimension 2 but support 1: its 20th power is one amplitude
    assert multicopy_probability(np.full(4, 0.5), [1.0, 0.0], 20) == 1.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(states(9), states(9))
@example(np.array([1.0, 0.0]), np.array([np.sqrt(1.0 - 1e-14), 1e-7]))
@example(np.array([np.sqrt(1.0 - 1e-14), 1e-7]), np.array([1.0, 0.0]))
@example(np.array([1.0, 0.0]), np.array([np.sqrt(1.0 - 1e-10), 1e-5]))
@example(np.array([np.sqrt(1.0 - 1e-10), 1e-5]), np.array([1.0, 0.0]))
@example(np.sqrt([0.5, 0.5 - 1e-10, 1e-10]), np.sqrt([0.5, 0.5]))
@example(np.sqrt([0.5, 0.5]), np.sqrt([0.5, 0.5 - 1e-10, 1e-10]))
def test_verified_protocol_matches_probability(psi, phi):
    p = conversion_probability(psi, phi)
    report = verify_protocol(optimal_protocol(psi, phi), psi, phi)
    assert report.passes(), report
    assert abs(report.success_probability - p) <= 1e-9
    assert report.branch_count <= 2
    d = max(psi.size, phi.size)
    a = np.pad(np.abs(psi) ** 2, (0, d - psi.size))
    b = np.pad(np.abs(phi) ** 2, (0, d - phi.size))
    # P = 1 iff phi majorizes psi (Vidal, PRL 83, 1046). Masses at or below
    # TINY count as zero; partial sums equal in exact arithmetic can leave
    # P an ulp or two below 1, never 1e-12 below it
    majorized = np.all(np.cumsum(sorted_desc(a)) <= np.cumsum(sorted_desc(b)) + TINY)
    assert majorized == (p >= 1.0 - 1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(states(9), states(9))
def test_protocol_stages_read_back_bit_exact(psi, phi):
    # the filter's fail operator has all-zero columns whenever P < 1
    for stage in optimal_protocol(psi, phi).stages:
        ops = stage.operators
        back = kraus_set(ops, labels=stage.labels)
        assert back.labels == stage.labels
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back.operators, ops))


def test_optimal_protocol_d512_stays_small():
    # dense stages would need about 4 GB here
    rng = np.random.default_rng(512)
    psi = random_pure_state(rng, 512, phases=True)
    phi = random_pure_state(rng, 512, phases=True)
    tracemalloc.start()
    try:
        report = verify_protocol(optimal_protocol(psi, phi), psi, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passes()
    assert abs(report.success_probability - conversion_probability(psi, phi)) <= 1e-9
    assert peak < 64 * 2**20


def test_stage_stack_cap_raises_before_allocating():
    # the d - 1 stages from uniform to a basis state at d = 20,000 would
    # need about 19 GB of stored operators; d = 4096 still fits
    d = 20_000
    assert 2 * (4096 - 1) * 4096 <= conversion.STAGE_CAP < 2 * (d - 1) * d
    basis = np.zeros(d)
    basis[0] = 1.0
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="stage entries exceed the cap"):
        deterministic_protocol(np.full(d, 1.0 / np.sqrt(d)), basis)
    assert time.perf_counter() - start < 1.0
