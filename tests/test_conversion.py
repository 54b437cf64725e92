import dataclasses
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcohere import (
    Branch,
    CompletenessError,
    InfeasibleStepError,
    MajorizationError,
    NoLadderError,
    NormalizationError,
    ParameterError,
    Protocol,
    ProtocolReport,
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
from qcohere import channels, conversion, simplex
from qcohere.simplex import TINY
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
    # the identity in stored form, bit for bit: rows arange(d), values 1
    ident = two_level_step(np.full(3, 1.0 / np.sqrt(3.0)), (1 / 3, 1 / 3), 1, 3)
    assert ident.rows.dtype == np.intp and ident.labels == ("",)
    assert ident.rows.tobytes() == np.arange(3)[None].tobytes()
    assert ident.vals.tobytes() == np.ones((1, 3), dtype=complex).tobytes()
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


@pytest.mark.parametrize("i", [1.5, 1.0, True, "1", None])
def test_two_level_step_coordinates_are_integers(i):
    # 1.5 raised numpy's IndexError deep inside the step; True was read as
    # coordinate 1
    s = np.full(2, 1.0 / np.sqrt(2.0))
    with pytest.raises(ParameterError):
        two_level_step(s, (0.4, 0.4), i, 2)
    with pytest.raises(ParameterError):
        two_level_step(s, (0.7, 0.3), 2, i)
    want = two_level_step(s, (0.7, 0.3), 1, 2)
    got = two_level_step(s, (0.7, 0.3), np.int32(1), np.int64(2))
    assert same_stage(got, want)


@pytest.mark.parametrize("pair", [(0.5,), 0.5, (0.5, 0.5, 0.0), ("0.5", 0.5), (0.5, 0.5 + 0j)])
def test_two_level_step_target_pair_is_two_real_numbers(pair):
    # (0.5,) raised IndexError and 0.5 raised TypeError
    s = np.full(2, 1.0 / np.sqrt(2.0))
    with pytest.raises(ParameterError):
        two_level_step(s, pair, 1, 2)
    want = two_level_step(s, (0.7, 0.3), 1, 2)
    assert same_stage(two_level_step(s, np.array([0.7, 0.3]), 1, 2), want)


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


def test_two_level_step_names_what_is_infeasible():
    s = np.sqrt([0.5, 0.5, 0.0])
    with pytest.raises(InfeasibleStepError, match="^pair mass"):
        two_level_step(s, (0.8, 0.3), 1, 2)
    with pytest.raises(NormalizationError, match="^squared norm"):
        two_level_step(np.sqrt([0.25, 0.25, 0.0]), (0.25, 0.25), 1, 2)
    with pytest.raises(InfeasibleStepError, match="^negative target"):
        two_level_step(s, (1.0 + 1e-11, -1e-11), 1, 2)
    with pytest.raises(InfeasibleStepError, match="^equal targets"):
        two_level_step(np.sqrt([0.7, 0.3, 0.0]), (0.5, 0.5), 1, 2)
    with pytest.raises(InfeasibleStepError, match="^branch weight"):
        two_level_step(np.sqrt([0.1, 0.9, 0.0]), (0.7, 0.3), 1, 2)
    with pytest.raises(InfeasibleStepError, match="^branch weight"):
        two_level_step(s, (np.nan, 0.5), 1, 2)


def test_stacked_steps_build_each_stage():
    ok = (0.5, 0.7, 0.3)  # u, a, b of a feasible step

    def steps(*stages):
        cols = list(zip(*stages))
        return conversion._pair_steps(3, *cols, [0] * len(stages), [1] * len(stages))

    assert len(steps(ok, ok)) == 2
    # a zero pair column leaves operator 2 a zero on the row its other pair
    # column is swapped to; is_complete never pairs a stored zero up
    stage = steps((0.5, 1.0, 0.0))[0]
    assert stage.rows[1].tolist() == [0, 0, 2]
    assert is_complete(stage)[0]
    # a share outside [0, 1] is clipped, not turned into NaN operators
    for u, want in ((2.0, 1.0), (-1.5, 0.0)):
        (got,) = steps((u, 0.7, 0.3))
        assert np.isfinite(got.vals).all() and is_complete(got)[0]
        assert got.vals.tobytes() == steps((want, 0.7, 0.3))[0].vals.tobytes()


@pytest.mark.parametrize("gamma2", [[0.5 + 1e-13, 0.5 - 1e-13], [0.5, 0.5], [0.5 - 0.5e-13, 0.5 + 0.5e-13]])
def test_near_tied_pair_builds_complete_stages(gamma2):
    # canonical inputs may rise by TINY: the sweep's share was 2 (NaN
    # operators), a division by a - b = 0, or -2.5 on these pairs
    psi = np.sqrt([0.5 - 3e-13, 0.5 + 3e-13])
    gamma = np.sqrt(gamma2)
    stages = deterministic_protocol(psi, gamma)
    assert all(np.isfinite(ks.vals).all() and is_complete(ks)[0] for ks in stages)
    report = verify_protocol(optimal_protocol(psi, gamma), psi, gamma)
    assert report.passes() and report.success_probability == 1.0


EDGE_MASSES = st.sampled_from([0.0, 5e-324, 1e-13, 1e-12 * (1 - 1e-9), 1e-12, 1e-12 * (1 + 1e-9),
                               2e-12, 1e-9, 0.25, 0.5])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(EDGE_MASSES | st.floats(0.0, 1.0), min_size=2, max_size=6).filter(lambda m: sum(m) > 0),
       st.data())
def test_built_stages_are_complete(masses, data):
    """The chain builder is exact by construction and measures nothing: every
    stage that two_level_step, deterministic_protocol and optimal_protocol
    build passes is_complete, over ties, zero, subnormal and near-floor
    masses and the branch weights at u = 0 and 1."""
    g = np.sort(np.array(masses) / sum(masses))[::-1]
    d = g.size
    # the step whose source mixes target masses (a, b) at a pair by the share u
    i, j = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    u = data.draw(st.sampled_from([0.0, 1.0, 5e-324, 1e-12, 1.0 - 1e-12]) | st.floats(0.0, 1.0))
    a, b = g[i], g[j]
    x = g.copy()
    x[i], x[j] = (1.0 - u) * a + u * b, u * a + (1.0 - u) * b
    stages = [two_level_step(np.sqrt(x), (a, b), i + 1, j + 1)]
    # a canonical source majorized by g: a few T-transforms of g, re-sorted
    ts = data.draw(st.lists(st.tuples(st.integers(1, d - 1), st.sampled_from([0.0, 0.5, 1.0 - 1e-12, 1.0])
                                      | st.floats(0.0, 1.0)), max_size=4))
    psi = np.sqrt(np.sort(simplex.apply_chain([simplex.TTransform(1, k + 1, t) for k, t in ts], g))[::-1])
    stages += deterministic_protocol(psi, np.sqrt(g))
    stages += optimal_protocol(np.sqrt(g[::-1]), psi).stages + optimal_protocol(psi, np.sqrt(g)).stages
    assert all(is_complete(ks)[0] for ks in stages)


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


def reference_step(d, u, a, b, i, j):
    """One stage built on its own from a chain record (i, j, u, a, b), as
    before the stacked builder; it drops an operator on branch weight alone."""
    p1, p2 = 1.0 - u, u
    t1, t2 = np.sqrt(p1), np.sqrt(p2)
    ci, cj = np.sqrt(a), np.sqrt(b)
    ops = np.array([np.full(d, t1), np.full(d, t2)], dtype=complex)
    th_i = np.arctan2(t2 * cj, t1 * ci)
    th_j = np.arctan2(t2 * ci, t1 * cj)
    ops[:, i] = np.cos(th_i), np.sin(th_i)
    ops[:, j] = np.cos(th_j), np.sin(th_j)
    rows = np.array([np.arange(d)] * 2)
    rows[1, i], rows[1, j] = j, i
    keep = [p1 > TINY, p2 > TINY]
    return channels._require_complete(channels.KrausSet(rows[keep], ops[keep]))


def reference_deterministic_protocol(psi, gamma):
    """Stage by stage: one reference step per record of the chain sweep,
    whose own reference is in test_simplex.py."""
    s = conversion._require_canonical(psi)
    g = conversion._require_canonical(gamma)
    return [
        reference_step(s.size, u, a, b, i, j) for i, j, u, a, b in simplex._transfers(s * s, g * g)
    ]


def canonical_masses(max_dim):
    """Sorted mass vectors with ties, exact zeros and masses near the 1e-12 floor."""
    floor = st.sampled_from([0.0, 1e-13, 5e-13, 1e-12, 2e-12, 1e-11, 3e-11, 1e-10])
    body = st.lists(st.integers(0, 4), min_size=1, max_size=max_dim).filter(any)
    return st.tuples(body, st.lists(floor, max_size=5)).map(
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


def framed(masses, rng):
    """Amplitudes of ``masses`` in random order with random phases."""
    return rng.permutation(np.sqrt(masses)) * np.exp(2j * np.pi * rng.random(masses.size))


def reference_optimal_protocol(psi, phi):
    """optimal_protocol from its public pieces: the canonical pair, the
    ladder, the stages of each ladder block, the filter, and the two frames
    as one-operator sets joined to the end stages by compose."""
    if conversion_probability(psi, phi) <= 0.0:
        return _protocol((), "success", 0.0)
    cs, ct = conversion.canonical_pair(psi, phi)
    d = cs.state.size
    ladder = build_ladder(cs.state, ct.state)
    s, g = cs.state, ladder.gamma
    det = conversion._block_stages(s * s, g * g, [l - 1 for l in ladder.breakpoints[::-1]])
    det = det or [channels.KrausSet(np.arange(d)[None], np.ones((1, d), dtype=complex))]
    filt = filter_operator(ladder, ct.state)
    w_in = channels.KrausSet(np.argsort(cs.permutation)[None], cs.phases[None])
    w_out = channels.KrausSet(ct.permutation[None], ct.phases[ct.permutation].conj()[None])
    stages = [compose([w_in, det[0]]), *det[1:], compose([filt, w_out])]
    return _protocol(stages, "success", ladder.success_probability)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(canonical_masses(10), canonical_masses(10), st.integers(0, 2**32 - 1))
# equal moduli in two frames: the chain is empty, so the first stage is the
# source frame alone, where the reference composes it with the identity
@example(np.array([0.5, 0.3, 0.2]), np.array([0.5, 0.3, 0.2]), 7)
# a target zero-padded to the source's dimension
@example(np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.6, 0.4]), 11)
def test_optimal_protocol_matches_composed_reference(x, y, seed):
    # ties, zeros, masses near the floor and unequal dimensions, in random
    # order and with random phases; the protocol equals the one composed
    # from the public pieces bit for bit
    rng = np.random.default_rng(seed)
    psi, phi = framed(x, rng), framed(y, rng)
    got, want = optimal_protocol(psi, phi), reference_optimal_protocol(psi, phi)
    assert got.probability == want.probability
    assert len(got.stages) == len(want.stages)
    assert all(same_stage(a, b) for a, b in zip(got.stages, want.stages))


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


def test_report_with_nan_does_not_pass():
    # NaN compares false with ATOL: a NaN residual ahead of an incomplete
    # one, or a NaN success probability, let passes() return True
    report = verify_protocol(optimal_protocol(PSI, PHI), PSI, PHI)
    nan = float("nan")
    for residuals in ((nan, 2e-9), (0.0, nan)):
        assert not dataclasses.replace(report, stage_completeness=residuals).passes()
    assert not dataclasses.replace(report, success_probability=nan).passes()


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


def test_verify_protocol_validates_states_of_an_empty_protocol():
    # with no stage to run, the states went unchecked and the report passed
    empty = _protocol((), "success", 0.0)
    for psi in ([np.nan, 1.0], [3.0, 4.0], [[0.6, 0.8]]):
        with pytest.raises(NormalizationError):
            verify_protocol(empty, psi, [1.0, 0.0])
        with pytest.raises(NormalizationError):
            verify_protocol(empty, [1.0, 0.0], psi)
    assert verify_protocol(empty, [0.6, 0.8], [1.0, 0.0]).passes()


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
    # one pass: the kernel measures the 12 stages as one stack, none twice
    measured = []
    kernel = channels._residuals

    def counting(stages):
        measured.append(len(stages))
        return kernel(stages)

    monkeypatch.setattr(channels, "_residuals", counting)
    report = verify_protocol(protocol, plus, plus)
    assert report.branch_count == 4096
    assert measured == [12]


def test_complete_stage_on_a_valid_state_is_replayed():
    # a stage complete within ATOL on a state whose squared norm is within
    # 1e-9 of 1: a second test on the branch sum refused the pair
    stage = kraus_set([np.sqrt(1 + 5e-10) * np.eye(4)])
    psi = np.full(4, 0.5) * np.sqrt(1 + 9e-10)
    assert is_complete(stage)[0]
    (branch,) = apply_selective(stage, psi)
    assert abs(branch.probability - 1.0) <= 2e-9
    report = verify_protocol(_protocol([stage]), psi, psi)
    assert report.stage_completeness == (is_complete(stage)[1],)
    assert report.success_probability == branch.probability
    assert (report.branch_count, report.success_count) == (1, 1)


def test_verify_protocol_rejects_incomplete_stage():
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    loose = channels.KrausSet(*channels._stored([np.sqrt(0.5 + 1e-7) * np.eye(2),
                                                     np.sqrt(0.5) * np.eye(2)]))
    # the one completeness text, naming the stage as the loaders do
    with pytest.raises(CompletenessError,
                       match=r"^stage 2 of 2: sum K\^dag K deviates from identity by 1\.000e-07$"):
        verify_protocol(_protocol([kraus_set([np.eye(2)]), loose]), plus, plus)


def test_verify_protocol_rejects_a_nan_stage():
    # a NaN residual compared false with ATOL, so the verifier let the stage
    # through; its NaN branch was dropped and the report passed
    nan = channels.KrausSet(rows=np.array([[0, 1], [0, 1]]), vals=np.array([[1.0, 0.0], [0.0, np.nan]], dtype=complex),
                   labels=("success", ""))
    with pytest.raises(CompletenessError, match=r"^stage 1 of 1: sum K\^dag K deviates from identity by nan$"):
        verify_protocol(_protocol([nan], "success", 1.0), [1.0, 0.0], [1.0, 0.0])


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


@pytest.mark.wallclock
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


@pytest.mark.wallclock
def test_verify_protocol_unlabelled_branches_reach_cap():
    rng = np.random.default_rng(8)
    stage = _scrambling_stage(rng, 8)
    psi = random_pure_state(rng, 8)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        verify_protocol(_protocol([stage] * 20), psi, psi)
    assert time.perf_counter() - start < 5.0


def reference_verify_protocol(protocol, psi, phi):
    """verify_protocol's replay with Branch objects from apply_selective,
    one child normalized at a time, and the merge rule of its step."""
    d = protocol.stages[0].dim
    psi = conversion._pad(pure_state(psi), d)
    phi = conversion._pad(pure_state(phi), d)
    branches = [Branch(probability=1.0, state=psi)]
    for stage in protocol.stages:
        many = len(branches) * len(stage) > conversion.SCAN_LIMIT
        out = {}
        for parent in branches:
            for child in apply_selective(stage, parent.state):
                p = parent.probability * child.probability
                if p <= TINY:
                    continue
                label = channels._join(parent.label, child.label)
                key = (label, conversion._fingerprint(child.state) if many else None)
                kept = out.setdefault(key, [])
                for k, b in enumerate(kept):
                    if fidelity_pure(b.state, child.state) >= 1.0 - TINY:
                        kept[k] = Branch(b.probability + p, b.state, label)
                        break
                else:
                    kept.append(Branch(p, child.state, label))
        branches = [b for kept in out.values() for b in kept]
    succ = [b for b in branches if b.label == protocol.success_label]
    return ProtocolReport(
        stage_completeness=tuple(is_complete(stage)[1] for stage in protocol.stages),
        success_probability=float(sum(b.probability for b in succ)),
        declared_probability=protocol.probability,
        min_success_fidelity=float(min((fidelity_pure(phi, b.state) for b in succ), default=1.0)),
        branch_count=len(branches), success_count=len(succ),
    )


def assert_same_report(protocol, psi, phi):
    got = verify_protocol(protocol, psi, phi)
    want = reference_verify_protocol(protocol, psi, phi)
    for field in dataclasses.fields(ProtocolReport):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    return got


def test_verify_protocol_matches_branch_reference():
    # optimal protocols, near the floor too, carry at most two branches
    rng = np.random.default_rng(44)
    dust = (np.array([0.45, 0.25, 0.2, 0.1 - 1.1e-12, 1.1e-12]), np.array([0.45, 0.25, 0.2, 0.1]))
    masses = [dust] + [tuple(rng.dirichlet(np.ones(d), size=2)) for d in (3, 6, 9, 12, 14)]
    pairs = [(PSI, PHI), (PHI, PSI), (PSI, PSI)] + [(framed(x, rng), framed(y, rng)) for x, y in masses]
    for psi, phi in pairs:
        assert assert_same_report(optimal_protocol(psi, phi), psi, phi).branch_count <= 2
    # labelled coins keep 2^stages branches apart: compared with every kept
    # branch up to SCAN_LIMIT children, by fingerprint cell beyond it
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    half = np.sqrt(0.5) * np.eye(2, dtype=complex)
    labelled = kraus_set([half, half], labels=["a", "b"])
    for n in (1, 2, 3, 4, 8):
        report = assert_same_report(_protocol([labelled] * n, ".".join("a" * n), 2.0**-n), plus, plus)
        assert report.branch_count == 2**n
    # unlabelled scrambling stages merge equal states reached along different paths
    stage = _scrambling_stage(np.random.default_rng(8), 8)
    psi = random_pure_state(np.random.default_rng(9), 8)
    for n in (1, 2, 3, 8):
        assert_same_report(_protocol([stage] * n), psi, psi)


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


@pytest.mark.parametrize("n", [2.5, 1.5, 2.0, True])
def test_multicopy_rejects_non_integer_copy_counts(n):
    # n=2.5 used to return 0.0, the n=3 answer; n=2 gives 1
    with pytest.raises(ParameterError, match=f"got {re.escape(repr(n))}$"):
        multicopy_probability(np.full(4, 0.5), np.full(2, 1.0 / np.sqrt(2.0)), n)


@pytest.mark.parametrize("n", [0, -1, 1.5, True])
def test_support_shortcut_rejects_bad_copy_counts(n):
    # n = 1.5 answered True for psi = (1, 0) and phi = (sqrt 1/2, sqrt 1/2),
    # and n = -1 with phi = (1, 0) warned "divide by zero"
    for phi in (np.full(2, 1.0 / np.sqrt(2.0)), [1.0, 0.0]):
        with pytest.raises(ParameterError, match=f"got {re.escape(repr(n))}$"):
            conversion.support_shortcut([1.0, 0.0], phi, n)


def test_multicopy_support_shortcut_skips_tensor_power():
    # 2^20 target amplitudes exceed the cap, but support 4 < 2^20 decides P = 0
    uni = np.full(4, 0.5)
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    assert multicopy_probability(uni, plus, 20) == 0.0
    assert multicopy_probability(uni, plus, 10**9) == 0.0


@pytest.mark.wallclock
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


def phased_states(max_dim):
    """Pure states with tied and zero weights, masses near 1e-12 and
    arbitrary phases, so that re^2 + im^2 and |amplitude|^2 round apart."""
    weight = st.one_of(st.integers(0, 4), st.sampled_from([1e-11, 2e-11, 5e-11]))
    weights = st.lists(weight, min_size=1, max_size=max_dim).filter(lambda w: sum(w) >= 1)
    phases = st.lists(st.floats(0.0, 2 * np.pi), min_size=max_dim, max_size=max_dim)
    return st.tuples(weights, phases).map(
        lambda wp: np.sqrt(np.array(wp[0]) / sum(wp[0])) * np.exp(1j * np.array(wp[1][: len(wp[0])]))
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(phased_states(8), st.one_of(
    phased_states(8),
    st.tuples(phased_states(3), st.sampled_from([2, 3])).map(lambda t: tensor_power(*t)),
))
def test_protocol_declares_the_conversion_probability(psi, phi):
    p = conversion_probability(psi, phi)
    protocol = optimal_protocol(psi, phi)
    if protocol.stages:
        assert protocol.probability == p
    else:
        assert p == 0.0


def test_optimal_protocol_computes_the_probability_once(monkeypatch):
    calls = []

    def counted(psi, phi):
        calls.append(1)
        return conversion_probability(psi, phi)

    monkeypatch.setattr(conversion, "conversion_probability", counted)
    for psi, phi in ((PSI, PHI), (PHI, PSI), ([1.0, 0.0], PHI)):
        optimal_protocol(psi, phi)
    assert not calls


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


def amplitudes(masses):
    """Square roots of the masses, renormalized."""
    m = np.array(masses, dtype=float)
    return np.sqrt(m / m.sum())


def passing_protocol(psi, phi):
    protocol = optimal_protocol(psi, phi)
    report = verify_protocol(protocol, psi, phi)
    assert report.passes(), report
    assert protocol.probability == conversion_probability(psi, phi)
    return protocol, report


def test_later_rungs_divide_blocks_below_the_floor():
    # P = 5.0e-11 at l = 5; the second rung's block [4, 4] holds 0.95e-12 of
    # source mass, below the floor, which used to raise NoLadderError. The
    # third masses complete the sum to 1: renormalizing would lift the
    # source's last four masses, 1e-12 in all, above the floor and make P 0
    tail_psi = [0.95e-12] + [2.5e-13] * 20
    tail_phi = [0.00625] * 17 + [2.5e-13] * 4
    psi = np.sqrt([0.5, 0.3, 1.0 - 0.8 - sum(tail_psi), *tail_psi])
    phi = np.sqrt([0.4, 0.3, 1.0 - 0.7 - sum(tail_phi), *tail_phi])
    protocol, _ = passing_protocol(psi, phi)
    assert abs(protocol.probability - 5e-11) <= 1e-21


def test_near_floor_chain_keeps_majorization():
    # at P = 9.8e-9 the ATOL sweep left dust it could not place and raised
    # "majorization lost during chain construction"
    psi = amplitudes([0.98920, 0.010804, 1.26e-9, 1.05e-9, 5.1e-10, 1.6e-10, 2.7e-12, 7.8e-13])
    phi = amplitudes([0.35652, 0.33945, 0.23910, 0.064933, 1.6e-12, 1.3e-12, 3.4e-13, 6.5e-14])
    protocol, _ = passing_protocol(psi, phi)
    assert 9.8e-9 < protocol.probability < 9.9e-9


def test_ratio_tie_is_relative():
    # an absolute tie of 1e-12 took l = 6 over the smaller ratio at l = 7
    # (4.5418e-11 against 4.5018e-11), and gamma then failed to majorize psi
    # inside that block: success fidelity 1 - 1.3e-6
    psi = amplitudes([0.385, 0.232, 0.201, 0.124, 0.057, 1.98e-12, 1.66e-12])
    phi = amplitudes([0.505, 0.175, 0.0851, 0.083, 0.0714, 0.0433, 0.0369])
    a, b = psi**2, phi**2
    tails = [a[l:].sum() / b[l:].sum() for l in range(7)]
    assert int(np.argmin(tails)) == 6
    protocol, _ = passing_protocol(psi, phi)
    assert abs(protocol.probability - min(tails)) <= 1e-12 * min(tails)


def test_dust_transfer_leaves_one_success_branch():
    # the leftmost donor pays the dust its exact room: its own excess,
    # 0.1 - (0.1 - 1.1e-12), is off by about 1e-5 relative, enough to keep
    # the two outcomes of the step apart
    psi = amplitudes([0.45, 0.25, 0.2, 0.1 - 1.1e-12, 1.1e-12])
    phi = amplitudes([0.45, 0.25, 0.2, 0.1, 0.0])
    _, report = passing_protocol(psi, phi)
    assert report.success_count == 1
    assert report.min_success_fidelity >= 1.0 - 1e-14


@settings(max_examples=300, deadline=None, derandomize=True)
@given(canonical_masses(10), canonical_masses(10), st.integers(0, 2**32 - 1))
def test_near_floor_protocols_pass_their_verifier(x, y, seed):
    # masses near the 1e-12 floor, ties, zeros and unequal dimensions, in
    # random order and with random phases
    rng = np.random.default_rng(seed)
    psi, phi = framed(x, rng), framed(y, rng)
    if conversion_probability(psi, phi) > 0.0:
        passing_protocol(psi, phi)


def test_no_transfer_crosses_a_ladder_block():
    # the tails of psi and gamma agree at every breakpoint, so each block is
    # swept on its own; one sweep over the whole vector turns the rounding
    # left at block ends into extra stages of about 1e-17 across blocks
    rng = np.random.default_rng(32)
    for _ in range(8):
        psi, phi = (np.sort(np.sqrt(rng.dirichlet(np.ones(32))))[::-1] for _ in range(2))
        block = np.searchsorted(-np.array(build_ladder(psi, phi).breakpoints), -np.arange(1, 33))
        for stage in optimal_protocol(psi, phi).stages[1:-1]:
            pair = np.flatnonzero(stage.rows[-1] != np.arange(32))
            assert pair.size == 2 and block[pair[0]] == block[pair[1]]


@pytest.mark.wallclock
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


@pytest.mark.wallclock
def test_conversion_round_trip_batch_is_fast():
    # the probability, the protocol and its replay for pairs of the sizes in
    # the convert_verify benchmark: about 0.2 s on a 2-CPU machine
    rng = np.random.default_rng(200)
    pairs = [
        tuple(random_pure_state(rng, int(rng.integers(3, 15)), phases=True) for _ in range(2))
        for _ in range(200)
    ]
    start = time.perf_counter()
    for psi, phi in pairs:
        conversion_probability(psi, phi)
        assert verify_protocol(optimal_protocol(psi, phi), psi, phi).passes()
    assert time.perf_counter() - start < 2.0


@pytest.mark.wallclock
def test_unequal_dimension_protocol_is_linear():
    # the target is zero-padded to the source's d = 1024, and every stage
    # moving mass into an empty coordinate stores a zero on a row that a
    # nonzero entry of its operator also uses. Completeness needs no d x d
    # matrix there: about 0.25 s on a 2-CPU machine, where forming one per
    # such stage took 40 to 50 s
    rng = np.random.default_rng(1024)
    psi, phi = (
        pure_state(np.sqrt(rng.dirichlet(np.ones(d))) * np.exp(2j * np.pi * rng.random(d)))
        for d in (1024, 512)
    )
    start = time.perf_counter()
    assert verify_protocol(optimal_protocol(psi, phi), psi, phi).passes()
    assert time.perf_counter() - start < 2.0


@pytest.mark.wallclock
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
