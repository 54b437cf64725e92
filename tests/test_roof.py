import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcohere import (
    CoherenceFunctional,
    ParameterError,
    ResourceLimitError,
    _roofopt,
    builtin,
    coherence_pure,
    convex_roof_upper,
    extract_functional,
    pure_density,
)
from qcohere.measures import EIGEN_NUDGE, ROOF_CAP
from randgen import random_pure_state

BUILTINS = (builtin("shannon"), builtin("l1"), builtin("alpha", alpha=0.5), builtin("kyfan", l=2))


def qubit_shannon_roof(rho):
    """Closed form for the shannon roof of a qubit state."""
    off = abs(rho[0, 1])
    arg = max(1.0 - 4.0 * off * off, 0.0)
    p = 0.5 * (1.0 + np.sqrt(arg))
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def mixture_density(rng, d, k):
    rho = np.zeros((d, d), dtype=complex)
    w = rng.dirichlet(np.ones(k))
    for i in range(k):
        v = random_pure_state(rng, d)
        rho += w[i] * np.outer(v, v.conj())
    return rho


def test_pure_state_recovers_pure_value():
    f = builtin("shannon")
    psi = np.sqrt([0.5, 0.3, 0.2]).astype(complex)
    res = convex_roof_upper(f, pure_density(psi), restarts=2, seed=0)
    assert abs(res.value - coherence_pure(f, psi)) < 1e-10


def test_diagonal_state_is_free():
    f = builtin("l1")
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    res = convex_roof_upper(f, rho, seed=0)
    assert res.value == 0.0
    assert len(res.ensemble) == 3
    for w, v in res.ensemble:
        assert np.count_nonzero(np.abs(v) > 1e-12) == 1


def test_qubit_closed_form():
    f = builtin("shannon")
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(6):
        rho = mixture_density(rng, 2, 2)
        res = convex_roof_upper(f, rho, restarts=8, seed=1)
        exact = qubit_shannon_roof(rho)
        assert res.value >= exact - 1e-9
        worst = max(worst, res.value - exact)
    assert worst < 1e-6


def test_mixed_state_beats_eigen_average():
    rng = np.random.default_rng(11)
    for f in (builtin("shannon"), builtin("l1"), builtin("alpha", alpha=0.5), builtin("kyfan", l=2)):
        rho = mixture_density(rng, 3, 3)
        vals, vecs = np.linalg.eigh(rho)
        eigen_avg = sum(
            w * coherence_pure(f, vecs[:, i]) for i, w in enumerate(vals) if w > 1e-12
        )
        res = convex_roof_upper(f, rho, restarts=4, seed=0)
        assert res.value <= eigen_avg + 1e-9


def test_ensemble_invariants():
    f = builtin("l1")
    rng = np.random.default_rng(21)
    rho = mixture_density(rng, 3, 2)
    res = convex_roof_upper(f, rho, restarts=4, seed=3)
    weights = np.array([w for w, _ in res.ensemble])
    assert abs(weights.sum() - 1.0) < 1e-9
    avg = sum(w * coherence_pure(f, v) for w, v in res.ensemble)
    assert abs(avg - res.value) < 1e-9
    remix = sum(w * np.outer(v, v.conj()) for w, v in res.ensemble)
    assert np.max(np.abs(remix - rho)) < 1e-7


def test_deterministic_for_fixed_seed():
    f = builtin("shannon")
    rng = np.random.default_rng(31)
    rho = mixture_density(rng, 3, 3)
    a = convex_roof_upper(f, rho, restarts=3, seed=9)
    b = convex_roof_upper(f, rho, restarts=3, seed=9)
    assert a.value == b.value


def test_user_functional_gets_roof_bound():
    # no analytic gradient: the search runs on central differences of evaluate
    g = extract_functional(lambda v: coherence_pure(builtin("shannon"), v), 2)
    assert g.gradient is None
    rng = np.random.default_rng(8)
    rhos = [np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)]
    rhos += [mixture_density(rng, 2, 2) for _ in range(2)]
    for rho in rhos:
        res = convex_roof_upper(g, rho, restarts=2, seed=0)
        assert abs(res.value - qubit_shannon_roof(rho)) <= 1e-6


def test_replaced_evaluate_is_what_the_search_scores():
    # a copy with a per-point evaluate is probed again on construction, so
    # the search scores the new function, twice the shannon roof here
    g = dataclasses.replace(builtin("shannon"), evaluate=lambda x: 2.0 * coherence_pure(
        builtin("shannon"), np.sqrt(x)), gradient=None)
    assert builtin("shannon").stacks and not g.stacks
    rho = mixture_density(np.random.default_rng(8), 2, 2)
    res = convex_roof_upper(g, rho, restarts=2, seed=0)
    assert abs(res.value - 2.0 * qubit_shannon_roof(rho)) <= 2e-6


def test_numpy_functional_gives_the_same_bits_stacked_and_per_point():
    # linear entropy 1 - sum x_i^2, once as a reduction over the last axis
    # and once forced onto one evaluate call per point
    stacked = CoherenceFunctional("linear", lambda x: 1.0 - (x * x).sum(axis=-1))
    pointwise = CoherenceFunctional("linear", lambda x: float(1.0 - (x * x).sum()))
    assert stacked.stacks and not pointwise.stacks
    rng = np.random.default_rng(13)
    for d, rank in ((2, 2), (3, 2)):
        rho = mixture_density(rng, d, rank)
        a = convex_roof_upper(stacked, rho, restarts=2, seed=1)
        b = convex_roof_upper(pointwise, rho, restarts=2, seed=1)
        assert repr(a.value) == repr(b.value) and a.restarts == b.restarts
        assert [w for w, _ in a.ensemble] == [w for w, _ in b.ensemble]
        assert all(u.tobytes() == v.tobytes() for (_, u), (_, v) in zip(a.ensemble, b.ensemble))


def test_invalid_density_rejected():
    f = builtin("shannon")
    with pytest.raises(Exception):
        convex_roof_upper(f, np.array([[0.9, 0.0], [0.0, 0.2]], dtype=complex))


def test_restart_reports():
    rho = mixture_density(np.random.default_rng(41), 3, 2)
    for f, stops in ((builtin("shannon"), {"converged", "stalled", "cap"}),
                     (builtin("l1"), {"converged", "stalled", "cap"})):
        res = convex_roof_upper(f, rho, restarts=3, seed=0)
        assert len(res.restarts) == 3
        assert {r.stop for r in res.restarts} <= stops
        assert all(r.iterations > 0 for r in res.restarts)
        assert res.value <= min(r.value for r in res.restarts) + 1e-12
    pure = pure_density(np.sqrt([0.5, 0.5]))
    assert convex_roof_upper(builtin("shannon"), pure).restarts == ()
    assert convex_roof_upper(builtin("shannon"), np.diag([0.5, 0.5])).restarts == ()
    with pytest.raises(ParameterError):
        convex_roof_upper(builtin("shannon"), rho, restarts=0)


@pytest.mark.parametrize("restarts", [0, -1, 2.5, 2.0, True, "2", None])
def test_restart_count_must_be_a_positive_integer(restarts):
    # a diagonal input needs no search, but its count is still checked: 2.5,
    # 2.0 and True used to pass here, "2" and None to raise TypeError
    rho = np.diag([0.5, 0.5])
    with pytest.raises(ParameterError):
        convex_roof_upper(builtin("shannon"), rho, restarts=restarts)
    assert convex_roof_upper(builtin("shannon"), rho, restarts=np.int64(1)).value == 0.0


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
def test_roof_seed_must_be_a_nonnegative_integer(seed):
    # -1 raised numpy's ValueError, 1.5 a TypeError and True was read as 1;
    # a diagonal or pure input never read its seed
    mixed = mixture_density(np.random.default_rng(5), 2, 2)
    for rho in (np.diag([0.5, 0.5]), pure_density(np.sqrt([0.5, 0.5])), mixed):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            convex_roof_upper(builtin("shannon"), rho, restarts=2, seed=seed)
    want = convex_roof_upper(builtin("shannon"), mixed, restarts=2, seed=0)
    got = convex_roof_upper(builtin("shannon"), mixed, restarts=2, seed=np.int64(0))
    assert (got.value, got.restarts) == (want.value, want.restarts)


def random_density(rng, d, rank):
    """The recipe of the benchmark's roof corpus."""
    w = rng.dirichlet(np.ones(rank))
    rho = np.zeros((d, d), dtype=complex)
    for k in range(rank):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        rho += w[k] * np.outer(v, v.conj())
    return rho


# Roof values of the benchmark corpus from the conjugate-gradient search: one
# restart, seed 0, recorded with numpy 2.4.6. They serve as a ceiling, 1e-12
# above the recorded bits: no change may raise a value.
CORPUS_VALUES = {
    (2, 2): (0.47342947888929854, 0.603725059283064, 0.6108260625265466, 0.10140369645665906),
    (3, 3): (1.0981319493664459, 1.4649599775974274, 1.2666038315884771, 0.29126149844315835),
    (4, 3): (1.1352249806398031, 1.7103607663733769, 1.3903663372705009, 0.2954391559471458),
    (6, 4): (1.486410761718567, 2.8377871480573438, 1.7690449865282039, 0.3740738685287444),
}


def test_corpus_values_never_rise():
    rng = np.random.default_rng(2015)
    for (d, rank), values in CORPUS_VALUES.items():
        rho = random_density(rng, d, rank)
        for f, before in zip(BUILTINS, values):
            value = convex_roof_upper(f, rho, restarts=1, seed=0).value
            assert value <= before + 1e-12, (d, rank, f.name)


# How each CORPUS_VALUES search ends, (iterations, stop) of its one restart,
# recorded with numpy 2.4.6 in the order of BUILTINS. A change that moves
# any search's path moves some of these, even where no value rises.
CORPUS_TRAJECTORIES = {
    (2, 2): ((55, "converged"), (44, "converged"), (211, "stalled"), (51, "converged")),
    (3, 3): ((200, "cap"), (443, "stalled"), (340, "stalled"), (88, "converged")),
    (4, 3): ((129, "converged"), (344, "stalled"), (378, "stalled"), (55, "converged")),
    (6, 4): ((101, "converged"), (200, "cap"), (408, "stalled"), (64, "converged")),
}


def test_corpus_trajectories_are_pinned():
    # a search that drifts in either direction fails here; the values are
    # pinned within 1e-12 on both sides, the iteration counts exactly
    rng = np.random.default_rng(2015)
    for (d, rank), values in CORPUS_VALUES.items():
        rho = random_density(rng, d, rank)
        for f, before, (iterations, stop) in zip(BUILTINS, values, CORPUS_TRAJECTORIES[(d, rank)]):
            res = convex_roof_upper(f, rho, restarts=1, seed=0)
            assert abs(res.value - before) <= 1e-12, (d, rank, f.name)
            assert [r[1:] for r in res.restarts] == [(iterations, stop)], (d, rank, f.name)


@pytest.mark.wallclock
def test_readme_roof_problem_is_fast():
    # the README problem and its figures, 1.131860710581 in about 0.05 s;
    # a ceiling on the value as above, and on the time, in a fresh
    # interpreter, room for a slow machine
    readme = random_density(np.random.default_rng(0), 4, 3)
    start = time.perf_counter()
    value = convex_roof_upper(builtin("shannon"), readme, restarts=8, seed=0).value
    elapsed = time.perf_counter() - start
    assert value <= 1.1318607105806615 + 1e-12
    assert elapsed < 1.0


@pytest.mark.wallclock
def test_roof_cap_raises_before_allocating():
    # a full-rank d = 128 search at 8 restarts stacked 8 x 3 x 128^2 x 128
    # complex entries, 805 MB, in each line-search array; d = 24 full rank
    # and every smaller problem stay under the cap
    assert 8 * 3 * 24**3 <= ROOF_CAP < 8 * 3 * 128**3
    rho = random_density(np.random.default_rng(128), 128, 128)
    pair = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceLimitError, match=r"^8 x 3 x 128\^2 x 128 line-search entries exceed the cap"):
            convex_roof_upper(builtin("shannon"), rho)
        # so is a restart count whose stack would not fit, at any dimension
        with pytest.raises(ResourceLimitError, match=r"^1000000 x 3 x 2\^2 x 2 "):
            convex_roof_upper(builtin("shannon"), pair, restarts=10**6)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 8 * 2**20


def test_qubit_l1_closed_form():
    # the l1 roof of a qubit is the l1-norm of coherence, 2 |rho_01|
    rng = np.random.default_rng(7)
    for _ in range(6):
        rho = mixture_density(rng, 2, 2)
        res = convex_roof_upper(builtin("l1"), rho, restarts=4, seed=0)
        assert abs(res.value - 2.0 * abs(rho[0, 1])) <= 1e-8


def stiefel_point(rng, m, r, zero_row):
    a = rng.standard_normal((1, m, r)) + 1j * rng.standard_normal((1, m, r))
    if zero_row:
        a[0, -1] = 0.0  # a member of weight 0; QR keeps the row exactly zero
    return _roofopt.retract(a)


def objectives(f):
    """The (rows, gradient) pairs the search descends for f: f's own, its
    smoothed form, and central differences standing in for the gradient."""
    numeric = dataclasses.replace(f, gradient=None)
    return {
        "analytic": (f.values, f.gradients),
        "smoothed": _roofopt.smoothed(f.values, f.gradients),
        "central": (f.values, numeric.gradients),
    }


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 5),
       st.lists(st.sampled_from([0.0, 1e-2, 1.0]), min_size=5, max_size=5), st.booleans(),
       st.sampled_from(BUILTINS))
def test_gradients_match_finite_differences(seed, r, d, column_scales, zero_row, f):
    rng = np.random.default_rng(seed)
    scaled = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    if f.name == "shannon":
        # scale 0 gives every member an exact zero amplitude, 1e-2 a small
        # one; the other built-ins are checked away from their cusps at zero
        # amplitudes (l1, alpha) and their kinks at ties (kyfan)
        scales = np.array(column_scales[:d])
        scales[0] = 1.0
        scaled *= scales
    q = stiefel_point(rng, r * r, r, zero_row)
    if f.name != "shannon":
        mod = np.abs(q[0] @ scaled)
        mod = mod[mod.sum(axis=1) > 0.0]
        mod /= np.linalg.norm(mod, axis=1, keepdims=True)
        assume(mod.min() > 0.05 and np.diff(np.sort(mod, axis=1)).min() > 1e-3)
    z = rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)
    xi = _roofopt._project(q, z)
    h = 1e-6
    for name, (rows, gradient) in objectives(f).items():
        grad = _roofopt._project(q, gradient(q @ scaled) @ scaled.conj().T)
        up = _roofopt.ensemble_value(_roofopt.retract(q + h * xi) @ scaled, rows)
        down = _roofopt.ensemble_value(_roofopt.retract(q - h * xi) @ scaled, rows)
        numeric = float((up - down)[0]) / (2 * h)
        analytic = float(_roofopt._inner(grad, xi)[0])
        assert abs(numeric - analytic) <= 1e-6 * (1.0 + abs(analytic)), (f.name, name)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=10).filter(any),
                min_size=1, max_size=6))
def test_rows_match_scalar_evaluate_bit_for_bit(weights):
    d = max(len(w) for w in weights)
    x = np.array([np.pad(w, (0, d - len(w))) for w in weights], dtype=float)
    x /= x.sum(axis=1, keepdims=True)
    for f in BUILTINS:
        rows = f.values(x)
        scalar = np.array([f(point) for point in x])
        assert rows.view(np.int64).tolist() == scalar.view(np.int64).tolist(), f.name


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 2**16),
       st.sampled_from(BUILTINS))
def test_stacked_restarts_are_deterministic(data_seed, d, seed, f):
    rho = mixture_density(np.random.default_rng(data_seed), d, d)
    a = convex_roof_upper(f, rho, restarts=4, seed=seed)
    b = convex_roof_upper(f, rho, restarts=4, seed=seed)
    assert a.value == b.value
    assert a.restarts == b.restarts
    for (wa, va), (wb, vb) in zip(a.ensemble, b.ensemble):
        assert wa == wb and np.array_equal(va, vb)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(6, 14), st.sampled_from(BUILTINS))
def test_never_above_eigen_average_when_near_singular(seed, d, exponent, f):
    # one mixture weight near the 1e-12 rank floor, so the smallest
    # eigenvalue sits just above or just below it
    rng = np.random.default_rng(seed)
    states = [random_pure_state(rng, d) for _ in range(d)]
    w = np.concatenate([rng.dirichlet(np.ones(d - 1)) * (1.0 - 10.0**-exponent), [10.0**-exponent]])
    rho = sum(p * np.outer(v, v.conj()) for p, v in zip(w, states))
    lam, vecs = np.linalg.eigh(rho)
    eigen_avg = sum(lam[k] * coherence_pure(f, vecs[:, k]) for k in range(d) if lam[k] > 1e-12)
    res = convex_roof_upper(f, rho, restarts=2, seed=0)
    assert res.value <= eigen_avg + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1),
       st.integers(2, 5).flatmap(lambda d: st.tuples(st.just(d), st.integers(2, d))),
       st.sampled_from(BUILTINS))
def test_stacked_descent_rows_equal_lone_descents(seed, shape, f):
    # each row of a stacked descent is the same start descended alone, bit
    # for bit, also when the rows stop at different iterations or for
    # different reasons; the first start sits next to the eigen-ensemble,
    # where restarts often stall
    d, rank = shape
    rng = np.random.default_rng(seed)
    lam, vecs = np.linalg.eigh(mixture_density(rng, d, rank))
    keep = lam > 1e-12
    scaled = np.ascontiguousarray((vecs[:, keep] * np.sqrt(lam[keep])).T)
    r = scaled.shape[0]
    starts = rng.standard_normal((4, r * r, r, 2)).view(np.complex128)[..., 0]
    starts[0] = np.eye(r * r, r) + EIGEN_NUDGE * starts[0]
    q0 = _roofopt.retract(starts)
    q, vals, iters, stops = _roofopt.descend(q0, scaled, f.values, f.gradients)
    for i in range(4):
        qi, vi, ni, si = _roofopt.descend(q0[i:i + 1], scaled, f.values, f.gradients)
        assert qi[0].tobytes() == q[i].tobytes(), (f.name, i)
        assert vi[0].tobytes() == vals[i].tobytes()
        assert (ni[0], si[0]) == (iters[i], stops[i])


def qr_retract(y):
    """The retraction through np.linalg.qr, which ``retract`` must equal bit
    for bit."""
    q, r = np.linalg.qr(y)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def outcome(retraction, y):
    """retraction(y) as its shape and bytes, or its error, with the warnings
    it gave on the way, recorded instead of raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            q = retraction(y)
            got = (q.shape, q.dtype.str, q.tobytes())
        except Exception as exc:
            got = (type(exc), str(exc))
    return got, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1),
       st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(0, 4)),
       st.integers(-150, 150), st.booleans(), st.sampled_from(["full", "zero", "multiple"]),
       st.sampled_from([None, np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)]))
def test_retract_equals_numpy_qr_bit_for_bit(seed, shape, exponent, zero_row, column, special):
    # stacks (n, t, m, r) with m >= r, as the line search builds them, at
    # scales from 1e-150 to 1e150, with members of weight 0, rank-deficient
    # columns and NaN or inf entries: the same bits, or the same error, and
    # the same warnings (a zero column gives R a zero diagonal entry)
    n, t, r, extra = shape
    m = r + extra
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, t, m, r, 2)).view(np.complex128)[..., 0] * 10.0**exponent
    if zero_row:
        y[..., rng.integers(m), :] = 0.0
    if column == "zero":
        y[..., rng.integers(r)] = 0.0
    elif column == "multiple" and r > 1:
        y[..., -1] = rng.standard_normal() * y[..., 0]
    if special is not None:
        y[tuple(rng.integers(k) for k in y.shape)] = special
    assert outcome(_roofopt.retract, y) == outcome(qr_retract, y)


def test_searches_are_unchanged_under_the_numpy_qr_retraction(monkeypatch):
    # the CORPUS_VALUES searches and the README problem, once as they are
    # and once retracting through np.linalg.qr, both in this process, so
    # that this holds on any CPU and numpy build, unlike the recorded pins
    rng = np.random.default_rng(2015)
    rhos = [random_density(rng, d, rank) for d, rank in CORPUS_VALUES]
    problems = [(f, rho, 1) for rho in rhos for f in BUILTINS]
    problems.append((builtin("shannon"), random_density(np.random.default_rng(0), 4, 3), 8))

    def searches():
        results = [convex_roof_upper(f, rho, restarts=n, seed=0) for f, rho, n in problems]
        return [(res.value.hex(), res.restarts, [(w.hex(), v.tobytes()) for w, v in res.ensemble])
                for res in results]

    ours = searches()
    monkeypatch.setattr(_roofopt, "retract", qr_retract)
    assert searches() == ours
