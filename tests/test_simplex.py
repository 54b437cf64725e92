import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcohere import (
    DimensionMismatchError,
    MajorizationError,
    NormalizationError,
    ParameterError,
    TTransform,
    apply_chain,
    majorizes,
    prob_vector,
    sorted_desc,
    tail_sum,
    ttransform_chain,
)
from qcohere.simplex import ATOL, TINY
from randgen import random_majorized_pair, random_prob_vector


def test_prob_vector_accepts_and_clamps():
    x = prob_vector([0.5, 0.5])
    assert x.dtype == np.float64
    x = prob_vector([1.0, -5e-13, 5e-13])
    assert x[1] == 0.0


def test_prob_vector_rejects():
    with pytest.raises(NormalizationError):
        prob_vector([0.6, 0.5])
    with pytest.raises(NormalizationError):
        prob_vector([1.1, -0.1])


def test_sorted_desc():
    np.testing.assert_array_equal(sorted_desc([0.1, 0.7, 0.2]), [0.7, 0.2, 0.1])
    np.testing.assert_array_equal(sorted_desc([0.5, 0.5]), [0.5, 0.5])


def test_tail_sum_values():
    assert abs(tail_sum([0.8, 0.1, 0.1], 2) - 0.2) < 1e-12
    assert abs(tail_sum([0.1, 0.8, 0.1], 2) - 0.2) < 1e-12
    assert tail_sum([0.8, 0.1, 0.1], 1) == 1.0
    assert tail_sum([1.0, 0.0, 0.0], 2) == 0.0


def test_tail_sum_range():
    with pytest.raises(IndexError):
        tail_sum([0.5, 0.5], 0)
    with pytest.raises(IndexError):
        tail_sum([0.5, 0.5], 3)
    with pytest.raises(IndexError):
        tail_sum([0.5, 0.5], -1)
    # the one integer rule, the kyfan order's too: a float raised TypeError
    # from slicing, and True was read as l = 1
    for l in (2.5, True, "2", None):
        with pytest.raises(ParameterError, match="^tail start must be an integer, got"):
            tail_sum([0.5, 0.5], l)
    assert tail_sum([0.5, 0.5], np.int64(2)) == tail_sum([0.5, 0.5], 2.0) == tail_sum([0.5, 0.5], 2) == 0.5
    # a matrix was summed over its flattened entries
    with pytest.raises(ParameterError, match="^x must be a 1-d vector"):
        tail_sum([[0.5, 0.5], [0.0, 0.0]], 1)


def test_majorizes_basics():
    assert majorizes([0.7, 0.3], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [0.7, 0.3])
    assert majorizes([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
    # the comparison sorts internally
    assert majorizes([0.3, 0.7], [0.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        majorizes([1.0], [0.5, 0.5])


def test_majorizes_extremes():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        x = random_prob_vector(rng, d)
        basis = np.zeros(d)
        basis[0] = 1.0
        assert majorizes(x, x)
        assert majorizes(basis, x)
        assert majorizes(x, np.full(d, 1.0 / d))


def test_chain_trivial():
    x = np.array([0.6, 0.4])
    assert ttransform_chain(x, x) == []


def test_chain_single_pair():
    chain = ttransform_chain(np.array([0.5, 0.5]), np.array([0.7, 0.3]))
    assert len(chain) == 1
    tr = chain[0]
    assert (tr.i, tr.j) == (1, 2)
    assert abs(tr.t - 0.5) < 1e-12
    np.testing.assert_allclose(apply_chain(chain, [0.7, 0.3]), [0.5, 0.5], atol=1e-12)


def test_chain_worked_triple():
    x = np.full(3, 1.0 / 3.0)
    y = np.array([0.5, 0.3, 0.2])
    chain = ttransform_chain(x, y)
    assert len(chain) <= 2
    np.testing.assert_allclose(apply_chain(chain, y), x, atol=1e-12)


def test_chain_interleaved_excess():
    # donors and recipients alternate; greedy pairing from the wrong end
    # loses majorization on this input
    x = np.array([0.4, 0.3, 0.2, 0.1])
    y = np.array([0.45, 0.25, 0.25, 0.05])
    chain = ttransform_chain(x, y)
    assert len(chain) <= 3
    np.testing.assert_allclose(apply_chain(chain, y), x, atol=1e-12)


def test_chain_requires_majorization():
    with pytest.raises(MajorizationError):
        ttransform_chain(np.array([0.7, 0.3]), np.array([0.5, 0.5]))


def test_chain_on_near_tied_pairs():
    # inputs may rise by TINY: the share of a - b came out as 2, a division
    # by zero, or -2.5, and the chain refused its own mix weights
    x = np.array([0.5 - 3e-13, 0.5 + 3e-13])
    for y, t in (([0.5 + 1e-13, 0.5 - 1e-13], 0.0), ([0.5, 0.5], 1.0), ([0.5 - 0.5e-13, 0.5 + 0.5e-13], 1.0)):
        chain = ttransform_chain(x, np.array(y))
        assert [(tr.i, tr.j, tr.t) for tr in chain] == [(1, 2, t)]
        assert np.abs(apply_chain(chain, y) - x).max() <= 1e-12


def test_chain_requires_sorted():
    with pytest.raises(ValueError):
        ttransform_chain(np.array([0.3, 0.7]), np.array([0.8, 0.2]))


def test_chain_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(500):
        d = int(rng.integers(2, 9))
        x, y = random_majorized_pair(rng, d)
        chain = ttransform_chain(x, y)
        assert len(chain) <= d - 1
        for tr in chain:
            assert 0.0 <= tr.t <= 1.0
            assert 1 <= tr.i < tr.j <= d
        out = apply_chain(chain, y)
        assert np.abs(out - x).max() <= 1e-9
        assert abs(out.sum() - 1.0) <= 1e-12


def test_ttransform_validation():
    with pytest.raises(ValueError):
        TTransform(1, 1, 0.5)
    with pytest.raises(ValueError):
        TTransform(1, 2, 1.5)


@pytest.mark.parametrize("i", [1.5, 2.0, True, "1", None, 0, -1])
def test_ttransform_coordinates_are_integers(i):
    # 1.5 constructed, and apply then raised numpy's IndexError; True was
    # read as coordinate 1
    with pytest.raises(ParameterError):
        TTransform(i, 3, 0.5)
    with pytest.raises(ParameterError):
        TTransform(3, i, 0.5)
    v = np.array([0.5, 0.3, 0.2])
    assert np.array_equal(TTransform(np.int64(1), 3, 0.5).apply(v), TTransform(1, 3, 0.5).apply(v))


@pytest.mark.parametrize("t", ["0.5", 0.5 + 0j, True, None])
def test_ttransform_weight_is_a_real_number(t):
    # "0.5" raised a bare TypeError from the range comparison
    with pytest.raises(ParameterError):
        TTransform(1, 2, t)
    assert TTransform(1, 2, np.float32(0.5)).apply([1.0, 0.0]).tolist() == [0.5, 0.5]


def test_apply_chain_names_the_transform_beyond_the_vector():
    # numpy's IndexError came out of the replay loop
    with pytest.raises(DimensionMismatchError, match=r"^TTransform\(i=1, j=5, t=0.5\)"):
        TTransform(1, 5, 0.5).apply([0.5, 0.5])
    chain = [TTransform(3, 1, 0.25), TTransform(1, 2, 0.5)]
    with pytest.raises(DimensionMismatchError, match=r"^TTransform\(i=3, j=1, t=0.25\)"):
        apply_chain(chain, [0.5, 0.5])


def reference_chain(x, y):
    """The chain as full-vector rounds: each round recomputes every
    difference, takes the rightmost donor with a recipient to its right and
    the nearest such recipient, and moves the least of the donor's excess
    and the recipient's room, the room alone for the leftmost donor of y.
    The side that limited the move lands on its target exactly; a donor
    with no recipient to its right may keep up to ATOL. Returns 1-based
    (i, j, t) with t = 1 - u, u the share of the pair's difference moved."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise DimensionMismatchError(f"lengths {x.size} and {y.size} differ")
    for v in (x, y):
        if np.any(np.diff(v) > TINY):
            raise ParameterError("not sorted non-increasing")
    if not majorizes(y, x):
        raise MajorizationError("x is not majorized by y")
    out = []
    v = y.copy()
    above = np.nonzero(y > x)[0]
    first = int(above[0]) if above.size else None
    while True:
        pairs = [(i, j) for i in np.nonzero(v > x)[0] for j in np.nonzero(v < x)[0] if j > i]
        if not pairs:
            break
        i = max(i for i, _ in pairs)
        j = min(j for k, j in pairs if k == i)
        a, b = float(v[i]), float(v[j])
        excess, room = a - x[i], x[j] - b
        moved = room if i == first else min(excess, room)
        v = v.copy()
        v[i] = x[i] if moved == excess else a - moved
        v[j] = x[j] if moved == room else b + moved
        out.append((i + 1, j + 1, 1.0 - moved / (a - b)))
    if np.any(v - x > ATOL):
        raise MajorizationError("majorization lost during chain construction")
    out.reverse()
    return out


def sorted_masses(draw, size):
    """Sorted masses with ties, exact zeros and masses near the 1e-12 floor."""
    floor = st.sampled_from([0.0, 1e-13, 5e-13, 1e-12, 2e-12, 1e-11, 3e-10])
    body = draw(st.lists(st.integers(0, 4), min_size=1, max_size=size).filter(any))
    dust = draw(st.lists(floor, max_size=max(0, size - len(body))))
    x = np.array(body + dust, dtype=float)
    return np.sort(x / x.sum())[::-1]


@st.composite
def mass_pairs(draw):
    """(x, y) of one length: x is y with transfers applied and sorted
    again, so majorized by y, or one time in four drawn on its own and
    zero-padded to a common length."""
    y = sorted_masses(draw, 12)
    d = y.size
    if draw(st.integers(0, 3)) == 0:
        x = sorted_masses(draw, 12)
        pad = np.zeros(max(x.size, d))
        x, y = (np.concatenate([v, pad[v.size:]]) for v in (x, y))
        return x, y
    x = y.copy()
    coord = st.integers(0, d - 1)
    weights = st.sampled_from([0.5, 0.75, 1.0 / 3.0, 0.999])
    for i, j, t in draw(st.lists(st.tuples(coord, coord, weights), min_size=1)):
        x[i], x[j] = t * x[i] + (1.0 - t) * x[j], (1.0 - t) * x[i] + t * x[j]
    return np.sort(x)[::-1], y


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mass_pairs())
def test_chain_matches_full_vector_reference(pair):
    x, y = pair
    try:
        want = reference_chain(x, y)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            ttransform_chain(x, y)
        assert type(info.value) is type(exc)
        return
    got = ttransform_chain(x, y)
    assert len(got) == len(want)
    for tr, (i, j, t) in zip(got, want):
        assert (tr.i, tr.j) == (i, j)
        assert np.float64(tr.t).tobytes() == np.float64(t).tobytes()


def test_chain_ends_when_rounding_exceeds_atol():
    # at masses near 1e7 a transfer's rounding exceeds ATOL; the side that
    # limited each transfer is set to its target, so none is repeated
    x = np.array([13658152.169517871, 12172637.183480311, 11492414.013153568, 7948740.65572466])
    y = np.array([15998318.33356664, 13027288.36149152, 11666842.020838035, 4579495.305980216])
    chain = ttransform_chain(x, y)
    assert [(tr.i, tr.j) for tr in chain] == [(1, 4), (2, 4), (3, 4)]
    assert np.abs(apply_chain(chain, y) - x).max() <= 1e-15 * np.abs(y).max()


@pytest.mark.wallclock
def test_chain_is_linear_in_the_dimension():
    # one donor feeding d-1 recipients; full-vector rounds take O(d^2)
    d = 20_000
    x = np.full(d, 1.0 / d)
    y = np.zeros(d)
    y[0] = 1.0
    start = time.perf_counter()
    chain = ttransform_chain(x, y)
    assert len(chain) == d - 1
    assert np.abs(apply_chain(chain, y) - x).max() <= 1e-9
    assert time.perf_counter() - start < 1.0
