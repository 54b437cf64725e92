import copy
import pickle
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcohere import (
    CompletenessError,
    DimensionMismatchError,
    IncoherenceError,
    KrausSet,
    ParameterError,
    ResourceLimitError,
    apply_channel,
    apply_selective,
    compose,
    is_complete,
    is_incoherent,
    kraus_set,
    pure_density,
    pure_state,
)
from qcohere import channels, conversion
from qcohere.simplex import ATOL, TINY
from qcohere.channels import COMPOSE_CAP, _stored
from randgen import random_incoherent_kraus, random_pure_state

INV2 = 1.0 / np.sqrt(2.0)


def _identity(d=2):
    return kraus_set([np.eye(d, dtype=complex)])


def test_is_complete():
    ok, res = is_complete(_identity())
    assert ok and res == 0.0
    pair = kraus_set([np.diag([np.sqrt(0.7), np.sqrt(0.3)]).astype(complex),
                      np.array([[0, np.sqrt(0.7)], [np.sqrt(0.3), 0]], dtype=complex)])
    ok, res = is_complete(pair)
    assert ok and res <= 1e-15


def test_incomplete_rejected():
    with pytest.raises(CompletenessError):
        kraus_set([np.diag([0.5, 0.5]).astype(complex)])
    # built, not checked: is_complete reports the residual
    ok, res = is_complete(KrausSet(*_stored([np.diag([0.5, 0.5]).astype(complex)])))
    assert not ok
    assert abs(res - 0.75) < 1e-12


def test_operators_without_entries_are_refused():
    # a 0 x 0 operator raised numpy's bare "attempt to get argmax of an
    # empty sequence"
    for ops in ([np.zeros((0, 0))], [np.zeros((0, 0)), np.zeros((0, 0))]):
        with pytest.raises(DimensionMismatchError, match=r"nonempty square matrices, got shape \(0, 0\)"):
            kraus_set(ops)


@pytest.mark.parametrize("rows, vals", [
    (np.zeros((1, 0), dtype=int), np.zeros((1, 0), dtype=complex)),
    (np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=complex)),
    (np.arange(2), np.ones(2, dtype=complex)),
    (np.zeros((1, 2), dtype=int), np.ones((1, 3), dtype=complex)),
    (np.zeros((1, 2)), np.ones((1, 2), dtype=complex)),
], ids=["no_columns", "no_operators", "one_dimensional", "unequal_shapes", "float_rows"])
def test_kraus_set_shape_is_checked_on_construction(rows, vals):
    # a set with no columns made is_complete, compose and apply_channel raise
    # numpy's bare "zero-size array to reduction operation maximum"
    with pytest.raises(DimensionMismatchError, match="^KrausSet rows, signed integers, and vals need one shape"):
        KrausSet(rows, vals)


def test_kraus_set_label_count_is_checked_on_construction():
    rows, vals = np.zeros((2, 2), dtype=int), np.ones((2, 2), dtype=complex)
    with pytest.raises(ParameterError, match="^3 labels for 2 operators$"):
        KrausSet(rows, vals, ("a", "b", "c"))
    assert KrausSet(rows, vals).labels == ("", "")


def test_stored_zeros_move_home_on_construction():
    # a zero on a foreign row (operator 1, column 1) and a -0.0 (operator 2,
    # column 0) go home as +0, so that kraus_set reads the operators back to
    # the same arrays, bit for bit
    ks = KrausSet(np.array([[0, 0, 2], [1, 1, 2]]),
                  np.array([[1.0, 0.0, 1.0], [complex(-0.0, 0.0), 1.0, -0.0]]))
    assert ks.rows.tolist() == [[0, 1, 2], [0, 1, 2]]
    assert not np.signbit(ks.vals.view(float)).any()
    back = kraus_set(ks.operators)
    assert back.rows.dtype == ks.rows.dtype and back.rows.tobytes() == ks.rows.tobytes()
    assert back.vals.dtype == ks.vals.dtype and back.vals.tobytes() == ks.vals.tobytes()


def test_read_only_arrays_are_copied_before_their_zeros_move():
    # moving their zeros in place would raise numpy's "assignment
    # destination is read-only"
    rows, vals = np.array([[0, 0]]), np.array([[1.0, 0.0]], dtype=complex)
    rows.flags.writeable = vals.flags.writeable = False
    ks = KrausSet(rows, vals)
    assert ks.rows.tolist() == [[0, 1]] and rows.tolist() == [[0, 0]]
    # the set lists its runs in read-only arrays of its own
    whole = KrausSet(rows, np.ones((1, 2), dtype=complex))
    assert not any(np.shares_memory(a, b) for a in (whole.pos, whole.to, whole.amp) for b in (rows, vals))
    with pytest.raises(ValueError, match="read-only"):
        whole.amp[0] = 2.0


@st.composite
def stored_sets(draw, d=None):
    """KrausSets built from stored arrays, complete or not, of dimension
    ``d`` or of any up to 6. Either n <= 4
    operators of d <= 6 with small integer column weights and eighth-turn
    phases, nonzero entries on a permutation of the rows, zeros of either
    sign on arbitrary rows, and optionally two nonzero entries of one
    operator forced onto one row, alone or split into a merge pair whose
    cross terms cancel; or a two-level stage with a zero pair column."""
    if d != 1 and draw(st.integers(0, 3)) == 0:
        d = draw(st.integers(2, 6)) if d is None else d
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        u, a = draw(st.floats(0.0, 1.0)), draw(st.floats(1e-14, 1.0))
        return conversion._pair_steps(d, [u], [a], [0.0], [i], [j])[0]
    d, n = draw(st.integers(1, 6)) if d is None else d, draw(st.integers(1, 4))
    ints = st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), min_size=n, max_size=n)
    w = np.array(draw(ints), dtype=float)
    if draw(st.booleans()):  # no empty column
        w[0, w.sum(axis=0) == 0] = 1.0
    rows = np.array([draw(st.permutations(range(d))) for _ in range(n)], dtype=np.intp)
    collide = d >= 2 and draw(st.booleans())
    if collide:
        m = draw(st.integers(0, n - 1))
        c, c2 = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        w[m, [c, c2]] = np.maximum(w[m, [c, c2]], 1.0)
        rows[m, c2] = rows[m, c]
    turns = np.array(draw(ints), dtype=float)
    vals = np.sqrt(w / np.maximum(w.sum(axis=0), 1.0)) * np.exp(0.25j * np.pi * turns)
    zero = vals == 0
    rows[zero] = draw(st.lists(st.integers(0, d - 1), min_size=int(zero.sum()),
                               max_size=int(zero.sum())))
    if collide and n < 4 and draw(st.booleans()):
        # operator m becomes two halves, the second with column c2 negated
        half = vals[m] / np.sqrt(2.0)
        flip = half.copy()
        flip[c2] = -flip[c2]
        rows = np.vstack([rows, rows[m]])
        vals = np.vstack([vals[:m], [half], vals[m + 1:], [flip]])
    return KrausSet(rows=rows, vals=vals, labels=("",) * len(rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stored_sets())
def test_is_complete_matches_dense_reference(ks):
    # a stored zero is never paired up, wherever it sits; two nonzero
    # entries on one row still form the whole matrix
    dense = sum(op.conj().T @ op for op in ks.operators)
    want = float(np.abs(dense - np.eye(ks.dim)).max())
    ok, residual = is_complete(ks)
    assert abs(residual - want) <= 1e-15
    assert ok == (want <= ATOL)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_stacked_residuals_equal_lone_residuals(data):
    # stage lists with mixed operator counts, stored zeros of either sign,
    # duplicate-row operators, one dimension or mixed ones, and sometimes a
    # NaN value; each run of stages of one dimension is measured as a stack
    d = data.draw(st.none() | st.integers(1, 6))
    stages = data.draw(st.lists(stored_sets(d), min_size=1, max_size=12))
    if data.draw(st.booleans()):
        m = data.draw(st.integers(0, len(stages) - 1))
        vals = stages[m].vals.copy()
        vals.flat[data.draw(st.integers(0, vals.size - 1))] = np.nan
        stages[m] = KrausSet(stages[m].rows, vals, stages[m].labels)
    stacked = [r for _, block in groupby(stages, key=lambda k: k.dim) for r in _measured_together(list(block))]
    lone = [is_complete(k)[1] for k in stages]
    assert np.array(stacked).tobytes() == np.array(lone).tobytes()


def _measured_together(sets, cap=None) -> list:
    """Residuals of KrausSets of one dimension measured as one stack."""
    counts = (np.array([len(k), k.pos.size]) for k in sets)
    runs = (np.concatenate([getattr(k, f) for k in sets]) for f in ("pos", "to", "amp"))
    return channels._residuals(sets[0].dim, *np.array(list(counts)).T, *runs, cap)


def _dense_residual(rows, vals) -> float:
    """The dense kernel the run form replaced, on one stage: column masses
    summed in C order over its (n, d) arrays, and the whole matrix when two
    nonzero entries of one operator share a row."""
    n, d = rows.shape
    mass = np.square(np.abs(vals), order="C")
    residual = np.abs(mass.reshape(1, n, d).sum(axis=1) - 1.0).max(axis=1).tolist()[0]
    srt = np.sort(np.where(vals == 0, ~np.arange(d), rows), axis=1, kind="stable")
    if (srt[:, 1:] == srt[:, :-1]).any():
        gram = np.einsum("nc,nk,nck->ck", vals.conj(), vals, rows[:, :, None] == rows[:, None, :])
        residual = float(np.abs(gram - np.eye(d)).max())
    return residual


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stored_sets(), st.booleans())
def test_run_form_residuals_equal_the_dense_kernel_bit_for_bit(ks, fortran):
    # shared rows, stored zeros of either sign on foreign rows and two-level
    # stages; made again from the dense views, in Fortran order or not
    rows, vals = ks.rows, ks.vals
    again = KrausSet(np.asfortranarray(rows), np.asfortranarray(vals)) if fortran else KrausSet(rows, vals)
    want = _dense_residual(rows, vals)
    assert is_complete(ks)[1].hex() == is_complete(again)[1].hex() == want.hex()
    # dense -> runs -> operators -> kraus_set's reading, bit for bit
    back = KrausSet(*_stored(ks.operators), ks.labels)
    for k in (again, back):
        assert all(getattr(k, f).tobytes() == getattr(ks, f).tobytes() for f in ("ends", "pos", "to", "amp"))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(k.operators, ks.operators))
    # the carried residual stays valid: nothing the set holds can be written
    for a in (ks.ends, ks.pos, ks.to, ks.amp, ks.rows, ks.vals):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


@pytest.mark.parametrize("rows", [[[1, -1]], [[0, 5]]], ids=["negative", "past_the_dimension"])
def test_kraus_set_rows_outside_the_dimension_are_refused(rows):
    # a row of -1 passed is_complete with residual 0 and gave apply_selective
    # one branch of probability 2, in a file its own loader refused; a row
    # of 5 passed is_complete too, and apply_selective raised numpy's bare
    # IndexError
    with pytest.raises(ParameterError, match=r"^KrausSet rows must lie in \[0, 2\)"):
        KrausSet(np.array(rows), np.ones((1, 2), dtype=complex))


def test_kraus_sets_are_never_rebound_and_copy_from_their_runs():
    # the carried residual must stay the one measured on the set's own
    # runs: no field can be rebound or deleted, and a copy or a pickle is
    # listed and measured again from them
    rng = np.random.default_rng(5)
    ks = KrausSet([rng.permutation(5) for _ in range(3)], np.sqrt(rng.dirichlet(np.ones(3), size=5).T) + 0j, "abc")
    for name in KrausSet.__slots__:
        with pytest.raises(AttributeError, match="cannot be rebound"):
            setattr(ks, name, None)
        with pytest.raises(AttributeError, match="cannot be rebound"):
            delattr(ks, name)
    protocol = conversion.optimal_protocol(np.sqrt([0.5, 0.3, 0.2]), np.sqrt([0.6, 0.3, 0.1]))
    copies = [(ks, again) for again in (copy.copy(ks), copy.deepcopy(ks), pickle.loads(pickle.dumps(ks)))]
    for made in (copy.deepcopy(protocol), pickle.loads(pickle.dumps(protocol))):
        copies += zip(protocol.stages, made.stages)
    for k, again in copies:
        assert again.dim == k.dim and again.labels == k.labels
        assert all(getattr(again, f).tobytes() == getattr(k, f).tobytes() for f in ("ends", "pos", "to", "amp"))
        assert is_complete(again)[1].hex() == is_complete(k)[1].hex()
    assert repr(ks) == "KrausSet(dim=5, operators=3, listed=15, labels=('a', 'b', 'c'))"


@pytest.mark.parametrize("seed", range(8))
def test_shared_rows_are_measured_over_the_columns_they_involve(seed):
    # two nonzero entries of one operator on one row, among 40 columns of
    # unit mass in runs of five: the cross term on that row, which the
    # matrix over the listed columns and the rows they meet must hold, is
    # the residual, in the dense kernel's bits
    rng = np.random.default_rng(seed)
    n, d = 3, 40
    rows = np.tile(np.arange(d), (n, 1))
    vals = np.repeat(rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8)), 5, axis=1)
    vals /= np.sqrt((np.abs(vals) ** 2).sum(axis=0))
    m, c, c2 = rng.integers(n), *rng.choice(d, 2, replace=False)
    rows[m, c2] = rows[m, c]
    ks = KrausSet(rows, vals)
    assert ks.pos.size < n * d
    assert is_complete(ks)[1].hex() == _dense_residual(rows, vals).hex()


def test_stack_masses_are_not_padded_to_the_widest_set():
    # a 16-operator set beside a chain of two-operator stages: each count
    # sums on its own, so the masses measured are the sum of the parts',
    # not 16 for every listed column of the chain
    rng = np.random.default_rng(3)
    d = 64
    wide = KrausSet([rng.permutation(d) for _ in range(16)], np.sqrt(rng.dirichlet(np.ones(16), size=d).T) + 0j)
    chain = list(conversion.deterministic_protocol(np.sqrt(np.sort(rng.dirichlet(np.ones(d)))[::-1]), np.eye(d)[0]))

    def work(sets):
        with pytest.raises(ResourceLimitError) as err:
            _measured_together(sets, 0)
        return int(str(err.value).split()[0])

    listed = sum(k.pos.size for k in chain)
    assert work([wide, *chain]) <= work([wide]) + work(chain) < 16 * listed
    assert _measured_together([wide, *chain]) == [is_complete(k)[1] for k in (wide, *chain)]


def test_residual_does_not_depend_on_memory_layout():
    # a Fortran-ordered set summed its column masses along a contiguous
    # axis, pairwise, and its residual differed in the last bits from its
    # C-ordered copy's, for 92 of these 300 sets
    rng = np.random.default_rng(0)
    rows = np.tile(np.arange(3), (12, 1))
    for _ in range(300):
        vals = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        vals /= np.sqrt((np.abs(vals) ** 2).sum(axis=0))
        c = KrausSet(rows, vals, ("",) * 12)
        f = KrausSet(np.asfortranarray(rows), np.asfortranarray(vals), ("",) * 12)
        assert is_complete(f)[1].hex() == is_complete(c)[1].hex()


def test_stacked_residuals_at_dimension_one():
    # numpy sums the masses of more than 8 operators of one column
    # pairwise: a stack of d = 1 stages must keep each stage's grouping,
    # which padding a stage to a wider one's operator count would change
    rng = np.random.default_rng(1)
    stages = []
    for n in (9, 30, 17, 1, 24, 9) * 4:
        w = rng.random(n)
        stages.append(KrausSet(np.zeros((n, 1), dtype=np.intp), np.sqrt(w / w.sum())[:, None] + 0j))
    lone = [is_complete(k)[1] for k in stages]
    assert np.array(_measured_together(stages)).tobytes() == np.array(lone).tobytes()


def test_is_incoherent_identity_and_diagonal():
    ok, witness = is_incoherent(_identity())
    assert ok and witness is None
    perm = np.array([[0, 1], [1, 0]], dtype=complex)
    ok, _ = is_incoherent(kraus_set([perm]))
    assert ok


def test_is_incoherent_hadamard_witness():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    with pytest.raises(IncoherenceError) as info:
        kraus_set([h])
    witness = info.value.witness
    assert witness.operator == 1
    assert witness.column == 1
    assert witness.rows == (1, 2)


def test_mixture_split_pair():
    # diagonal two-outcome split of a mixed diagonal state
    x = np.array([0.3, 0.4, 0.3])
    y = np.array([0.5, 0.25, 0.25])
    lam = 0.6
    mix = lam * x + (1 - lam) * y
    k1 = np.diag(np.sqrt(lam * x / mix)).astype(complex)
    k2 = np.diag(np.sqrt((1 - lam) * y / mix)).astype(complex)
    ks = kraus_set([k1, k2])
    ok, _ = is_incoherent(ks)
    assert ok
    branches = apply_selective(ks, np.sqrt(mix))
    assert len(branches) == 2
    assert abs(branches[0].probability - lam) < 1e-12
    np.testing.assert_allclose(branches[0].state, np.sqrt(x), atol=1e-12)
    np.testing.assert_allclose(branches[1].state, np.sqrt(y), atol=1e-12)


def test_apply_selective_measurement():
    proj = kraus_set([np.diag([1.0, 0.0]).astype(complex),
                      np.diag([0.0, 1.0]).astype(complex)])
    branches = apply_selective(proj, [np.sqrt(0.7), np.sqrt(0.3)])
    probs = sorted(b.probability for b in branches)
    assert abs(probs[0] - 0.3) < 1e-12 and abs(probs[1] - 0.7) < 1e-12
    for b in branches:
        assert abs(np.linalg.norm(b.state) - 1.0) < 1e-12


def test_apply_selective_prunes():
    proj = kraus_set([np.diag([1.0, 0.0]).astype(complex),
                      np.diag([0.0, 1.0]).astype(complex)])
    branches = apply_selective(proj, [1.0, 0.0])
    assert len(branches) == 1
    assert abs(branches[0].probability - 1.0) < 1e-12


def test_apply_channel_dephasing():
    deph = kraus_set([np.diag([1.0, 0.0]).astype(complex),
                      np.diag([0.0, 1.0]).astype(complex)])
    rho = pure_density([INV2, INV2])
    out = apply_channel(deph, rho)
    np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-12)


def test_apply_channel_matches_selective_mixture():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        ks = random_incoherent_kraus(rng, d)
        psi = random_pure_state(rng, d)
        out = apply_channel(ks, pure_density(psi))
        mix = np.zeros((d, d), dtype=complex)
        for b in apply_selective(ks, psi):
            mix += b.probability * np.outer(b.state, b.state.conj())
        assert np.abs(out - mix).max() <= 1e-9


def test_incoherent_channel_preserves_diagonal():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        ks = random_incoherent_kraus(rng, d)
        ok, _ = is_incoherent(ks)
        assert ok
        rho = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        out = apply_channel(ks, rho)
        off = out - np.diag(np.diag(out))
        assert np.abs(off).max() <= 1e-9
        assert abs(out.trace().real - 1.0) <= 1e-9


def test_compose_identity():
    ks = compose([_identity(), _identity()])
    assert len(ks) == 1
    np.testing.assert_allclose(ks.operators[0], np.eye(2), atol=1e-15)


def test_compose_counts_and_labels():
    stage = kraus_set([np.diag([1.0, 0.0]).astype(complex),
                       np.diag([0.0, 1.0]).astype(complex)], labels=["a", "b"])
    both = compose([stage, stage])
    # cross products of orthogonal projectors vanish and are pruned
    assert len(both) == 2
    assert set(both.labels) == {"a.a", "b.b"}


def test_compose_closure():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        ks = compose([random_incoherent_kraus(rng, d), random_incoherent_kraus(rng, d)])
        ok_c, res = is_complete(ks)
        ok_i, _ = is_incoherent(ks)
        assert ok_c and res <= 2e-9
        assert ok_i
        psi = random_pure_state(rng, d)
        total = sum(b.probability for b in apply_selective(ks, psi))
        assert abs(total - 1.0) <= 1e-9


def test_compose_of_vanishing_products_is_incomplete():
    # every product with a zero operator vanishes: the zero map, 1 off the
    # identity, and not a set without operators
    zero = KrausSet(np.zeros((1, 2), dtype=int), np.zeros((1, 2), dtype=complex))
    with pytest.raises(CompletenessError, match=r"deviates from identity by 1\.000e\+00$"):
        compose([zero, _identity()])


def test_compose_cap():
    # no product of these stages vanishes, so 25 stages would form 2^25 of them
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    stage = kraus_set([INV2 * np.eye(2, dtype=complex), INV2 * flip])
    assert 2**25 > COMPOSE_CAP
    with pytest.raises(ResourceLimitError):
        compose([stage] * 25)


def _dense_branches(ops, psi):
    out = []
    for op in ops:
        vec = op @ psi
        p = float((np.abs(vec) ** 2).sum())
        if p > TINY:
            out.append((p, vec / np.sqrt(p)))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4))
def test_stored_form_matches_dense(seed, d, max_ops):
    # random_incoherent_kraus folds in non-injective merges: two columns of
    # one operator sent to one row, whose cross terms completeness must see
    rng = np.random.default_rng(seed)
    ks = random_incoherent_kraus(rng, d, max_ops=max_ops)
    later = random_incoherent_kraus(rng, d, max_ops=max_ops)
    ops = ks.operators
    # the dense form reads back bit for bit
    back = kraus_set(ops, labels=ks.labels).operators
    assert all(a.tobytes() == b.tobytes() for a, b in zip(back, ops))

    # column phases on one operator keep every column mass but stop the
    # cross terms of merge partners from cancelling
    twisted = [ops[0] * np.exp(2j * np.pi * rng.random(d))] + list(ops[1:])
    for dense in (ops, twisted):
        gram = sum(op.conj().T @ op for op in dense)
        residual = is_complete(KrausSet(*_stored(dense)))[1]
        assert abs(residual - float(np.abs(gram - np.eye(d)).max())) <= 1e-12

    psi = random_pure_state(rng, d)
    branches = apply_selective(ks, psi)
    want = _dense_branches(ops, psi)
    assert len(branches) == len(want)
    for b, (p, state) in zip(branches, want):
        assert abs(b.probability - p) <= 1e-12
        assert np.abs(b.state - state).max() <= 1e-12

    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    rho /= rho.trace().real
    dense = sum(op @ rho @ op.conj().T for op in ops)
    assert np.abs(apply_channel(ks, rho) - dense).max() <= 1e-12

    products = [op2 @ op1 for op2 in later.operators for op1 in ops]
    products = [m for m in products if np.linalg.norm(m) > TINY]
    both = compose([ks, later])
    assert len(both) == len(products)
    assert max(np.abs(m - ref).max() for m, ref in zip(both.operators, products)) <= 1e-12
