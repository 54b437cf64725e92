import numpy as np
import pytest

from qcohere import (
    CompletenessError,
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
from qcohere.states import COMPOSE_CAP
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
    ks = kraus_set([np.diag([0.5, 0.5]).astype(complex)], atol=1.0)
    ok, res = is_complete(ks)
    assert not ok
    assert abs(res - 0.75) < 1e-12


def test_is_incoherent_identity_and_diagonal():
    ok, witness = is_incoherent(_identity())
    assert ok and witness is None
    perm = np.array([[0, 1], [1, 0]], dtype=complex)
    ok, _ = is_incoherent(kraus_set([perm]))
    assert ok


def test_is_incoherent_hadamard_witness():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    ok, witness = is_incoherent(kraus_set([h]))
    assert not ok
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


def test_compose_cap():
    # no product of these stages vanishes, so 25 stages would form 2^25 of them
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    stage = kraus_set([INV2 * np.eye(2, dtype=complex), INV2 * flip])
    assert 2**25 > COMPOSE_CAP
    with pytest.raises(ResourceLimitError):
        compose([stage] * 25)
