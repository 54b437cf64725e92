import numpy as np
import pytest

from qcohere import (
    builtin,
    coherence_pure,
    convex_roof_upper,
    extract_functional,
    pure_density,
)
from randgen import random_pure_state


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
    assert res.quality == "upper-bound"


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
        res = convex_roof_upper(f, rho, restarts=8, seed=1, sweeps=120)
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
    g = extract_functional(lambda v: coherence_pure(builtin("shannon"), v), 2)
    rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    res = convex_roof_upper(g, rho, restarts=2, seed=0)
    assert res.value >= 0.0


def test_invalid_density_rejected():
    f = builtin("shannon")
    with pytest.raises(Exception):
        convex_roof_upper(f, np.array([[0.9, 0.0], [0.0, 0.2]], dtype=complex))
