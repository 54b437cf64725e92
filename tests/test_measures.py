import dataclasses

import numpy as np
import pytest

from qcohere import (
    CoherenceFunctional,
    DimensionMismatchError,
    ParameterError,
    ValidationReport,
    apply_selective,
    builtin,
    canonicalize,
    coherence_pure,
    convex_roof_upper,
    extract_functional,
    validate_functional,
)
from randgen import random_incoherent_kraus, random_majorized_pair, random_pure_state

INV2 = 1.0 / np.sqrt(2.0)

ALL_BUILTINS = [
    builtin("shannon"),
    builtin("l1"),
    builtin("alpha", alpha=0.5),
    builtin("kyfan", l=2),
]


def test_known_values():
    assert abs(coherence_pure(builtin("shannon"), [INV2, INV2]) - 1.0) < 1e-12
    assert abs(coherence_pure(builtin("l1"), np.full(3, 1 / np.sqrt(3))) - 2.0) < 1e-12
    assert abs(coherence_pure(builtin("alpha", alpha=0.5), np.full(4, 0.5)) - 2.0) < 1e-12
    assert abs(coherence_pure(builtin("kyfan", l=2), np.sqrt([0.8, 0.1, 0.1])) - 0.2) < 1e-12
    assert abs(coherence_pure(builtin("kyfan", l=2), np.full(3, 1 / np.sqrt(3)) + 0j) - 2 / 3) < 1e-12


def test_basis_states_vanish_exactly():
    for f in ALL_BUILTINS:
        for d in (2, 4):
            e = np.zeros(d)
            e[d - 1] = 1.0
            assert coherence_pure(f, e) == 0.0


def test_maximally_coherent_shannon():
    for d in (2, 3, 5, 8):
        val = coherence_pure(builtin("shannon"), np.full(d, 1 / np.sqrt(d)))
        assert abs(val - np.log2(d)) < 1e-12


def test_parameter_rejection():
    with pytest.raises(ParameterError):
        builtin("kyfan", l=1)
    with pytest.raises(ParameterError):
        builtin("kyfan")
    with pytest.raises(ParameterError):
        builtin("alpha", alpha=1.0)
    with pytest.raises(ParameterError):
        builtin("alpha", alpha=-0.5)
    with pytest.raises(ParameterError):
        builtin("nope")


@pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda f: f.name)
@pytest.mark.parametrize("d", [3, 4])
def test_builtins_validate(f, d):
    report = validate_functional(f, d, samples=1000, seed=0)
    assert report.passes
    assert report.vertex_residual <= 1e-12


def test_validation_catches_asymmetry():
    f = CoherenceFunctional("first-coordinate", lambda x: float(x[0]))
    report = validate_functional(f, 3, samples=300)
    assert not report.passes
    assert report.permutation_residual > 1e-3


def test_validation_catches_convexity():
    f = CoherenceFunctional("sum-of-squares", lambda x: float((x**2).sum()) - 1.0 / x.size)
    report = validate_functional(f, 3, samples=300)
    assert not report.passes
    assert report.concavity_violation > 1e-3


@pytest.mark.parametrize("evaluate", [
    lambda x: float("nan"),
    lambda x: float("nan") if x.min() > 0.0 else 0.0,
], ids=["everywhere", "interior"])
def test_validation_keeps_nan_residuals(evaluate):
    # Python's max drops NaN, so such a functional used to pass with all
    # residuals 0.0
    report = validate_functional(CoherenceFunctional("nan", evaluate), 3, samples=50)
    assert np.isnan(report.permutation_residual) and np.isnan(report.concavity_violation)
    assert not report.passes
    assert not ValidationReport(0.0, float("nan"), 0.0, 1).passes


def test_stacks_probe_classifies_evaluate():
    def numpy_entropy(x):
        t = np.where(x > 0.0, x, 1.0)
        return -(t * np.log(t)).sum(axis=-1)

    def whole_array_branch(x):
        # the probe stack holds a vertex, so its max is 1 as a whole
        return 1.0 - x.max(axis=-1) if x.max() < 1.0 else np.zeros(x.shape[:-1])

    stacked = ALL_BUILTINS + [
        builtin("kyfan", l=5),  # l > d at the probe's d = 3
        builtin("kyfan", l=9),
        CoherenceFunctional("entropy", numpy_entropy),
        CoherenceFunctional("linear", lambda x: 1.0 - (x * x).sum(axis=-1)),
        CoherenceFunctional("entropy", numpy_entropy, dimension=1),
        CoherenceFunctional("entropy", numpy_entropy, dimension=2),
    ]
    pointwise = [
        extract_functional(lambda v: coherence_pure(builtin("shannon"), v), 4),
        CoherenceFunctional("first", lambda x: float(x[0])),
        CoherenceFunctional("squares", lambda x: 1.0 - (x**2).sum()),
        CoherenceFunctional("columns", lambda x: x.sum(axis=0)),
        CoherenceFunctional("branch", whole_array_branch),
        CoherenceFunctional("nan", lambda x: np.full(x.shape[:-1], np.nan)),
        CoherenceFunctional("raises", lambda x: 1 / 0),
    ]
    assert all(f.stacks for f in stacked)
    assert not any(f.stacks for f in pointwise)
    # a derived field: not a constructor parameter, recomputed by replace
    with pytest.raises(TypeError):
        CoherenceFunctional("x", numpy_entropy, stacks=True)
    assert not dataclasses.replace(stacked[-1], evaluate=lambda x: float(x.sum())).stacks


def test_phase_and_order_invariance():
    rng = np.random.default_rng(2)
    for f in ALL_BUILTINS:
        for _ in range(50):
            psi = random_pure_state(rng, 4)
            canon = canonicalize(psi).state.astype(complex)
            assert abs(coherence_pure(f, psi) - coherence_pure(f, canon)) < 1e-12


def test_schur_concavity():
    rng = np.random.default_rng(77)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        x, y = random_majorized_pair(rng, d)
        for f in ALL_BUILTINS:
            assert f(x) >= f(y) - 1e-12


def test_average_monotone_under_incoherent_channels():
    rng = np.random.default_rng(123)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        psi = random_pure_state(rng, d)
        ks = random_incoherent_kraus(rng, d)
        branches = apply_selective(ks, psi)
        for f in ALL_BUILTINS:
            before = coherence_pure(f, psi)
            after = sum(b.probability * coherence_pure(f, b.state) for b in branches)
            assert after <= before + 1e-9


def test_extract_functional_round_trip():
    rng = np.random.default_rng(8)
    for f in (builtin("shannon"), builtin("l1")):
        g = extract_functional(lambda v, f=f: coherence_pure(f, v), 4)
        for _ in range(100):
            x = rng.dirichlet(np.ones(4))
            assert abs(g(x) - f(x)) < 1e-12


def test_extracted_functional_dimension_guard():
    g = extract_functional(lambda v: 0.0, 3)
    with pytest.raises(DimensionMismatchError):
        g(np.full(4, 0.25))
    with pytest.raises(DimensionMismatchError):
        validate_functional(g, 4, samples=10)
    with pytest.raises(DimensionMismatchError):
        convex_roof_upper(g, np.full((4, 4), 0.25))
    report = validate_functional(g, 3, samples=100)
    assert report.passes
