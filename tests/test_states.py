import re
import time

import numpy as np
import pytest

from qcohere import (
    CompletenessError,
    DensityMatrixError,
    DimensionMismatchError,
    NormalizationError,
    ParameterError,
    ResourceLimitError,
    TTransform,
    apply_channel,
    apply_selective,
    build_ladder,
    builtin,
    canonicalize,
    check_density,
    coherence_pure,
    compose,
    conversion_probability,
    convex_roof_upper,
    deterministic_protocol,
    filter_operator,
    kraus_set,
    optimal_protocol,
    prob_vector,
    pure_density,
    pure_state,
    sorted_desc,
    squared_amplitudes,
    support_size,
    tensor_power,
    ttransform_chain,
    verify_protocol,
)
from randgen import random_pure_state

INV2 = 1.0 / np.sqrt(2.0)


def test_pure_state_validation():
    psi = pure_state([INV2, INV2 * 1j])
    assert psi.dtype == np.complex128
    with pytest.raises(NormalizationError):
        pure_state([1.0, 0.1])


def test_squared_amplitudes():
    np.testing.assert_allclose(
        squared_amplitudes([INV2, -INV2 * 1j]), [0.5, 0.5], atol=1e-15
    )


def test_canonicalize_phase_only():
    c = canonicalize([1j * INV2, -INV2])
    np.testing.assert_allclose(c.state, [INV2, INV2], atol=1e-15)
    np.testing.assert_array_equal(c.permutation, [0, 1])  # stable on ties
    np.testing.assert_allclose(c.phases, [-1j, -1.0], atol=1e-15)


def test_canonicalize_swap():
    c = canonicalize([0.0, 1.0])
    np.testing.assert_allclose(c.state, [1.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(c.permutation, [1, 0])


def test_canonicalize_mixed():
    c = canonicalize([0.3, 0.5j, np.sqrt(0.66)])
    np.testing.assert_allclose(c.state, [np.sqrt(0.66), 0.5, 0.3], atol=1e-15)
    np.testing.assert_array_equal(c.permutation, [2, 1, 0])
    np.testing.assert_allclose(c.phases, [1.0, -1j, 1.0], atol=1e-15)


def test_canonicalize_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        psi = random_pure_state(rng, d)
        c = canonicalize(psi)
        assert np.all(np.diff(c.state) <= 1e-15)
        assert np.all(c.state >= 0.0)
        assert np.abs(np.abs(c.phases) - 1.0).max() <= 1e-12
        # the frame change P D: strip phases, then permute; its inverse
        # undoes it, so it is unitary and incoherent
        assert sorted(c.permutation) == list(range(d))
        assert np.abs((c.phases * psi)[c.permutation] - c.state).max() <= 1e-12
        back = np.empty(d, dtype=complex)
        back[c.permutation] = c.state
        assert np.abs(back * c.phases.conj() - psi).max() <= 1e-12
        np.testing.assert_allclose(
            squared_amplitudes(c.state.astype(complex)),
            sorted_desc(squared_amplitudes(psi)),
            atol=1e-12,
        )


def test_tensor_power_pair():
    psi = pure_state([INV2, INV2])
    out = tensor_power(psi, 2)
    np.testing.assert_allclose(out, np.full(4, 0.5), atol=1e-15)
    np.testing.assert_array_equal(tensor_power(psi, 1), psi)


def test_tensor_power_matches_repeated_kron():
    rng = np.random.default_rng(4)
    psi = random_pure_state(rng, 3)
    out = psi
    for n in range(2, 10):
        out = np.kron(out, psi)
        np.testing.assert_allclose(tensor_power(psi, n), out, rtol=0.0, atol=1e-15)


def test_tensor_power_large_copy_counts_are_fast():
    # one untimed call, so the clock covers no first-use costs (the first
    # assert_array_equal alone takes about 7 ms)
    np.testing.assert_array_equal(tensor_power([1.0], 2), [1.0])
    start = time.perf_counter()
    # the cap test never forms 2**(10**8)
    with pytest.raises(ResourceLimitError):
        tensor_power([INV2, INV2], 10**8)
    # one amplitude never reaches the cap: O(log n) products
    np.testing.assert_array_equal(tensor_power([1.0], 10**9), [1.0])
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("n", [2.5, 1.5, 2.0, np.float64(3.0), "2", True])
def test_tensor_power_rejects_non_integer_copy_counts(n):
    # a float count used to be halved into the recursion: 2.5 gave 3 copies,
    # and 1.5 raised naming 0.0
    with pytest.raises(ParameterError, match=f"got {re.escape(repr(n))}$"):
        tensor_power([INV2, INV2], n)


def test_tensor_power_embedded_zero():
    psi = pure_state([INV2, INV2, 0.0])
    out = tensor_power(psi, 2)
    assert out.size == 9
    expected = np.zeros(9)
    expected[[0, 1, 3, 4]] = 0.5
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_tensor_power_norm():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        out = tensor_power(random_pure_state(rng, d), n)
        assert out.size == d**n
        assert abs((np.abs(out) ** 2).sum() - 1.0) <= 1e-9


def test_tensor_power_limits():
    psi = pure_state(np.full(10, np.sqrt(0.1)))
    with pytest.raises(ResourceLimitError):
        tensor_power(psi, 7)
    with pytest.raises(ParameterError):
        tensor_power(psi, 0)


def test_support_size():
    assert support_size([INV2, INV2, 0.0]) == 2
    assert support_size(np.full(3, 1 / np.sqrt(3))) == 3
    assert support_size(tensor_power(pure_state([INV2, INV2, 0.0]), 2)) == 4
    # amplitudes at or below the threshold do not count
    assert support_size([np.sqrt(1 - 1e-20), 1e-10]) == 1


def test_support_size_matches_probability_floor():
    # mass 1e-16 lies below the probability floor, mass 1e-10 above it
    assert support_size([np.sqrt(1 - 1e-16), 1e-8]) == 1
    assert support_size([np.sqrt(1 - 1e-10), 1e-5]) == 2


def test_check_density():
    rho = check_density(np.diag([0.5, 0.5]).astype(complex))
    assert rho.shape == (2, 2)
    with pytest.raises(DensityMatrixError):
        check_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(DensityMatrixError):
        check_density(np.diag([0.7, 0.7]))
    with pytest.raises(DensityMatrixError):
        check_density(np.diag([1.5, -0.5]))


NAN = float("nan")
NAN_DENSITY = [[NAN, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: pure_state([NAN, 1.0]), NormalizationError),
        (lambda: pure_state([complex(0.0, NAN), 1.0]), NormalizationError),
        (lambda: prob_vector([NAN, 1.0]), NormalizationError),
        (lambda: check_density(NAN_DENSITY), DensityMatrixError),
        (lambda: conversion_probability([NAN, 1.0], [1.0, 0.0]), NormalizationError),
        (lambda: coherence_pure(builtin("shannon"), [NAN, 1.0]), NormalizationError),
        (lambda: convex_roof_upper(builtin("shannon"), NAN_DENSITY), DensityMatrixError),
        (lambda: kraus_set([NAN_DENSITY]), CompletenessError),
    ],
    ids=["pure_state", "pure_state_imag", "prob_vector", "check_density",
         "conversion_probability", "coherence_pure", "convex_roof_upper", "kraus_set"],
)
def test_nan_entries_rejected(call, error):
    # every comparison with NaN is false, so range checks alone let it through
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: kraus_set([np.eye(2)], labels=["a", "b"]), ParameterError),
        (lambda: kraus_set([]), ParameterError),
        (lambda: compose([]), ParameterError),
        (lambda: build_ladder([0.6j, 0.8], [1.0, 0.0]), ParameterError),
        (lambda: build_ladder([-0.8, 0.6], [1.0, 0.0]), ParameterError),
        (lambda: build_ladder([0.6, 0.8], [1.0, 0.0]), ParameterError),
        (lambda: filter_operator(build_ladder([0.8, 0.6], [1.0, 0.0]), [INV2, INV2]),
         ParameterError),
        (lambda: TTransform(1, 1, 0.5), ParameterError),
        (lambda: TTransform(1, 2, 1.5), ParameterError),
        (lambda: ttransform_chain([0.3, 0.7], [0.5, 0.5]), ParameterError),
        (lambda: verify_protocol(optimal_protocol([0.8, 0.6, 0.0], [1.0, 0.0, 0.0]),
                                 np.full(5, 5**-0.5), [1.0, 0.0, 0.0]),
         DimensionMismatchError),
        (lambda: kraus_set([np.ones((2, 3))]), DimensionMismatchError),
        (lambda: kraus_set([np.eye(2), np.eye(3)]), DimensionMismatchError),
        (lambda: apply_selective(kraus_set([np.eye(2)]), [1.0, 0.0, 0.0]), DimensionMismatchError),
        (lambda: apply_channel(kraus_set([np.eye(2)]), np.diag([1.0, 0.0, 0.0])),
         DimensionMismatchError),
        (lambda: compose([kraus_set([np.eye(2)]), kraus_set([np.eye(3)])]), DimensionMismatchError),
        (lambda: build_ladder([1.0, 0.0], [1.0, 0.0, 0.0]), DimensionMismatchError),
        (lambda: filter_operator(build_ladder([0.8, 0.6], [1.0, 0.0]), [1.0, 0.0, 0.0]),
         DimensionMismatchError),
        # deterministic_protocol leaves the dimension check to the chain sweep
        (lambda: deterministic_protocol([1.0, 0.0], [1.0, 0.0, 0.0]), DimensionMismatchError),
        (lambda: prob_vector([[0.5, 0.5]]), NormalizationError),
        (lambda: ttransform_chain([1.0], [0.5, 0.5]), DimensionMismatchError),
        (lambda: check_density(np.full((2, 3), 0.5)), DensityMatrixError),
    ],
    ids=["labels", "no_operators", "no_stages", "complex_amplitudes",
         "negative_amplitudes", "unsorted_state", "inconsistent_filter",
         "equal_coordinates", "mix_weight", "unsorted_chain", "oversized_state",
         "non_square_operator", "unequal_operators", "selective_dimension",
         "channel_dimension", "compose_dimensions", "ladder_dimensions",
         "filter_dimension", "deterministic_dimensions", "two_dimensional_vector",
         "chain_lengths", "non_square_density"],
)
def test_validation_errors_are_qcohere_errors(call, error):
    # errors.py: every validation error is a QcohereError
    with pytest.raises(error):
        call()


def test_pure_density():
    rho = pure_density([INV2, INV2 * 1j])
    assert abs(rho.trace() - 1.0) < 1e-12
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)
