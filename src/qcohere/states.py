"""Pure states over a fixed basis: canonical forms, tensor powers, support."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DensityMatrixError, NormalizationError, ParameterError, ResourceLimitError
from .simplex import ATOL, TINY, prob_vector

# cap on the output length of tensor_power
TENSOR_CAP = 1_000_000


def pure_state(amplitudes) -> np.ndarray:
    """Validate and return a complex amplitude vector with unit norm (1e-9)."""
    psi = np.atleast_1d(np.asarray(amplitudes, dtype=complex)).copy()
    if psi.ndim != 1 or psi.size == 0:
        raise NormalizationError("expected a non-empty 1-d sequence")
    if not np.isfinite(psi).all():
        raise NormalizationError("amplitudes must be finite")
    n2 = float((psi.real**2 + psi.imag**2).sum())
    if abs(n2 - 1.0) > ATOL:
        raise NormalizationError(f"squared norm {n2!r}, expected 1 within {ATOL:.0e}")
    return psi


def squared_amplitudes(psi) -> np.ndarray:
    psi = pure_state(psi)
    return prob_vector(psi.real**2 + psi.imag**2)


@dataclass(frozen=True)
class Canonicalization:
    """Sorted nonnegative form of a state plus the incoherent unitary reaching it.

    canonical = P @ D @ original, where D = diag(phases) strips entrywise
    phases and P is the permutation matrix with P[k, permutation[k]] = 1.
    ``permutation`` is a 0-based index array; ``state`` is real, nonnegative
    and non-increasing.
    """

    state: np.ndarray
    permutation: np.ndarray
    phases: np.ndarray


def canonicalize(psi) -> Canonicalization:
    """Strip phases and sort moduli non-increasing (stable on ties)."""
    psi = pure_state(psi)
    mod = np.abs(psi)
    perm = np.argsort(-mod, kind="stable")
    phases = np.ones(psi.size, dtype=complex)
    nz = mod > 0.0
    phases[nz] = psi[nz].conj() / mod[nz]
    return Canonicalization(state=mod[perm], permutation=perm, phases=phases)


def tensor_power(psi, n: int) -> np.ndarray:
    """n-fold Kronecker power of ``psi`` (row-major, last factor fastest),
    by repeated squaring: O(log n) Kronecker products. An output longer
    than TENSOR_CAP raises ResourceLimitError before any product is formed."""
    psi = pure_state(psi)
    if n < 1:
        raise ParameterError(f"copy count must be >= 1, got {n}")
    # size >= 2 and n >= bit_length(cap) give size**n > cap, so the integer
    # power is formed only for small n
    if psi.size > 1 and (n >= TENSOR_CAP.bit_length() or psi.size**n > TENSOR_CAP):
        raise ResourceLimitError(f"{psi.size}^{n} amplitudes exceed the cap of {TENSOR_CAP}")
    if n == 1:
        return psi
    half = tensor_power(psi, n // 2)
    out = np.kron(half, half)
    return np.kron(out, psi) if n % 2 else out


def support_size(psi) -> int:
    """Number of amplitudes whose mass exceeds TINY, the floor below which
    conversion_probability treats mass as zero."""
    psi = np.asarray(psi, dtype=complex)
    return int(np.count_nonzero(psi.real**2 + psi.imag**2 > TINY))


def check_density(rho) -> np.ndarray:
    """Validate a density matrix (hermitian, unit trace, PSD within ATOL)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DensityMatrixError(f"expected a square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise DensityMatrixError("entries must be finite")
    if float(np.abs(rho - rho.conj().T).max()) > ATOL:
        raise DensityMatrixError("matrix is not hermitian")
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > ATOL:
        raise DensityMatrixError(f"trace {tr!r}, expected 1 within {ATOL:.0e}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if float(w.min()) < -ATOL:
        raise DensityMatrixError(f"negative eigenvalue {w.min():.3e}")
    return rho


def pure_density(psi) -> np.ndarray:
    psi = pure_state(psi)
    return np.outer(psi, psi.conj())


def fidelity_pure(a, b) -> float:
    """|<a|b>|^2 for two amplitude vectors."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(abs(np.vdot(a, b)) ** 2)
