"""Coherence measures from concave simplex functionals.

Any f on the probability simplex that vanishes on the vertices, is symmetric
under coordinate permutations, and is concave defines a pure-state coherence
measure f(|psi_i|^2), extended to mixed states by the convex roof. This
module validates candidate functionals by sampling, provides the built-in
families, and computes certified upper bounds on the roof extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _roofopt
from .errors import DimensionMismatchError, ParameterError
from .simplex import ATOL, TINY
from .states import check_density, squared_amplitudes


@dataclass(frozen=True)
class CoherenceFunctional:
    """A named simplex functional.

    ``dimension`` is None for any-dimension families and a fixed d otherwise.
    """

    name: str
    evaluate: Callable
    dimension: int | None = None

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.dimension is not None and x.size != self.dimension:
            raise DimensionMismatchError(
                f"{self.name} expects dimension {self.dimension}, got {x.size}"
            )
        return float(self.evaluate(x))


def _shannon(x) -> float:
    nz = x[x > 0.0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0


def _l1(x) -> float:
    s = float(np.sqrt(x).sum())
    return s * s - 1.0


def _alpha_entropy(x, alpha: float) -> float:
    return float(np.log2((x**alpha).sum()) / (1.0 - alpha))


def _kyfan(x, l: int) -> float:
    keep = x.size - l + 1
    if keep <= 0:
        return 0.0
    return float(np.sort(x)[:keep].sum())


def builtin(name: str, *, alpha: float | None = None, l: int | None = None) -> CoherenceFunctional:
    """Built-in functional families.

    shannon: -sum x_i log2 x_i
    l1:      (sum sqrt(x_i))^2 - 1
    alpha:   log2(sum x_i^alpha) / (1 - alpha), 0 < alpha < 1
    kyfan:   sum of the d-l+1 smallest entries, integer l >= 2
    """
    if name == "shannon":
        return CoherenceFunctional("shannon", _shannon)
    if name == "l1":
        return CoherenceFunctional("l1", _l1)
    if name == "alpha":
        if alpha is None or not 0.0 < alpha < 1.0:
            raise ParameterError(f"alpha must lie strictly in (0, 1), got {alpha}")
        return CoherenceFunctional(
            f"alpha({alpha:g})", lambda x, a=float(alpha): _alpha_entropy(x, a)
        )
    if name == "kyfan":
        if l is None or int(l) != l or l < 2:
            raise ParameterError(f"kyfan order must be an integer >= 2, got {l}")
        return CoherenceFunctional(f"kyfan({int(l)})", lambda x, k=int(l): _kyfan(x, k))
    raise ParameterError(f"unknown functional family {name!r}")


@dataclass(frozen=True)
class ValidationReport:
    """Sampled residuals for the three defining requirements.

    ``passes`` is True when every residual is at most ``tolerance``.
    """

    vertex_residual: float
    permutation_residual: float
    concavity_violation: float
    samples: int
    tolerance: float

    @property
    def passes(self) -> bool:
        worst = max(self.vertex_residual, self.permutation_residual, self.concavity_violation)
        return worst <= self.tolerance


def validate_functional(
    f: CoherenceFunctional, d: int, samples: int = 1000, seed: int = 0, tolerance: float = 1e-7
) -> ValidationReport:
    """Check f(vertices)=0, permutation invariance, and concavity by sampling."""
    if f.dimension is not None and f.dimension != d:
        raise DimensionMismatchError(f"{f.name} expects dimension {f.dimension}, got {d}")
    rng = np.random.default_rng(seed)
    vertex = 0.0
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        vertex = max(vertex, abs(f(e)))
    perm_res = 0.0
    conc = 0.0
    for _ in range(samples):
        x = rng.dirichlet(np.ones(d))
        perm_res = max(perm_res, abs(f(x[rng.permutation(d)]) - f(x)))
        y = rng.dirichlet(np.ones(d))
        lam = float(rng.random())
        gap = lam * f(x) + (1.0 - lam) * f(y) - f(lam * x + (1.0 - lam) * y)
        conc = max(conc, gap)
    return ValidationReport(
        vertex_residual=float(vertex),
        permutation_residual=float(perm_res),
        concavity_violation=float(max(conc, 0.0)),
        samples=samples,
        tolerance=tolerance,
    )


def coherence_pure(f: CoherenceFunctional, psi) -> float:
    """Measure value f(|psi_i|^2) of a pure state."""
    return f(squared_amplitudes(psi))


def extract_functional(mu: Callable, d: int) -> CoherenceFunctional:
    """Recover the simplex functional of a pure-state measure evaluator.

    ``mu`` maps an amplitude vector to a float; the returned functional
    evaluates it on the nonnegative real state sqrt(x).
    """

    def ev(x):
        return float(mu(np.sqrt(np.asarray(x, dtype=float)).astype(complex)))

    return CoherenceFunctional(name="extracted", evaluate=ev, dimension=int(d))


@dataclass(frozen=True)
class RoofResult:
    """Upper bound on the convex-roof extension plus the achieving ensemble.

    ``ensemble`` holds (weight, amplitude-vector) pairs mixing back to the
    input density matrix; the weighted measure values sum to ``value``.
    """

    value: float
    ensemble: tuple
    quality: str = "upper-bound"


def _basis_ensemble(diag: np.ndarray, d: int):
    members = []
    for k in range(d):
        p = float(diag[k].real)
        if p > TINY:
            e = np.zeros(d, dtype=complex)
            e[k] = 1.0
            members.append((p, e))
    return members


def convex_roof_upper(
    f: CoherenceFunctional,
    rho,
    restarts: int = 8,
    ensemble_size: int | None = None,
    seed: int = 0,
    sweeps: int = 80,
    init_step: float = 0.25,
    min_step: float = 1e-4,
) -> RoofResult:
    """Upper-bound the convex roof of ``f`` over decompositions of ``rho``.

    Deterministic for a fixed seed: the eigen-ensemble seeds restart 0 (so
    the bound never exceeds the eigendecomposition average), further
    restarts draw random ensembles, and each is refined by compass search.
    """
    rho = check_density(rho)
    d = rho.shape[0]
    if f.dimension is not None and f.dimension != d:
        raise DimensionMismatchError(f"{f.name} expects dimension {f.dimension}, got {d}")

    diag = np.diag(rho)
    if float(np.abs(rho - np.diag(diag)).max()) <= ATOL:
        # diagonal state: the basis ensemble is exact and vertex values vanish
        members = _basis_ensemble(diag, d)
        value = sum(p * f(squared_amplitudes(vec)) for p, vec in members)
        return RoofResult(value=float(value), ensemble=tuple(members))

    w, vecs = np.linalg.eigh(rho)
    order = np.argsort(-w)
    keep = order[w[order] > TINY]
    r = keep.size
    if r == 1:
        vec = vecs[:, keep[0]]
        return RoofResult(value=coherence_pure(f, vec), ensemble=((1.0, vec),))

    m = int(ensemble_size) if ensemble_size is not None else r * r
    if m < r:
        raise ParameterError(f"ensemble_size {m} below rank {r}")
    # rows are the eigenvectors scaled by sqrt(eigenvalue); any matrix with
    # orthonormal columns applied from the left yields a valid ensemble
    scaled = np.ascontiguousarray((vecs[:, keep] * np.sqrt(w[keep])).T)

    rng = np.random.default_rng(seed)
    n_par = 2 * m * r
    best_val = np.inf
    best_params = None
    for it in range(restarts):
        if it == 0:
            params = np.zeros(n_par)
            for k in range(r):
                params[2 * (k * r + k)] = 1.0  # embed the eigen-ensemble
        else:
            params = rng.standard_normal(n_par)
        val = _roofopt.refine(params, scaled, m, f.evaluate, sweeps, init_step, min_step)
        if val < best_val:
            best_val = val
            best_params = params

    amat = best_params.view(np.complex128).reshape(m, r)
    q, _ = np.linalg.qr(amat)
    wmat = q @ scaled
    sq = wmat.real**2 + wmat.imag**2
    weights = sq.sum(axis=1)
    members = []
    value = 0.0
    for j in range(m):
        p = float(weights[j])
        if p <= TINY:
            continue
        vec = wmat[j] / np.sqrt(p)
        members.append((p, vec))
        value += p * f(sq[j] / p)
    return RoofResult(value=float(value), ensemble=tuple(members))
