"""Coherence measures from concave simplex functionals.

Any f on the probability simplex that vanishes on the vertices, is symmetric
under coordinate permutations, and is concave defines a pure-state coherence
measure f(|psi_i|^2), extended to mixed states by the convex roof. This
module validates candidate functionals by sampling, provides the built-in
families, and computes certified upper bounds on the roof extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _roofopt
from .errors import DimensionMismatchError, ParameterError
from .simplex import ATOL, TINY
from .states import check_density, squared_amplitudes


@dataclass(frozen=True)
class CoherenceFunctional:
    """A named simplex functional.

    ``dimension`` is None for any-dimension families and a fixed d otherwise.
    ``rows``, when given, evaluates many points at once: it maps an array of
    simplex points along its last axis to their values over the leading
    axes. ``gradient``, when given, maps unnormalized member amplitudes w
    (last axis) to the gradient G of g(w) = p f(|w_i|^2 / p), p = sum_i
    |w_i|^2, in the real sense: dg = Re sum_i conj(G_i) dw_i. The
    convex-roof search descends along it, or along central differences of
    ``values`` when it is None.

    The convex-roof search calls ``rows`` and ``gradient`` in place of
    ``evaluate`` whenever they are given, so a copy that replaces
    ``evaluate`` (``dataclasses.replace`` included) must replace them
    together with it, or set them to None.
    """

    name: str
    evaluate: Callable
    dimension: int | None = None
    rows: Callable | None = None
    gradient: Callable | None = None

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.dimension is not None and x.size != self.dimension:
            raise DimensionMismatchError(
                f"{self.name} expects dimension {self.dimension}, got {x.size}"
            )
        return float(self.evaluate(x))

    def values(self, x) -> np.ndarray:
        """f at each point along the last axis of x; one ``evaluate`` call per
        point when the functional has no row-wise form."""
        if self.rows is not None:
            return self.rows(x)
        flat = x.reshape(-1, x.shape[-1])
        return np.array([float(self.evaluate(p)) for p in flat]).reshape(x.shape[:-1])

    def gradients(self, w) -> np.ndarray:
        """G at each member along the last axis of w (see ``gradient``);
        central differences of ``values`` when the functional has none."""
        if self.gradient is not None:
            return self.gradient(w)
        return _central_gradient(self.values, w)


# step of the central differences relative to the member's norm, near the
# cube root of the machine epsilon where truncation and rounding balance
FD_STEP = 1e-5


def _central_gradient(values, w):
    # g depends on the moduli u = |w| alone: its derivative in u_i, from
    # g(u +- h e_i) = p f(u^2 / p) in one call, points along the phase of
    # w_i; by symmetry it is 0 at a zero amplitude, and so is G
    u = np.abs(w)
    norm = np.sqrt((u * u).sum(axis=-1))
    h = FD_STEP * np.where(norm > 0.0, norm, 1.0)[..., None, None, None]
    moves = np.array([1.0, -1.0])[:, None, None] * np.eye(u.shape[-1])
    sq = (u[..., None, None, :] + h * moves) ** 2
    mass = sq.sum(axis=-1)
    g = mass * values(sq / mass[..., None])
    return (g[..., 0, :] - g[..., 1, :]) / (2.0 * h[..., 0, 0]) * w / np.where(u > 0.0, u, 1.0)


# The built-in formulas reduce over the last axis, so one definition serves a
# single point (``evaluate``) and a stack of points (``rows``).


def _shannon(x):
    t = np.where(x > 0.0, x, 1.0)
    return -(t * np.log2(t)).sum(axis=-1) + 0.0


def _shannon_gradient(w):
    # p f(a/p) with a = |w|^2 has partial derivative -log2(a_i/p) in a_i;
    # a zero amplitude contributes 0 (w log x -> 0)
    sq = w.real**2 + w.imag**2
    weights = sq.sum(axis=-1, keepdims=True)
    x = sq / np.where(weights > 0.0, weights, 1.0)
    return -2.0 * w * np.log2(np.where(x > 0.0, x, 1.0))


def _l1(x):
    s = np.sqrt(x).sum(axis=-1)
    return s * s - 1.0


def _l1_gradient(w):
    # p f(a/p) = s^2 - p with s = sum_i |w_i|; 0 at a zero amplitude
    mod = np.abs(w)
    s = mod.sum(axis=-1, keepdims=True)
    return 2.0 * s * w / np.where(mod > 0.0, mod, 1.0) - 2.0 * w


def _alpha_entropy(x, alpha: float):
    return np.log2((x**alpha).sum(axis=-1)) / (1.0 - alpha)


def _alpha_gradient(w, alpha: float):
    # partial derivative in a_i: f(x) + c (x_i^(alpha-1) / sum_j x_j^alpha - 1),
    # c = alpha / ((1 - alpha) ln 2); a zero amplitude contributes 0
    sq = w.real**2 + w.imag**2
    weights = sq.sum(axis=-1, keepdims=True)
    x = sq / np.where(weights > 0.0, weights, 1.0)
    total = np.where(weights > 0.0, (x**alpha).sum(axis=-1, keepdims=True), 1.0)
    c = alpha / ((1.0 - alpha) * np.log(2.0))
    ratio = np.where(x > 0.0, x, 1.0) ** (alpha - 1.0) / total
    return 2.0 * w * (np.log2(total) / (1.0 - alpha) + c * (ratio - 1.0))


def _kyfan(x, l: int):
    keep = x.shape[-1] - l + 1
    if keep <= 0:
        return np.zeros(x.shape[:-1])
    return np.sort(x, axis=-1)[..., :keep].sum(axis=-1)


def _kyfan_gradient(w, l: int):
    # p f(a/p) is the sum of the d-l+1 smallest a_i: slope 1 there, 0 elsewhere
    rank = (w.real**2 + w.imag**2).argsort(axis=-1).argsort(axis=-1)
    return 2.0 * w * (rank < w.shape[-1] - l + 1)


def _rowwise(name, fun, gradient=None) -> CoherenceFunctional:
    return CoherenceFunctional(name, fun, rows=fun, gradient=gradient)


def builtin(name: str, *, alpha: float | None = None, l: int | None = None) -> CoherenceFunctional:
    """Built-in functional families.

    shannon: -sum x_i log2 x_i
    l1:      (sum sqrt(x_i))^2 - 1
    alpha:   log2(sum x_i^alpha) / (1 - alpha), 0 < alpha < 1
    kyfan:   sum of the d-l+1 smallest entries, integer l >= 2
    """
    if name == "shannon":
        return _rowwise("shannon", _shannon, _shannon_gradient)
    if name == "l1":
        return _rowwise("l1", _l1, _l1_gradient)
    if name == "alpha":
        if alpha is None or not 0.0 < alpha < 1.0:
            raise ParameterError(f"alpha must lie strictly in (0, 1), got {alpha}")
        a = float(alpha)
        return _rowwise(f"alpha({a:g})", lambda x: _alpha_entropy(x, a),
                        lambda w: _alpha_gradient(w, a))
    if name == "kyfan":
        if l is None or int(l) != l or l < 2:
            raise ParameterError(f"kyfan order must be an integer >= 2, got {l}")
        k = int(l)
        return _rowwise(f"kyfan({k})", lambda x: _kyfan(x, k), lambda w: _kyfan_gradient(w, k))
    raise ParameterError(f"unknown functional family {name!r}")


# largest sampled residual a valid functional may show
VALIDATION_TOL = 1e-7


@dataclass(frozen=True)
class ValidationReport:
    """Sampled residuals for the three defining requirements.

    ``passes`` is True when every residual is at most VALIDATION_TOL.
    """

    vertex_residual: float
    permutation_residual: float
    concavity_violation: float
    samples: int

    @property
    def passes(self) -> bool:
        worst = max(self.vertex_residual, self.permutation_residual, self.concavity_violation)
        return worst <= VALIDATION_TOL


def validate_functional(
    f: CoherenceFunctional, d: int, samples: int = 1000, seed: int = 0
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


class RestartReport(NamedTuple):
    """How one restart of the roof search ended.

    ``iterations`` counts conjugate-gradient steps, resumes included;
    ``stop``, from the last descent kept, is "converged" (at a minimum),
    "stalled" (held by a cusp) or "cap" (out of iterations).
    """

    value: float
    iterations: int
    stop: str


@dataclass(frozen=True)
class RoofResult:
    """Upper bound on the convex-roof extension plus the achieving ensemble.

    ``ensemble`` holds (weight, amplitude-vector) pairs mixing back to the
    input density matrix; the weighted measure values sum to ``value``.
    ``restarts`` holds one ``RestartReport`` per search restart; it is empty
    when a pure or diagonal input needs no search.
    """

    value: float
    ensemble: tuple
    restarts: tuple = ()


def _basis_ensemble(diag: np.ndarray, d: int):
    members = []
    for k in range(d):
        p = float(diag[k].real)
        if p > TINY:
            e = np.zeros(d, dtype=complex)
            e[k] = 1.0
            members.append((p, e))
    return members


# size of the seeded perturbation that moves the first gradient restart off
# the eigen-ensemble: exactly there the empty members have zero gradient, so
# the descent could never leave the rank-r subspace
EIGEN_NUDGE = 1e-2


def _search(f, scaled, restarts, rng):
    r = scaled.shape[0]
    eigen = np.eye(r * r, r, dtype=complex)
    starts = rng.standard_normal((restarts, r * r, r, 2)).view(np.complex128)[..., 0]
    starts[0] = eigen + EIGEN_NUDGE * starts[0]
    q, vals, iters, stops = _roofopt.descend(
        _roofopt.retract(starts), scaled, f.values, f.gradients)
    stalled = np.flatnonzero(stops == "stalled")
    if stalled.size:
        # a descent stalls at a cusp of f, such as sqrt(x) at a member's zero
        # amplitude, where no trial step passes the Armijo test: resume it on
        # the smoothed objective, then on f, and keep it only if it gained
        qs, _, smooth_iters, _ = _roofopt.descend(
            q[stalled], scaled, *_roofopt.smoothed(f.values, f.gradients))
        qs, vs, more_iters, resumed = _roofopt.descend(qs, scaled, f.values, f.gradients)
        iters[stalled] += smooth_iters + more_iters
        gain = vs < vals[stalled]
        won = stalled[gain]
        q[won], vals[won], stops[won] = qs[gain], vs[gain], resumed[gain]
    reports = [RestartReport(float(v), int(n), s) for v, n, s in zip(vals, iters, stops)]
    best = int(np.argmin(vals))
    # the eigen-ensemble bounds the result from above
    if _roofopt.ensemble_value(scaled, f.values) < vals[best]:
        return eigen, reports
    return q[best], reports


def convex_roof_upper(f: CoherenceFunctional, rho, restarts: int = 8, seed: int = 0) -> RoofResult:
    """Upper-bound the convex roof of ``f`` over decompositions of ``rho``.

    Searches ensembles of rank^2 members by Riemannian conjugate gradient,
    all restarts at once; deterministic for a fixed seed. Restart 0 starts
    next to the eigen-ensemble, the others at random ensembles. The gradient
    is ``f.gradient``, or central differences of ``f.values`` when f has
    none. A restart held by a cusp of f ("stalled") is resumed, first on the
    smoothed objective f((1 - eps) x + eps / d) with eps = 1e-3, then on f,
    and kept only if it scores lower. The eigen-ensemble is returned
    whenever it scores lower, so the bound never exceeds the
    eigendecomposition average.
    """
    rho = check_density(rho)
    d = rho.shape[0]
    if f.dimension is not None and f.dimension != d:
        raise DimensionMismatchError(f"{f.name} expects dimension {f.dimension}, got {d}")
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")

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

    # rows are the eigenvectors scaled by sqrt(eigenvalue); any matrix with
    # orthonormal columns applied from the left yields a valid ensemble
    scaled = np.ascontiguousarray((vecs[:, keep] * np.sqrt(w[keep])).T)

    q, reports = _search(f, scaled, restarts, np.random.default_rng(seed))

    wmat = q @ scaled
    sq = wmat.real**2 + wmat.imag**2
    weights = sq.sum(axis=1)
    kept = np.flatnonzero(weights > TINY)
    members = tuple((float(weights[j]), wmat[j] / np.sqrt(weights[j])) for j in kept)
    value = float(_roofopt.ensemble_value(wmat, f.values))
    return RoofResult(value=value, ensemble=members, restarts=tuple(reports))
