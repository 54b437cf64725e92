"""Coherence measures from concave simplex functionals.

Any f on the probability simplex that vanishes on the vertices, is symmetric
under coordinate permutations, and is concave defines a pure-state coherence
measure f(|psi_i|^2), extended to mixed states by the convex roof. This
module validates candidate functionals by sampling, provides the built-in
families, and computes certified upper bounds on the roof extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _roofopt
from .errors import DimensionMismatchError, ParameterError, ResourceLimitError
from .simplex import ATOL, TINY, _count, _real, _tail_start, _tail_sums
from .states import check_density, squared_amplitudes


@dataclass(frozen=True)
class CoherenceFunctional:
    """A named simplex functional.

    ``dimension`` is None for any-dimension families, otherwise a count d >= 1 kept as int.
    ``gradient``, when given, maps unnormalized member amplitudes w (last
    axis) to the gradient G of g(w) = p f(|w_i|^2 / p), p = sum_i |w_i|^2,
    in the real sense: dg = Re sum_i conj(G_i) dw_i. The convex-roof search
    descends along it, or along central differences of ``values`` when it
    is None.

    ``stacks``, derived on construction and by ``dataclasses.replace``, is
    True when ``evaluate`` of a fixed stack of points equals one call per
    point exactly, as for a formula reducing over the last axis.
    """

    name: str
    evaluate: Callable
    dimension: int | None = None
    gradient: Callable | None = None
    stacks: bool = field(init=False, default=False)

    @np.errstate(all="ignore")
    def __post_init__(self):
        # the probe stack: a vertex, the uniform point, a point with one zero
        # mass (for d > 1) and three distinct interior points, as (2, 3, d)
        if self.dimension is not None:
            object.__setattr__(self, "dimension", _count(self.dimension))
        d = self.dimension or 3
        ramp = np.arange(1.0, d + 1.0)
        drop = ramp - 1.0 if d > 1 else ramp
        points = np.array([np.eye(d)[0], np.ones(d), drop, ramp, ramp[::-1] ** 2, np.sqrt(ramp)])
        stack = (points / points.sum(axis=1, keepdims=True)).reshape(2, 3, d)
        # ``stacks`` is still False here, so ``values`` scores point by point;
        # a user's evaluate may fail in any way on input it was not written
        # for, and any failure leaves it scored point by point
        try:
            stacks = np.array_equal(self.evaluate(stack), self.values(stack))
        except Exception:
            return
        object.__setattr__(self, "stacks", stacks)

    def _check_dimension(self, d: int):
        if self.dimension is not None and self.dimension != d:
            raise DimensionMismatchError(f"{self.name} expects dimension {self.dimension}, got {d}")

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        self._check_dimension(x.size)
        return float(self.evaluate(x))

    def values(self, x) -> np.ndarray:
        """f at each point along the last axis of x: one ``evaluate`` call
        for the stack when ``stacks``, one per point otherwise."""
        if self.stacks:
            return self.evaluate(x)
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
# single point and a stack of points.


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


def _kyfan_gradient(w, l: int):
    # p f(a/p) is the sum of the d-l+1 smallest a_i: slope 1 there, 0 elsewhere
    rank = (w.real**2 + w.imag**2).argsort(axis=-1).argsort(axis=-1)
    return 2.0 * w * (rank < w.shape[-1] - l + 1)


def builtin(name: str, *, alpha: float | None = None, l: int | None = None) -> CoherenceFunctional:
    """Built-in functional families.

    shannon: -sum x_i log2 x_i
    l1:      (sum sqrt(x_i))^2 - 1
    alpha:   log2(sum x_i^alpha) / (1 - alpha), 0 < alpha < 1
    kyfan:   sum of the d-l+1 smallest entries, integer l >= 2
    """
    if name == "shannon":
        return CoherenceFunctional("shannon", _shannon, gradient=_shannon_gradient)
    if name == "l1":
        return CoherenceFunctional("l1", _l1, gradient=_l1_gradient)
    if name == "alpha":
        if alpha is None or not 0.0 < _real(alpha, "alpha") < 1.0:
            raise ParameterError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
        a = float(alpha)
        return CoherenceFunctional(f"alpha({a:g})", lambda x: _alpha_entropy(x, a),
                                   gradient=lambda w: _alpha_gradient(w, a))
    if name == "kyfan":
        k = _tail_start(l, least=2, what="kyfan order")
        return CoherenceFunctional(f"kyfan({k})", lambda x: _tail_sums(x, k),
                                   gradient=lambda w: _kyfan_gradient(w, k))
    raise ParameterError(f"unknown functional family {name!r}")


# largest sampled residual a valid functional may show
VALIDATION_TOL = 1e-7


@dataclass(frozen=True)
class ValidationReport:
    """Sampled residuals for the three defining requirements, NaN where f gave NaN."""

    vertex_residual: float
    permutation_residual: float
    concavity_violation: float
    samples: int

    @property
    def passes(self) -> bool:
        """Every residual is at most VALIDATION_TOL; a NaN residual never is."""
        residuals = (self.vertex_residual, self.permutation_residual, self.concavity_violation)
        return all(r <= VALIDATION_TOL for r in residuals)


def _worst(residuals) -> float:
    # the largest residual and 0.0; np.max keeps a NaN, where Python's max
    # would drop it, and adding 0.0 turns a -0.0 into 0.0
    return float(np.max(residuals, initial=0.0)) + 0.0


def validate_functional(
    f: CoherenceFunctional, d: int, samples: int = 1000, seed: int = 0
) -> ValidationReport:
    """Check f(vertices)=0, permutation invariance, and concavity by sampling."""
    d, samples, seed = _count(d), _count(samples), _count(seed, least=0, what="seed")
    f._check_dimension(d)
    rng = np.random.default_rng(seed)
    x, moved, y = np.empty((3, samples, d))
    lam = np.empty(samples)
    # each sample draws x, a permutation of x, y and lambda, in that order
    for s in range(samples):
        x[s] = rng.dirichlet(np.ones(d))
        moved[s] = x[s, rng.permutation(d)]
        y[s] = rng.dirichlet(np.ones(d))
        lam[s] = rng.random()
    # one ``values`` call per kind of point
    fx = f.values(x)
    mix = f.values(lam[:, None] * x + (1.0 - lam[:, None]) * y)
    gap = lam * fx + (1.0 - lam) * f.values(y) - mix
    return ValidationReport(
        vertex_residual=_worst(np.abs(f.values(np.eye(d)))),
        permutation_residual=_worst(np.abs(f.values(moved) - fx)),
        concavity_violation=_worst(gap),
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

    return CoherenceFunctional(name="extracted", evaluate=ev, dimension=d)


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


# size of the seeded perturbation that moves the first gradient restart off
# the eigen-ensemble: exactly there the empty members have zero gradient, so
# the descent could never leave the rank-r subspace
EIGEN_NUDGE = 1e-2
# cap on the entries of one line-search array, restarts x trial steps x
# rank^2 members x d amplitudes: 16 MiB of complex values, which a full-rank
# d = 35 search at 8 restarts fits
ROOF_CAP = 1 << 20


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
    all restarts at once; the result is fixed for a seed, an integer >= 0,
    and a BLAS thread count, which the reductions of the matrix products
    follow (d = 24 l1 gives 6.292479 with two threads, 6.271023 with one).
    Restart 0 starts next to the eigen-ensemble, the others at random
    ensembles. The gradient is ``f.gradient``, or central differences of
    ``f.values`` when f has none. A restart held by a cusp of f ("stalled")
    is resumed, first on the smoothed objective f((1 - eps) x + eps / d)
    with eps = 1e-3, then on f, and kept only if it scores lower. The
    eigen-ensemble is returned whenever it scores lower, so the bound never
    exceeds the eigendecomposition average. A search whose line-search
    array, restarts x 3 trial steps x rank^2 members x d amplitudes, would
    hold more than ROOF_CAP entries raises ResourceLimitError first.
    """
    rho = check_density(rho)
    d = rho.shape[0]
    f._check_dimension(d)
    restarts, seed = _count(restarts), _count(seed, least=0, what="seed")

    diag = np.diag(rho)
    if float(np.abs(rho - np.diag(diag)).max()) <= ATOL:
        # diagonal state: the basis ensemble is exact and vertex values vanish
        kept = np.flatnonzero(diag.real > TINY)
        weights = diag.real[kept]
        basis = np.eye(d)[kept]
        members = tuple(zip(weights.tolist(), basis.astype(complex)))
        return RoofResult(value=float(sum(weights * f.values(basis))), ensemble=members)

    # the cap is checked on the rank from the eigenvalues alone, before any
    # eigenvector is computed: with multithreaded BLAS, the first eigenvector
    # solve of a large matrix took a second in some fresh processes, the
    # values milliseconds
    r = int(np.count_nonzero(np.linalg.eigvalsh(rho) > TINY))
    if r > 1 and restarts * len(_roofopt.LADDER) * r * r * d > ROOF_CAP:
        raise ResourceLimitError(f"{restarts} x {len(_roofopt.LADDER)} x {r}^2 x {d} "
                                 f"line-search entries exceed the cap of {ROOF_CAP}")

    w, vecs = np.linalg.eigh(rho)
    order = np.argsort(-w)
    keep = order[w[order] > TINY]
    if keep.size == 1:
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
