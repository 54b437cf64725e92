"""Gradient search for the convex-roof ensemble.

An ensemble of ``m`` pure states decomposing a rank-``r`` density matrix is
an m x r complex matrix Q with orthonormal columns applied to the scaled
eigenvector rows S: the rows of Q S are the unnormalized members, and the
objective is the probability-weighted functional value over the members,
scored for all members with one row-wise call.

``descend`` runs Riemannian conjugate gradient on the complex Stiefel
manifold (Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20, 303 (1998))
for a stack of starting points at once: Polak-Ribiere+ directions, an Armijo
line search over a few trial steps scored in one batched call, and a QR
retraction. ``smoothed`` gives the objective of f((1 - eps) x + eps / d),
on which a descent stalled at a cusp of f can move again.
"""

import numpy as np

from .simplex import TINY

# iteration cap of one gradient descent
MAX_ITER = 200
# sufficient-decrease constant of the Armijo test
ARMIJO = 1e-4
# trial steps of one line search, as multiples of the predicted step
LADDER = np.array([2.0, 1.0, 0.5])
# a descent stops once its Riemannian gradient norm is at most this, or once
# no trial step moves it by more than MIN_MOVE and none decreases the value
GRAD_TOL = 1e-9
MIN_MOVE = 1e-14
# a restart that no trial step moves, with a gradient norm at most this, sits
# at the rounding floor of a smooth minimum ("converged"); one with a larger
# gradient is held by a cusp of f ("stalled")
FLOOR_GRAD = 1e-5
# weight of the uniform point mixed into every member by ``smoothed``
SMOOTHING = 1e-3


def ensemble_value(w, rows):
    """Weighted functional value of the members, the rows of each matrix in
    the stack ``w`` of shape (..., m, d); members of weight at most TINY
    are empty and count 0."""
    sq = w.real**2 + w.imag**2
    weights = sq.sum(axis=-1)
    live = weights > TINY
    terms = np.zeros(weights.shape)
    terms[live] = weights[live] * rows(sq[live] / weights[live, None])
    # a running sum in member order, so the value does not depend on how
    # numpy would group a pairwise sum
    return np.cumsum(terms, axis=-1)[..., -1]


def retract(y):
    """Q factor of each matrix in the stack, with R's diagonal made positive."""
    q, r = np.linalg.qr(y)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _inner(a, b):
    return np.einsum("...ij,...ij->...", a.conj(), b).real


def _project(q, z):
    """Tangent part of z at q: z - q herm(q^H z)."""
    s = q.conj().swapaxes(-1, -2) @ z
    return z - q @ (0.5 * (s + s.conj().swapaxes(-1, -2)))


def descend(q, scaled, rows, gradient):
    """Riemannian CG from each start in the stack ``q`` of shape (n, m, r).

    Returns the final stack, the values, the iteration counts and the stop
    reasons ("converged", "stalled" or "cap"). A start leaves the stack once
    it stops, so the work shrinks as restarts converge.
    """
    n = q.shape[0]
    scaled_h = scaled.conj().T
    out_q, out_val = np.empty_like(q), np.empty(n)
    iters = np.zeros(n, dtype=int)
    stops = np.full(n, "cap", dtype=object)
    idx = np.arange(n)  # the restart behind each row of the live state
    w = q @ scaled
    val = ensemble_value(w, rows)
    grad = _project(q, gradient(w) @ scaled_h)
    gg = _inner(grad, grad)
    eta, slope = -grad, -gg
    step = 1.0 / np.maximum(np.sqrt(gg), 1.0)
    for _ in range(MAX_ITER):
        # line search: one batched call tries a ladder of steps around the
        # predicted one and keeps the lowest value passing the Armijo test
        trial = step[:, None] * LADDER
        qt = retract(q[:, None] + trial[..., None, None] * eta[:, None])
        wt = qt @ scaled
        ft = ensemble_value(wt, rows)
        ft[ft > val[:, None] + ARMIJO * trial * slope[:, None]] = np.inf
        pick = ft.argmin(axis=1)
        k = np.arange(idx.size)
        fn = ft[k, pick]
        moved = fn < np.inf
        iters[idx] += 1
        # a restart whose ladder fails stays put, restarts along -grad
        # (Polak-Ribiere+ gives beta = 0 there) and next tries below its
        # smallest step; it has stalled once that step no longer moves it
        stuck = ~moved & (trial[:, -1] * np.sqrt(_inner(eta, eta)) <= MIN_MOVE)
        keep = moved[:, None, None]
        q = np.where(keep, qt[k, pick], q)
        w = np.where(keep, wt[k, pick], w)
        val = np.where(moved, fn, val)
        t = np.where(moved, trial[k, pick], trial[:, -1] * LADDER[-1])
        gn = _project(q, gradient(w) @ scaled_h)
        ggn = _inner(gn, gn)
        # Polak-Ribiere+, with the old gradient and direction moved to q
        old = _project(q, np.stack((grad, eta)))
        beta = np.maximum(_inner(gn, gn - old[0]) / gg, 0.0)
        eta = beta[:, None, None] * old[1] - gn
        sn = _inner(gn, eta)
        reset = sn >= 0.0
        eta[reset], sn[reset] = -gn[reset], -ggn[reset]
        # the next prediction rescales this step by the change of slope
        step = t * slope / sn
        grad, gg, slope = gn, ggn, sn
        done = stuck | (gg <= GRAD_TOL**2)
        if done.any():
            stalled = stuck & (gg > FLOOR_GRAD**2)
            stops[idx[stalled]] = "stalled"
            stops[idx[done & ~stalled]] = "converged"
            out_q[idx[done]], out_val[idx[done]] = q[done], val[done]
            live = ~done
            idx, q, w, val, grad, gg, eta, slope, step = (
                a[live] for a in (idx, q, w, val, grad, gg, eta, slope, step))
            if idx.size == 0:
                break
    out_q[idx], out_val[idx] = q, val
    return out_q, out_val, iters, stops


def smoothed(rows, gradient):
    """(rows, gradient) of f((1 - eps) x + eps / d), eps = SMOOTHING, whose
    masses all stay at least eps / d, off the zero amplitudes where f may
    have a cusp.

    A member w scores as the real v with |v|^2 = (1 - eps) |w|^2 + eps p / d,
    p = sum |w|^2, so the chain rule gives the gradient from f's at v.
    """

    def smooth_rows(x):
        return rows((1.0 - SMOOTHING) * x + SMOOTHING / x.shape[-1])

    def smooth_gradient(w):
        spread = SMOOTHING / w.shape[-1]
        sq = w.real**2 + w.imag**2
        v = np.sqrt((1.0 - SMOOTHING) * sq + spread * sq.sum(axis=-1, keepdims=True))
        # the partial derivatives in |v_k|^2, then in |w_i|^2
        dv = np.real(gradient(v)) / (2.0 * np.where(v > 0.0, v, 1.0))
        return 2.0 * w * ((1.0 - SMOOTHING) * dv + spread * dv.sum(axis=-1, keepdims=True))

    return smooth_rows, smooth_gradient
