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
retraction. Its cost is numpy call overhead, so an iteration makes one
projection, for the new gradient and the old gradient and direction
together, and masks only when it must: empty members, failed line searches
and Polak-Ribiere resets are handled by extra calls only when some exist.

``retract`` reads only Q and R's diagonal, so it calls the two stacked
LAPACK kernels behind ``np.linalg.qr`` (``numpy.linalg._umath_linalg``, numpy
2.x) itself, under that function's error state, and skips the rest of it:
the type checks, a second error-state switch and the full upper triangle of
R. Q and the signs are the same bits, and one retraction of a d = 3,
rank-3 line-search stack takes about half the time.

``smoothed`` gives the objective of f((1 - eps) x + eps / d), on which a
descent stalled at a cusp of f can move again.
"""

import numpy as np
from numpy.linalg import _umath_linalg

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
    # the whole stack in one piece unless an empty member must be left out
    if live.all():
        terms = _terms(sq, weights, rows)
    else:
        terms = np.zeros(weights.shape)
        terms[live] = _terms(sq[live], weights[live], rows)
    # a running sum in member order, so the value does not depend on how
    # numpy would group a pairwise sum
    return np.cumsum(terms, axis=-1)[..., -1]


def _terms(sq, weights, rows):
    return weights * rows(sq / weights[..., None])


def _qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def retract(y):
    """Q factor of each complex matrix in the stack, with R's diagonal made
    positive."""
    # np.linalg.qr's own calls: the first factors the copy in place, R on and
    # above the diagonal, the second forms Q from the reflectors below it
    a = y.astype(complex)
    with np.errstate(call=_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore"):
        tau = _umath_linalg.qr_r_raw(a, signature="D->D")
        q = _umath_linalg.qr_reduced(a, tau, signature="DD->D")
    diag = a.diagonal(0, -2, -1)
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
    iters = np.full(n, MAX_ITER)  # set below for a restart that stops early
    stops = np.full(n, "cap", dtype=object)
    idx = np.arange(n)  # the restart behind each row of the live state
    k = np.arange(n)  # the rows of the live state
    w = q @ scaled
    val = ensemble_value(w, rows)
    grad = _project(q, gradient(w) @ scaled_h)
    gg = _inner(grad, grad)
    eta, slope = -grad, -gg
    step = 1.0 / np.maximum(np.sqrt(gg), 1.0)
    for it in range(1, MAX_ITER + 1):
        # line search: one batched call tries a ladder of steps around the
        # predicted one and keeps the lowest value passing the Armijo test
        trial = step[:, None] * LADDER
        qt = retract(q[:, None] + trial[..., None, None] * eta[:, None])
        wt = qt @ scaled
        ft = ensemble_value(wt, rows)
        ft[ft > val[:, None] + ARMIJO * trial * slope[:, None]] = np.inf
        pick = ft.argmin(axis=1)
        fn = ft[k, pick]
        moved = fn < np.inf
        prev_q, prev_w, prev_val = q, w, val
        q, w, val, t = qt[k, pick], wt[k, pick], fn, trial[k, pick]
        stuck = False
        if not moved.all():
            # a restart whose ladder fails stays put, restarts along -grad
            # (Polak-Ribiere+ gives beta = 0 there) and next tries below its
            # smallest step; it has stalled once that step no longer moves it
            back = ~moved
            stuck = back & (trial[:, -1] * np.sqrt(_inner(eta, eta)) <= MIN_MOVE)
            q[back], w[back], val[back] = prev_q[back], prev_w[back], prev_val[back]
            t[back] = trial[back, -1] * LADDER[-1]
        # the new gradient, and the old gradient and direction moved to q
        gn, old_grad, old_eta = _project(q, np.array((gradient(w) @ scaled_h, grad, eta)))
        ggn = _inner(gn, gn)
        # Polak-Ribiere+
        beta = np.maximum(_inner(gn, gn - old_grad) / gg, 0.0)
        eta = beta[:, None, None] * old_eta - gn
        sn = _inner(gn, eta)
        reset = sn >= 0.0
        if reset.any():
            eta[reset], sn[reset] = -gn[reset], -ggn[reset]
        # the next prediction rescales this step by the change of slope
        step = t * slope / sn
        grad, gg, slope = gn, ggn, sn
        done = stuck | (gg <= GRAD_TOL**2)
        if done.any():
            stalled = stuck & (gg > FLOOR_GRAD**2)
            stops[idx[stalled]] = "stalled"
            stops[idx[done & ~stalled]] = "converged"
            out_q[idx[done]], out_val[idx[done]], iters[idx[done]] = q[done], val[done], it
            live = ~done
            idx, q, w, val, grad, gg, eta, slope, step = (
                a[live] for a in (idx, q, w, val, grad, gg, eta, slope, step))
            if idx.size == 0:
                break
            k = np.arange(idx.size)
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
