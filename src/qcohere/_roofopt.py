"""Compass search for the convex-roof ensemble.

An ensemble of ``m`` pure states decomposing a rank-``r`` density matrix is
parameterized by an m x r complex matrix packed into a flat float64 array
(re, im pairs, row-major). Orthonormalizing its columns via QR and applying
them to the scaled eigenvector rows yields the unnormalized member vectors;
the objective is the probability-weighted functional value over the members.

``refine`` runs a coordinate compass search: cycle the parameters, try
+step/-step, keep strict improvements, halve the step when a sweep stalls.
"""

import numpy as np

# member weights at or below this are treated as empty and skipped
WEIGHT_FLOOR = 1e-14
# accept a move only if it beats the incumbent by this margin
IMPROVE_EPS = 1e-12


def objective(params, scaled, m, fun):
    amat = params.view(np.complex128).reshape(m, -1)
    q, _ = np.linalg.qr(amat)
    wmat = q @ scaled
    sq = wmat.real**2 + wmat.imag**2
    weights = sq.sum(axis=1)
    total = 0.0
    for j in range(m):
        if weights[j] > WEIGHT_FLOOR:
            total += weights[j] * float(fun(sq[j] / weights[j]))
    return total


def refine(params, scaled, m, fun, max_sweeps, init_step, min_step):
    """Improve ``params`` in place; returns the best objective value."""
    best = objective(params, scaled, m, fun)
    step = init_step
    sweep = 0
    n = params.size
    while sweep < max_sweeps and step > min_step:
        improved = False
        for idx in range(n):
            base = params[idx]
            params[idx] = base + step
            val = objective(params, scaled, m, fun)
            if val < best - IMPROVE_EPS:
                best = val
                improved = True
                continue
            params[idx] = base - step
            val = objective(params, scaled, m, fun)
            if val < best - IMPROVE_EPS:
                best = val
                improved = True
                continue
            params[idx] = base
        if not improved:
            step *= 0.5
        sweep += 1
    return best
