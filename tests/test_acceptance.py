"""End-to-end acceptance gate.

Ten criteria, each printing one `[acceptance] criterion N ...: PASS/FAIL`
line before asserting, so a full run reports every verdict. Criteria 2, 7,
and 8 share one batch of 200 random pairs.
"""

import time

import numpy as np
import pytest

from qcohere import (
    apply_selective,
    build_ladder,
    builtin,
    canonicalize,
    coherence_pure,
    compose,
    conversion_probability,
    convex_roof_upper,
    deterministic_protocol,
    fidelity_pure,
    filter_operator,
    majorizes,
    optimal_protocol,
    pure_density,
    pure_state,
    sorted_desc,
    squared_amplitudes,
    tensor_power,
    verify_protocol,
)
from randgen import random_incoherent_kraus, random_majorized_pair, random_pure_state

INV2 = 1.0 / np.sqrt(2.0)

FUNCTIONALS = [
    builtin("shannon"),
    builtin("l1"),
    builtin("alpha", alpha=0.5),
    builtin("kyfan", l=2),
]


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] criterion {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def pair_batch():
    """200 same-dimension random pairs, d in [2, 6], nonnegative amplitudes
    normalized and dressed with random phases. Shared by criteria 2, 7, 8."""
    rng = np.random.default_rng(20240817)
    pairs = []
    for _ in range(200):
        d = int(rng.integers(2, 7))
        pairs.append(
            (random_pure_state(rng, d, phases=True), random_pure_state(rng, d, phases=True))
        )
    return pairs


@pytest.mark.wallclock
def test_criterion_01_worked_pair():
    start = time.perf_counter()
    psi = pure_state([INV2, INV2])
    phi = pure_state(np.full(3, 1.0 / np.sqrt(3.0)))
    p1 = conversion_probability(psi, phi)
    p2 = conversion_probability(tensor_power(psi, 2), phi)
    elapsed = time.perf_counter() - start
    ok = p1 == 0.0 and abs(p2 - 1.0) <= 1e-12 and elapsed < 1.0
    report(1, "single copy fails, two copies convert", ok,
           f"P1={p1:.1e}, |P2-1|={abs(p2 - 1.0):.1e}, {elapsed:.3f}s")


@pytest.mark.wallclock
def test_criterion_02_protocol_consistency(pair_batch):
    start = time.perf_counter()
    bad = 0
    worst_res, worst_fid, worst_gap = 0.0, 1.0, 0.0
    for psi, phi in pair_batch:
        p = conversion_probability(psi, phi)
        protocol = optimal_protocol(psi, phi)
        rep = verify_protocol(protocol, psi, phi)
        res = max(rep.stage_completeness) if rep.stage_completeness else 0.0
        gap = abs(rep.success_probability - p)
        worst_res = max(worst_res, res)
        worst_fid = min(worst_fid, rep.min_success_fidelity)
        worst_gap = max(worst_gap, gap)
        if (res > 1e-9 or rep.min_success_fidelity < 1.0 - 1e-9 or gap > 1e-9):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 60.0
    report(2, "optimal protocols verify on 200 pairs", ok,
           f"violations={bad}, worst residual={worst_res:.1e}, "
           f"worst fidelity deficit={1.0 - worst_fid:.1e}, "
           f"worst probability gap={worst_gap:.1e}, {elapsed:.1f}s")


def test_criterion_03_deterministic_conversion():
    rng = np.random.default_rng(1003)
    bad = 0
    worst_total, worst_fid = 0.0, 1.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        x, y = random_majorized_pair(rng, d)
        psi, gamma = np.sqrt(x), np.sqrt(y)
        stages = deterministic_protocol(psi, gamma)
        if len(stages) > d - 1:
            bad += 1
            continue
        if not stages:
            fid = fidelity_pure(psi.astype(complex), gamma.astype(complex))
            worst_fid = min(worst_fid, fid)
            if fid < 1.0 - 1e-9:
                bad += 1
            continue
        branches = apply_selective(compose(stages), pure_state(psi))
        total = sum(b.probability for b in branches)
        fid = min(fidelity_pure(b.state, gamma.astype(complex)) for b in branches)
        worst_total = max(worst_total, abs(total - 1.0))
        worst_fid = min(worst_fid, fid)
        if abs(total - 1.0) > 1e-9 or fid < 1.0 - 1e-9:
            bad += 1
    ok = bad == 0
    report(3, "deterministic majorized conversion on 200 pairs", ok,
           f"violations={bad}, worst mass defect={worst_total:.1e}, "
           f"worst fidelity deficit={1.0 - worst_fid:.1e}")


def test_criterion_04_unit_probability_iff_majorized():
    rng = np.random.default_rng(1004)
    mismatches = 0
    majorized_seen = 0
    for k in range(500):
        d = int(rng.integers(2, 7))
        if k % 2 == 0:
            x, y = random_majorized_pair(rng, d)
            psi, phi = np.sqrt(x).astype(complex), np.sqrt(y).astype(complex)
        else:
            psi = random_pure_state(rng, d, phases=True)
            phi = random_pure_state(rng, d, phases=True)
        a = sorted_desc(squared_amplitudes(psi))
        b = sorted_desc(squared_amplitudes(phi))
        maj = majorizes(b, a)
        unit = conversion_probability(psi, phi) >= 1.0 - 1e-9
        majorized_seen += maj
        mismatches += maj != unit
    ok = mismatches == 0 and 0 < majorized_seen < 500
    report(4, "P=1 iff majorization on 500 pairs", ok,
           f"mismatches={mismatches}, majorized cases={majorized_seen}")


def test_criterion_05_average_monotonicity():
    rng = np.random.default_rng(1005)
    violations = 0
    worst = -np.inf
    for _ in range(500):
        d = int(rng.integers(2, 6))
        psi = random_pure_state(rng, d, phases=True)
        ks = random_incoherent_kraus(rng, d, max_ops=4)
        branches = apply_selective(ks, psi)
        for f in FUNCTIONALS:
            before = coherence_pure(f, psi)
            after = sum(b.probability * coherence_pure(f, b.state) for b in branches)
            worst = max(worst, after - before)
            if after > before + 1e-9:
                violations += 1
    ok = violations == 0
    report(5, "selective monotonicity, 500 trials x 4 measures", ok,
           f"violations={violations}, worst increase={worst:.1e}")


def test_criterion_06_schur_concavity():
    rng = np.random.default_rng(1006)
    violations = 0
    worst = -np.inf
    for _ in range(500):
        d = int(rng.integers(2, 8))
        x, y = random_majorized_pair(rng, d)
        for f in FUNCTIONALS:
            drop = f(y) - f(x)
            worst = max(worst, drop)
            if drop > 1e-12:
                violations += 1
    ok = violations == 0
    report(6, "Schur concavity of the built-ins on 500 pairs", ok,
           f"violations={violations}, worst gap={worst:.1e}")


def test_criterion_07_ladder_certificates(pair_batch):
    bad = 0
    worst_norm, worst_map = 0.0, 0.0
    checked = 0
    for psi, phi in pair_batch:
        if conversion_probability(psi, phi) <= 0.0:
            continue
        checked += 1
        cs, ct = canonicalize(psi), canonicalize(phi)
        ladder = build_ladder(cs.state, ct.state)
        increasing = all(
            ladder.ratios[k] < ladder.ratios[k + 1] for k in range(len(ladder.ratios) - 1)
        )
        norm_dev = abs(float((ladder.gamma**2).sum()) - 1.0)
        m = filter_operator(ladder, ct.state).operators[0].real
        r1 = ladder.ratios[0]
        map_dev = float(np.linalg.norm(m @ ladder.gamma - np.sqrt(r1) * ct.state))
        worst_norm = max(worst_norm, norm_dev)
        worst_map = max(worst_map, map_dev)
        if not increasing or norm_dev > 1e-9 or map_dev > 1e-9:
            bad += 1
    ok = bad == 0 and checked > 0
    report(7, "ladder certificates on positive-probability pairs", ok,
           f"checked={checked}, violations={bad}, worst norm dev={worst_norm:.1e}, "
           f"worst filter dev={worst_map:.1e}")


def test_criterion_08_measure_ratio_crosscheck(pair_batch):
    tails = {}
    bad = 0
    worst = 0.0
    for psi, phi in pair_batch:
        d = psi.size
        if d not in tails:
            tails[d] = [builtin("kyfan", l=l) for l in range(2, d + 1)]
        ratios = []
        for f in tails[d]:
            ct = coherence_pure(f, phi)
            if ct <= 1e-12:
                continue
            ratios.append(coherence_pure(f, psi) / ct)
        alt = min(1.0, min(ratios)) if ratios else 1.0
        gap = abs(conversion_probability(psi, phi) - alt)
        worst = max(worst, gap)
        if gap > 1e-9:
            bad += 1
    ok = bad == 0
    report(8, "probability equals capped tail-measure ratio minimum", ok,
           f"violations={bad}, worst gap={worst:.1e}")


def test_criterion_09_roof_sanity():
    rng = np.random.default_rng(1009)
    bad = 0
    worst_pure, worst_diag, worst_excess = 0.0, 0.0, -np.inf
    for f in FUNCTIONALS:
        for _ in range(3):
            psi = random_pure_state(rng, int(rng.integers(2, 5)), phases=True)
            res = convex_roof_upper(f, pure_density(psi), restarts=2, seed=0)
            dev = abs(res.value - coherence_pure(f, psi))
            worst_pure = max(worst_pure, dev)
            if dev > 1e-10:
                bad += 1
        for _ in range(2):
            rho = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
            val = convex_roof_upper(f, rho, restarts=2, seed=0).value
            worst_diag = max(worst_diag, abs(val))
            if abs(val) > 1e-10:
                bad += 1
        for _ in range(3):
            d = 3
            w = rng.dirichlet(np.ones(2))
            rho = np.zeros((d, d), dtype=complex)
            vecs = []
            for i in range(2):
                v = random_pure_state(rng, d, phases=True)
                vecs.append(v)
                rho += w[i] * np.outer(v, v.conj())
            vals, evecs = np.linalg.eigh(rho)
            eig_avg = sum(
                p * coherence_pure(f, evecs[:, i]) for i, p in enumerate(vals) if p > 1e-12
            )
            val = convex_roof_upper(f, rho, restarts=3, seed=0).value
            worst_excess = max(worst_excess, val - eig_avg)
            if val > eig_avg + 1e-9:
                bad += 1
    ok = bad == 0
    report(9, "roof upper bound sanity", ok,
           f"violations={bad}, worst pure dev={worst_pure:.1e}, "
           f"worst diagonal value={worst_diag:.1e}, "
           f"worst excess over eigen average={worst_excess:.1e}")


def test_criterion_10_adversarial_channels():
    rng = np.random.default_rng(1010)
    bad = 0
    worst = -np.inf
    for _ in range(20):
        d = int(rng.integers(2, 6))
        psi = random_pure_state(rng, d, phases=True)
        phi = random_pure_state(rng, d, phases=True)
        p = conversion_probability(psi, phi)
        channels = [random_incoherent_kraus(rng, d, max_ops=4) for _ in range(100)]
        protocol = optimal_protocol(psi, phi)
        if protocol.stages:
            channels.append(compose(protocol.stages))
        for ks in channels:
            mass = sum(
                b.probability
                for b in apply_selective(ks, psi)
                if fidelity_pure(b.state, phi) >= 1.0 - 1e-6
            )
            worst = max(worst, mass - p)
            if mass > p + 1e-6:
                bad += 1
    ok = bad == 0
    report(10, "no channel beats the bound on 20 pairs x 100+ channels", ok,
           f"violations={bad}, worst excess={worst:.1e}")