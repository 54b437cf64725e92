"""The protocol identity record: a seeded corpus of conversions, chains,
filters, compositions, channels and invalid inputs, and what qcohere gives
on each of them.

``test_protocol_identity.py`` rebuilds the record and compares it with the
committed ``protocol_oracle.json``. A change that moves protocol outputs on
purpose regenerates that file, from the root of a source checkout, with

    PYTHONPATH=src python tests/make_oracle.py

and says how many cases changed and why.

Each case records three kinds of field:

- ``exact``: integers, labels, error types and texts, and SHA-256 digests
  of the rows of every stage; they must match on any machine;
- ``bits``: digests of stage values and of saved files, bit for bit where
  numpy and the machine are the recorded ones;
- ``floats`` (scalars at their own scale) and ``residuals`` (deviations
  from 1, at the scale of 1), as ``float.hex``: bit for bit where the
  environment is the recorded one, within ULPS units in the last place
  elsewhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from dataclasses import astuple
from itertools import groupby
from pathlib import Path

import numpy as np

import qcohere as q
from qcohere import channels
from randgen import random_incoherent_kraus

RECORD = Path(__file__).resolve().parent / "protocol_oracle.json"
# tolerance of the float fields off the recorded environment
ULPS = 4


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


class Case:
    """One case's fields, filled by the recording helpers below."""

    def __init__(self):
        self.exact, self.bits, self.floats, self.residuals = {}, {}, [], []

    def stages(self, stages, key="stages"):
        self.exact[key] = [[_digest(k.rows), list(k.labels)] for k in stages]
        self.bits[key] = [_digest(k.vals) for k in stages]

    def report(self, report):
        self.exact["branches"] = [report.branch_count, report.success_count]
        self.residuals += [float(r).hex() for r in report.stage_completeness]
        self.floats += [float(x).hex() for x in astuple(report)[1:4]]

    def as_dict(self):
        return {"exact": self.exact, "bits": self.bits, "floats": self.floats,
                "residuals": self.residuals}


def _attempt(case, call):
    """``call()``, or None with its error's type and text in ``case``."""
    try:
        return call()
    except q.QcohereError as exc:
        case.exact["error"] = [type(exc).__name__, str(exc)]
    return None


def _framed(rng, masses):
    """Amplitudes of ``masses`` with random phases, in random order."""
    v = np.sqrt(np.asarray(masses, dtype=float)) * np.exp(2j * np.pi * rng.random(len(masses)))
    return v[rng.permutation(len(masses))]


def _masses(rng, d, support=None):
    x = np.zeros(d)
    x[: support or d] = rng.dirichlet(np.ones(support or d))
    return x


def _conversion_pairs():
    """(name, psi, phi, copies) of the protocol cases."""
    rng = np.random.default_rng(20150410)
    templates = []
    # the benchmark's convert_verify mix: generic pairs at d = 3..14, ties,
    # zeros, unequal dimensions, majorized pairs, P = 0, multicopy targets
    for d in range(3, 15):
        templates += [(f"generic-d{d}-{n}", _masses(rng, d), _masses(rng, d), 1) for n in range(2)]
    templates += [
        ("ties-source", [0.25, 0.25, 0.15, 0.15, 0.1, 0.1], _masses(rng, 6), 1),
        ("ties-target", _masses(rng, 5), [0.4, 0.2, 0.2, 0.1, 0.1], 1),
        ("ties-uniform", np.full(8, 1 / 8), np.full(8, 1 / 8), 1),
        ("zeros-target", _masses(rng, 7), _masses(rng, 7, 5), 1),
        ("zeros-both", _masses(rng, 8, 6), _masses(rng, 8, 4), 1),
        ("unequal-9-6", _masses(rng, 9), _masses(rng, 6), 1),
        ("unequal-5-8", _masses(rng, 5), _masses(rng, 8), 1),
        ("unequal-3-1", _masses(rng, 3), [1.0], 1),
        ("majorized-uniform", np.full(7, 1 / 7), _masses(rng, 7), 1),
        ("zero-probability", _masses(rng, 6, 2), _masses(rng, 6), 1),
        ("multicopy-4-2x2", _masses(rng, 4), _masses(rng, 2), 2),
        ("multicopy-8-2x3", _masses(rng, 8), _masses(rng, 2), 3),
        ("multicopy-9-3x2", _masses(rng, 9), _masses(rng, 3), 2),
        ("multicopy-3-2x2", _masses(rng, 3), _masses(rng, 2), 2),
        ("dimension-one", [1.0], [1.0], 1),
    ]
    x = _masses(rng, 10)
    y = 0.7 * np.sort(x)[::-1]
    y[0] += 0.3
    templates.append(("majorized-mix", x, y, 1))
    # near the 1e-12 floors: the roadmap's pair, masses just above and
    # below it, and pairs whose sorted masses tie within rounding
    templates += [
        ("floor-roadmap", [0.5, 0.5 - 1e-13, 1e-13], [0.5, 0.5 - 5e-13, 5e-13], 1),
        ("floor-target-dust", _masses(rng, 5), [0.6, 0.4 - 3e-12, 2e-12, 1e-12, 0.0], 1),
        ("floor-source-dust", [0.5, 0.5 - 2e-12, 2e-12], [0.4, 0.35, 0.25], 1),
    ]
    for n in range(12):
        d = int(rng.integers(3, 9))
        x, y = np.sort(_masses(rng, d))[::-1], np.sort(_masses(rng, d))[::-1]
        scale = 10.0 ** rng.uniform(-14, -11, size=d)
        kind = n % 3
        if kind == 0:  # tails near the floor
            x[-2:], y[-2:] = scale[:2], scale[2:4]
        elif kind == 1:  # neighbours tied within the floor
            for m in np.flatnonzero(rng.random(d - 1) < 0.5) + 1:
                x[m] = x[m - 1] - scale[m]
        else:  # equal up to rounding
            y = x + scale * rng.choice([-1, 1], size=d)
        x, y = np.abs(x) / np.abs(x).sum(), np.abs(y) / np.abs(y).sum()
        templates.append((f"near-floor-{n}", x, y, 1))
    pairs = []
    # two passes in fresh frames
    for k in range(2):
        frames = np.random.default_rng([1, k])
        pairs += [(f"{k}:{name}", _framed(frames, a), _framed(frames, b), c)
                  for name, a, b, c in templates]
    # the protocol_scale sizes, and a zero-padded target
    big = np.random.default_rng(256)
    for d in (32, 64, 128, 256):
        pairs.append((f"scale-d{d}", _framed(big, _masses(big, d)), _framed(big, _masses(big, d)), 1))
    pairs.append(("scale-256-128", _framed(big, _masses(big, 256)), _framed(big, _masses(big, 128)), 1))
    return pairs


def _protocol_case(psi, phi, copies, workdir):
    case = Case()
    if copies == 1:
        p = q.conversion_probability(psi, phi)
        target = phi
    else:
        p = q.multicopy_probability(psi, phi, copies)
        target = q.tensor_power(phi, copies)
    protocol = q.optimal_protocol(psi, target)
    report = q.verify_protocol(protocol, psi, target)
    case.floats += [float(p).hex(), float(protocol.probability).hex()]
    case.exact["success_label"] = protocol.success_label
    case.stages(protocol.stages)
    case.report(report)
    path = os.path.join(workdir, "protocol.json")
    q.save_protocol(path, protocol, report)
    with open(path, "rb") as fh:
        case.bits["file"] = hashlib.sha256(fh.read()).hexdigest()[:16]
    loaded, meta = q.load_protocol(path)
    case.exact["loaded"] = len(loaded)
    case.residuals += [float(q.is_complete(k)[1]).hex() for k in loaded]
    return case


def _chain_cases():
    """ttransform_chain on valid and invalid pairs."""
    rng = np.random.default_rng(7)
    pairs = [("lengths", [0.5, 0.5], [1.0]),
             ("x-unsorted", [0.3, 0.7], [1.0, 0.0]),
             ("y-unsorted", [0.5, 0.5], [0.0, 1.0]),
             ("both-unsorted", [0.3, 0.7], [0.0, 1.0]),
             ("lengths-and-unsorted", [0.3, 0.7], [0.0, 0.5, 0.5]),
             ("not-majorized", [1.0, 0.0], [0.5, 0.5]),
             ("unsorted-not-majorized", [1.0, 0.0], [0.4, 0.6]),
             ("nan", [np.nan, 0.5], [1.0, 0.0]),
             ("tied-within-tiny", [0.5, 0.5 + 5e-13], [0.7, 0.3]),
             ("unsorted-beyond-tiny", [0.5, 0.5 + 5e-12], [0.7, 0.3]),
             ("one-donor", np.full(9, 1 / 9), np.eye(9)[0])]
    for n in range(10):
        d = int(rng.integers(2, 10))
        x, y = (np.sort(rng.dirichlet(np.ones(d)))[::-1] for _ in range(2))
        pairs.append((f"random-{n}", x, y))  # some majorized, some not
    for n in range(6):
        y = np.sort(rng.dirichlet(np.ones(8)))[::-1]
        x = y.copy()
        for _ in range(4):
            i, j = sorted(rng.choice(8, size=2, replace=False))
            x = q.TTransform(int(i) + 1, int(j) + 1, float(rng.random())).apply(x)
        pairs.append((f"majorized-{n}", np.sort(x)[::-1], y))
    for name, x, y in pairs:
        case = Case()
        chain = _attempt(case, lambda: q.ttransform_chain(x, y))
        if chain is not None:
            case.exact["pairs"] = [[t.i, t.j] for t in chain]
            case.floats += [float(t.t).hex() for t in chain]
        yield f"chain-{name}", case


def _step_cases():
    """two_level_step at shares 0 and 1, just outside them, on tiny and
    subnormal masses, and on invalid pairs."""
    s = np.sqrt([0.7, 0.3])
    inputs = [("generic", s, (0.5, 0.5), 1, 2), ("swap", s, (0.3, 0.7), 1, 2),
              ("share-0", s, (0.7, 0.3), 1, 2), ("equal-targets", np.full(2, np.sqrt(0.5)), (0.5, 0.5), 1, 2),
              ("share-above-1", s, (0.3 + 2e-10, 0.7 - 2e-10), 1, 2),
              ("share-below-0", s, (0.7 - 2e-10, 0.3 + 2e-10), 1, 2),
              ("tiny-pair", np.sqrt([1.0 - 2e-13, 1e-13, 1e-13]), (2e-13, 0.0), 2, 3),
              ("subnormal", np.sqrt([1.0, 5e-324]), (5e-324, 1.0), 1, 2),
              ("negative-target", s, (1.1, -0.1), 1, 2), ("mass-mismatch", s, (0.8, 0.3), 1, 2),
              ("same-coordinate", s, (0.7, 0.3), 1, 1), ("coordinate-0", s, (0.7, 0.3), 0, 2),
              ("not-a-pair", s, (0.7,), 1, 2), ("weight-outside", s, (0.9, 0.1), 2, 1)]
    for name, source, pair, i, j in inputs:
        case = Case()
        k = _attempt(case, lambda: q.two_level_step(source, pair, i, j))
        if k is not None:
            case.stages([k])
        yield f"step-{name}", case


def _deterministic_cases():
    rng = np.random.default_rng(11)
    h = np.sqrt(0.5)
    near = np.sqrt([0.5 - 3e-13, 0.5 + 3e-13])
    inputs = [("near-tied-0", near, np.sqrt([0.5 + 1e-13, 0.5 - 1e-13])),
              ("near-tied-1", near, np.sqrt([0.5, 0.5])),
              ("near-tied-2", near, np.sqrt([0.5 - 0.5e-13, 0.5 + 0.5e-13])),
              ("unsorted-source", [0.6, 0.8], [1.0, 0.0]),
              ("negative-source", [0.8, -0.6], [1.0, 0.0]),
              ("complex-source", [0.8, 0.6j], [1.0, 0.0]),
              ("unsorted-gamma", [0.8, 0.6], [0.6, 0.8]),
              ("lengths", [0.8, 0.6, 0.0], [1.0, 0.0]),
              ("not-majorized", [1.0, 0.0], [h, h]),
              ("squares-unsorted", [h - 4.5e-13, h + 4.5e-13], [1.0, 0.0]),
              ("unnormalized", [0.8, 0.8], [1.0, 0.0])]
    for n in range(6):
        d = int(rng.integers(2, 10))
        x, y = (np.sort(rng.dirichlet(np.ones(d)))[::-1] for _ in range(2))
        s = np.sqrt(x)
        inputs.append((f"ladder-{n}", s, q.build_ladder(s, np.sqrt(y)).gamma))
        inputs.append((f"random-{n}", s, np.sqrt(y)))
    for name, s, g in inputs:
        case = Case()
        stages = _attempt(case, lambda: q.deterministic_protocol(s, g))
        if stages is not None:
            case.stages(stages)
        yield f"deterministic-{name}", case


def _filter_cases():
    rng = np.random.default_rng(13)
    for n in range(8):
        d = int(rng.integers(2, 10))
        s, t = (np.sqrt(np.sort(rng.dirichlet(np.ones(d)))[::-1]) for _ in range(2))
        ladder = _attempt(Case(), lambda: q.build_ladder(s, t))
        if ladder is None:
            continue
        other = np.sqrt(np.sort(rng.dirichlet(np.ones(d)))[::-1])
        for name, phi in (("own", t), ("other", other), ("unsorted", t[::-1]),
                          ("longer", np.append(t, 0.0)), ("complex", t * 1j)):
            case = Case()
            k = _attempt(case, lambda: q.filter_operator(ladder, phi))
            if k is not None:
                case.stages([k])
            yield f"filter-{n}-{name}", case


def _compose_cases():
    rng = np.random.default_rng(17)
    scalar = channels.KrausSet(np.zeros((129, 1), dtype=np.intp), np.full((129, 1), np.sqrt(1 / 129), complex))
    half = channels.KrausSet(np.zeros((2, 2), dtype=np.intp), np.full((2, 2), 0.5 + 0j))
    # products of two different projectors are zero and are dropped
    projectors = q.kraus_set([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])], labels=["a", "b"])
    inputs = [("empty", []), ("dims", [q.kraus_set([np.eye(2)]), q.kraus_set([np.eye(3)])]),
              ("cap", [scalar, scalar]), ("incomplete", [half, q.kraus_set([np.eye(2)])]),
              ("annihilating", [projectors, projectors, projectors])]
    for n in range(6):
        d = int(rng.integers(3, 8))
        psi, phi = (_framed(rng, _masses(rng, d)) for _ in range(2))
        inputs.append((f"protocol-{n}", list(q.optimal_protocol(psi, phi).stages)))
    for n in range(6):
        d = int(rng.integers(2, 6))
        inputs.append((f"channels-{n}", [random_incoherent_kraus(rng, d) for _ in range(int(rng.integers(1, 4)))]))
    for name, stages in inputs:
        case = Case()
        k = _attempt(case, lambda: q.compose(stages))
        if k is not None:
            case.stages([k])
        yield f"compose-{name}", case


def _channel_cases(workdir):
    rng = np.random.default_rng(19)
    sets = []
    for n in range(16):
        d = int(rng.integers(2, 7))
        k = random_incoherent_kraus(rng, d)
        sets.append(k)
        case = Case()
        path = os.path.join(workdir, "channel.json")
        q.save_channel(path, k)
        with open(path, "rb") as fh:
            case.bits["file"] = hashlib.sha256(fh.read()).hexdigest()[:16]
        loaded = q.load_channel(path)
        case.stages([k, loaded])
        case.residuals.append(q.is_complete(loaded)[1].hex())
        psi = _framed(rng, _masses(rng, k.dim))
        branches = q.apply_selective(loaded, psi)
        case.exact["branches"] = [len(branches)]
        case.floats += [b.probability.hex() for b in branches]
        case.bits["branch_states"] = _digest(*(b.state for b in branches))
        yield f"channel-{n}", case
    # consecutive stages of one dimension measured together
    case = Case()
    for _, block in groupby(sets, key=lambda k: k.dim):
        block = list(block)
        counts = np.array([[len(k), k.pos.size] for k in block]).T
        runs = (np.concatenate([getattr(k, f) for k in block]) for f in ("pos", "to", "amp"))
        case.residuals += [r.hex() for r in channels._residuals(block[0].dim, *counts, *runs)]
    yield "channel-stack", case


def _replay_cases():
    """verify_protocol on protocols it must refuse or measure."""
    psi, phi = np.sqrt([0.6, 0.3, 0.1]), np.sqrt([0.5, 0.4, 0.1])
    good = q.optimal_protocol(psi, phi)
    bad = channels.KrausSet(np.array([[0, 1, 2]]), np.full((1, 3), 0.9 + 0j))
    inputs = [("incomplete", q.Protocol((good.stages[0], bad), "success", 1.0), psi, phi),
              ("longer-source", good, np.sqrt([0.4, 0.3, 0.2, 0.1]), phi),
              ("overstated", q.Protocol(good.stages, "success", 1.0), psi, phi),
              ("other-label", q.Protocol(good.stages, "fail", good.probability), psi, phi)]
    for name, protocol, a, b in inputs:
        case = Case()
        report = _attempt(case, lambda: q.verify_protocol(protocol, a, b))
        if report is not None:
            case.report(report)
        yield f"replay-{name}", case


def build() -> dict:
    """Every case of the corpus, name -> fields."""
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, psi, phi, copies in _conversion_pairs():
            out[f"protocol-{name}"] = _protocol_case(psi, phi, copies, workdir).as_dict()
        for cases in (_chain_cases(), _step_cases(), _deterministic_cases(), _filter_cases(), _compose_cases(),
                      _channel_cases(workdir), _replay_cases()):
            out.update((name, case.as_dict()) for name, case in cases)
    return out


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def main() -> None:
    record = {"environment": environment(), "cases": build()}
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    RECORD.write_text(text + "\n", encoding="utf-8")
    print(f"{len(record['cases'])} cases, {len(text)} bytes, written to {RECORD}", file=sys.stderr)


if __name__ == "__main__":
    main()
