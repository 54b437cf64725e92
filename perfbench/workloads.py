"""The four benchmark workloads: inputs, the timed call sequence, and checks.

Every workload is one closed-loop client: it sends the next item only after
the previous one returned. A workload builds its items pass by pass from
``--seed``; pass k always draws from the seed and k, so the inputs do not
depend on how many passes a run makes. ``run`` is the timed part of an item,
``check`` verifies its outputs with the public API and benchmark-side numpy,
and ``counts`` reads exact work counts off the outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import re
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import qcohere as q

# The cost of a conversion pair depends on its moduli through the protocol's
# stage count (exponentially so for verification), so the moduli come from
# this fixed structure seed and every --seed does the same amount of work;
# --seed draws each state's phases and basis order and the item order.
STRUCTURE_SEED = 150402862
# the roof corpus is fixed: its mean value is a quality gate, and the compass
# search is not invariant under a change of basis frame
ROOF_CORPUS_SEED = 2015
# the problem of benchmarks/bench_roof.py and the value the README quotes
README_PROBLEM = {"dim": 4, "rank": 3, "functional": "shannon", "restarts": 8, "seed": 0}
README_VALUE = 1.131862299994

TOL = 1e-9
EXACT = 1e-12


@dataclass
class Item:
    """One unit of work. ``id`` is "<pass>:<input>"; the input part is the
    same in every pass for inputs that differ only in frame and order."""

    id: str
    size: int  # dimension, for the .dN per-layer figures
    kind: str
    data: dict = field(default_factory=dict)


def frame(rng, amplitudes):
    """The state in a random incoherent frame: entrywise phases, then a permutation."""
    v = np.asarray(amplitudes, dtype=complex)
    phases = np.exp(2j * np.pi * rng.random(v.size))
    return (v * phases)[rng.permutation(v.size)]


def moduli(rng, d, support=None):
    s = d if support is None else support
    x = np.zeros(d)
    x[:s] = rng.dirichlet(np.ones(s))
    return np.sqrt(x)


def random_density(rng, d, rank):
    """Same construction as benchmarks/bench_roof.py, so its seed-0 problem matches."""
    w = rng.dirichlet(np.ones(rank))
    rho = np.zeros((d, d), dtype=complex)
    for k in range(rank):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        rho += w[k] * np.outer(v, v.conj())
    return rho


def reference_probability(psi, phi):
    """Tail-sum formula for the optimal conversion probability, in plain numpy."""
    d = max(len(psi), len(phi))
    a = np.zeros(d)
    b = np.zeros(d)
    a[: len(psi)] = np.abs(psi) ** 2
    b[: len(phi)] = np.abs(phi) ** 2
    ta = np.cumsum(np.sort(a))  # ta[k]: mass of the k+1 smallest entries
    tb = np.cumsum(np.sort(b))
    live = tb > EXACT
    if np.any(live & (ta <= EXACT)):
        return 0.0
    if not np.any(live):
        return 1.0
    return float(min(1.0, (ta[live] / tb[live]).min()))


def digest_update(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())


class Workload:
    name = ""
    nominal_pass_s = 1.0  # one pass on the reference machine (see harness.py)

    def __init__(self, ctx, seed):
        self.ctx = ctx
        self.seed = seed
        self.digest = hashlib.sha256()

    def prepare(self):
        """One-off work before timing (input files)."""

    def pass_items(self, k):
        raise NotImplementedError

    def warmup_item(self):
        return self.pass_items(0)[0]

    def probe_argv(self):
        """Child process that imports qcohere and runs the warm-up item."""
        return [sys.executable, str(self.ctx.entry), "--workload", self.name, "--probe",
                "--seed", str(self.seed), "--workdir", self.ctx.workdir]

    def run(self, item, functional_wrap):
        raise NotImplementedError

    def check(self, item, out):
        raise NotImplementedError

    def counts(self, item, out):
        return {}

    def cleanup(self, item):
        """Untimed clean-up after an item's check."""


# -- convert_verify ---------------------------------------------------------

def _convert_templates():
    """(kind, psi moduli, phi moduli, copies) with fixed structure."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    t = []
    for d in range(3, 15):
        for _ in range(2):
            t.append(("generic", moduli(rng, d), moduli(rng, d), 1))
    ties = np.sqrt(np.array([0.25, 0.25, 0.15, 0.15, 0.1, 0.1]))
    t.append(("ties", ties, moduli(rng, 6), 1))
    t.append(("ties", moduli(rng, 5), np.sqrt(np.array([0.4, 0.2, 0.2, 0.1, 0.1])), 1))
    t.append(("ties", np.full(8, np.sqrt(1 / 8)), np.full(8, np.sqrt(1 / 8)), 1))
    t.append(("zeros", moduli(rng, 7), moduli(rng, 7, support=5), 1))
    t.append(("zeros", moduli(rng, 8, support=6), moduli(rng, 8, support=4), 1))
    t.append(("unequal", moduli(rng, 9), moduli(rng, 6), 1))
    t.append(("unequal", moduli(rng, 5), moduli(rng, 8), 1))
    t.append(("majorized", np.full(7, np.sqrt(1 / 7)), moduli(rng, 7), 1))
    x = moduli(rng, 10) ** 2
    y = 0.7 * np.sort(x)[::-1]
    y[0] += 0.3
    t.append(("majorized", np.sqrt(x), np.sqrt(y), 1))
    t.append(("zero_probability", moduli(rng, 6, support=2), moduli(rng, 6), 1))
    t.append(("multicopy", moduli(rng, 4), moduli(rng, 2), 2))
    t.append(("multicopy", moduli(rng, 8), moduli(rng, 2), 3))
    t.append(("multicopy", moduli(rng, 9), moduli(rng, 3), 2))
    t.append(("multicopy", moduli(rng, 3), moduli(rng, 2), 2))  # support shortcut: P = 0
    return t


class ConvertVerify(Workload):
    name = "convert_verify"
    nominal_pass_s = 1.65
    templates = _convert_templates()

    def pass_items(self, k):
        rng = np.random.default_rng([self.seed, k])
        items = []
        for n in rng.permutation(len(self.templates)):
            kind, a, b, copies = self.templates[n]
            psi, phi = frame(rng, a), frame(rng, b)
            digest_update(self.digest, psi, phi)
            size = max(a.size, b.size ** copies)
            items.append(Item(f"{k}:{n}", size, kind, {"psi": psi, "phi": phi, "copies": copies}))
        return items

    def warmup_item(self):
        return next(i for i in self.pass_items(0) if i.size == 4 and i.kind == "generic")

    def run(self, item, functional_wrap):
        psi, phi, n = item.data["psi"], item.data["phi"], item.data["copies"]
        if n == 1:
            p = q.conversion_probability(psi, phi)
            target = phi
        else:
            p = q.multicopy_probability(psi, phi, n)
            target = q.tensor_power(phi, n)
        protocol = q.optimal_protocol(psi, target)
        report = q.verify_protocol(protocol, psi, target)
        return p, protocol, report

    def check(self, item, out):
        p, protocol, report = out
        psi, phi, n = item.data["psi"], item.data["phi"], item.data["copies"]
        target = phi
        for _ in range(n - 1):
            target = np.kron(target, phi)
        return (
            report.passes()
            and abs(report.success_probability - report.declared_probability) <= TOL
            and abs(p - protocol.probability) <= EXACT
            and abs(p - reference_probability(psi, target)) <= TOL
        )

    def counts(self, item, out):
        _, protocol, report = out
        return {"conversion.stages": len(protocol.stages),
                "conversion.branches": report.branch_count}


# -- protocol_scale ---------------------------------------------------------

# items per pass by dimension
SCALE_MIX = ((32, 8), (64, 1), (128, 3), (256, 1))


def _scale_templates():
    """(d, psi moduli, phi moduli); stage counts, and with them file sizes and
    peak memory, depend on the moduli, so they come from the structure seed."""
    rng = np.random.default_rng(STRUCTURE_SEED + 1)
    return [(d, moduli(rng, d), moduli(rng, d)) for d, count in SCALE_MIX for _ in range(count)]


class ProtocolScale(Workload):
    name = "protocol_scale"
    nominal_pass_s = 10.5
    # items with d <= FILE_MAX_DIM also save and load the protocol
    FILE_MAX_DIM = 64
    templates = _scale_templates()

    def pass_items(self, k):
        rng = np.random.default_rng([self.seed, k])
        items = []
        for n, (d, a, b) in enumerate(self.templates):
            psi, phi = frame(rng, a), frame(rng, b)
            digest_update(self.digest, psi, phi)
            items.append(Item(f"{k}:{d}:{n}", d, "generic", {"psi": psi, "phi": phi}))
        # a fixed order: peak memory depends on which large item the heap saw first
        return items

    def warmup_item(self):
        return next(i for i in self.pass_items(0) if i.size == 32)

    def _path(self, item):
        return os.path.join(self.ctx.workdir, f"protocol-{item.id.replace(':', '-')}.json")

    def run(self, item, functional_wrap):
        psi, phi = item.data["psi"], item.data["phi"]
        p = q.conversion_probability(psi, phi)
        protocol = q.optimal_protocol(psi, phi)
        complete = [q.is_complete(s)[0] for s in protocol.stages]
        incoherent = [q.is_incoherent(s)[0] for s in protocol.stages]
        loaded = None
        if item.size <= self.FILE_MAX_DIM:
            q.save_protocol(self._path(item), protocol)
            loaded = q.load_protocol(self._path(item))
        return p, protocol, complete, incoherent, loaded

    def check(self, item, out):
        p, protocol, complete, incoherent, loaded = out
        ok = (
            len(protocol.stages) > 0
            and all(complete) and all(incoherent)
            and abs(p - protocol.probability) <= EXACT
            and abs(p - reference_probability(item.data["psi"], item.data["phi"])) <= TOL
        )
        if loaded is not None:
            stages, meta = loaded
            ok = ok and meta["probability"] == protocol.probability
            ok = ok and len(stages) == len(protocol.stages)
            for got, want in zip(stages, protocol.stages):
                ok = ok and got.labels == want.labels and len(got) == len(want)
                for a, b in zip(got.operators, want.operators):
                    ok = ok and a.shape == b.shape and a.tobytes() == b.tobytes()
        return ok

    def counts(self, item, out):
        _, protocol, _, _, loaded = out
        c = {"conversion.stages": len(protocol.stages)}
        if loaded is not None:
            c["fileio.protocol_bytes"] = os.path.getsize(self._path(item))
            c["fileio.protocol_stages"] = len(protocol.stages)
        return c

    def cleanup(self, item):
        path = self._path(item)
        if os.path.exists(path):
            os.remove(path)


# -- roof_corpus ------------------------------------------------------------

FUNCTIONALS = (("shannon", {}), ("l1", {}), ("alpha", {"alpha": 0.5}), ("kyfan", {"l": 2}))
ROOF_SHAPES = ((2, 2), (3, 3), (4, 3), (6, 4))


def _roof_corpus():
    """Search problems, the README problem, and the moduli of the shortcut inputs."""
    rng = np.random.default_rng(ROOF_CORPUS_SEED)
    corpus = []
    for d, rank in ROOF_SHAPES:
        rho = random_density(rng, d, rank)
        for fam, kw in FUNCTIONALS:
            corpus.append((f"search-d{d}r{rank}-{fam}", d, fam, kw, rho, 1))
    rp = README_PROBLEM
    rho = random_density(np.random.default_rng(rp["seed"]), rp["dim"], rp["rank"])
    corpus.append(("readme", rp["dim"], rp["functional"], {}, rho, rp["restarts"]))
    return corpus, moduli(rng, 3), rng.dirichlet(np.ones(4))


class RoofCorpus(Workload):
    name = "roof_corpus"
    nominal_pass_s = 4.7  # mean over four passes, the first with the README problem
    corpus, pure_moduli, diagonal = _roof_corpus()

    def pass_items(self, k):
        # the search problems are fixed; the seed draws the item order and the
        # frames of the shortcut inputs, whose values do not depend on the frame.
        # The README problem, a third of the work, runs in the first pass only,
        # so the run has room for several passes over the rest.
        rng = np.random.default_rng([self.seed, k])
        items = []
        for name, d, fam, kw, rho, restarts in self.corpus:
            if name == "readme" and k > 0:
                continue
            items.append(Item(name, d, name.split("-")[0],
                              {"rho": rho, "fam": fam, "kw": kw, "restarts": restarts}))
        for fam, kw in FUNCTIONALS:
            psi = frame(rng, self.pure_moduli)
            items.append(Item(f"pure-{fam}", 3, "pure",
                              {"rho": np.outer(psi, psi.conj()), "fam": fam, "kw": kw, "restarts": 1}))
            p = self.diagonal[rng.permutation(self.diagonal.size)]
            items.append(Item(f"diagonal-{fam}", 4, "diagonal",
                              {"rho": np.diag(p).astype(complex), "fam": fam, "kw": kw, "restarts": 1}))
        for it in items:
            digest_update(self.digest, it.data["rho"])
            it.id = f"{k}:{it.id}"
        return [items[n] for n in rng.permutation(len(items))]

    def warmup_item(self):
        return next(i for i in self.pass_items(0) if i.id.endswith("search-d2r2-shannon"))

    def run(self, item, functional_wrap):
        f = q.builtin(item.data["fam"], **item.data["kw"])
        f = functional_wrap(f)
        return q.convex_roof_upper(f, item.data["rho"], restarts=item.data["restarts"], seed=0)

    def check(self, item, res):
        rho = item.data["rho"]
        f = q.builtin(item.data["fam"], **item.data["kw"])
        weights = np.array([w for w, _ in res.ensemble])
        mixed = sum(w * np.outer(v, v.conj()) for w, v in res.ensemble)
        rescored = sum(w * q.coherence_pure(f, v) for w, v in res.ensemble)
        lam, vecs = np.linalg.eigh(rho)
        eigen_avg = sum(lam[k] * f(np.abs(vecs[:, k]) ** 2)
                        for k in range(lam.size) if lam[k] > EXACT)
        ok = (
            abs(weights.sum() - 1.0) <= TOL
            and float(np.abs(mixed - rho).max()) <= TOL
            and abs(rescored - res.value) <= TOL
            and res.value <= eigen_avg + TOL
        )
        if item.kind == "readme":
            # the README figure; a better optimizer may go lower, never higher
            ok = ok and res.value <= README_VALUE + 5e-13
        return ok

    def counts(self, item, res):
        return {"measures.roof_members": len(res.ensemble)}


# -- cli_session ------------------------------------------------------------

class CliSession(Workload):
    name = "cli_session"
    nominal_pass_s = 2.2

    def prepare(self):
        rng = np.random.default_rng([self.seed, 0])
        w = self.ctx.workdir
        self.files = {n: os.path.join(w, f"{n}.json") for n in
                      ("a", "b", "c", "e", "src", "tgt", "rho", "protocol")}
        states = {"a": frame(rng, moduli(rng, 5)), "b": frame(rng, moduli(rng, 5)),
                  "c": frame(rng, moduli(rng, 6)), "e": frame(rng, moduli(rng, 2))}
        # a d=10 protocol pair of fixed structure, so its verification cost is the same for every seed
        kind, a, b, _ = next(t for t in ConvertVerify.templates if t[0] == "generic" and t[1].size == 10)
        states["src"], states["tgt"] = frame(rng, a), frame(rng, b)
        for n, psi in states.items():
            q.save_state(self.files[n], psi)
            digest_update(self.digest, psi)
        rho = random_density(rng, 2, 2)
        q.save_density(self.files["rho"], rho)
        digest_update(self.digest, rho)
        f = self.files
        self.commands = [
            ("measure", ["measure", "--state", f["a"], "--functional", "shannon"]),
            ("convert", ["convert", "--source", f["a"], "--target", f["b"]]),
            ("convert", ["convert", "--source", f["src"], "--target", f["tgt"],
                         "--protocol", f["protocol"]]),
            ("verify_channel", ["verify-channel", "--channel", f["protocol"]]),
            ("ladder", ["ladder", "--source", f["a"], "--target", f["b"]]),
            ("roof", ["roof", "--density", f["rho"], "--functional", "shannon"]),
            ("convert", ["convert", "--source", f["c"], "--target", f["e"], "--target-copies", "3"]),
            ("paper_demo", ["paper-demo"]),
        ]
        self.expected = {}

    def pass_items(self, k):
        return [Item(f"{k}:{n}", 0, cmd, {"argv": argv, "key": n})
                for n, (cmd, argv) in enumerate(self.commands)]

    def probe_argv(self):
        return self.ctx.cli_argv(self.commands[0][1])

    def run(self, item, functional_wrap):
        return self.ctx.run_child(self.ctx.cli_argv(item.data["argv"]))

    def check(self, item, out):
        code, stdout = out
        key = item.data["key"]
        if key not in self.expected:
            self.expected[key] = self._expected(item)
        want = self.expected[key]
        if item.kind == "convert" and "--target-copies" in item.data["argv"]:
            stdout = re.sub(r" \(support shortcut\)", "", stdout)
        return code == 0 and stdout == want

    def _expected(self, item):
        """What the command should print, computed in this process."""
        f = self.files
        argv = item.data["argv"]
        if item.kind == "measure":
            return f"{q.coherence_pure(q.builtin('shannon'), q.load_state(f['a'])):.12f}\n"
        if item.kind == "convert" and "--target-copies" in argv:
            psi, phi = q.load_state(f["c"]), q.load_state(f["e"])
            return "".join(f"n={n}: {q.multicopy_probability(psi, phi, n):.12f}\n"
                           for n in range(1, 4))
        if item.kind == "convert":
            src, tgt = ("src", "tgt") if "--protocol" in argv else ("a", "b")
            psi, phi = q.load_state(f[src]), q.load_state(f[tgt])
            p = q.conversion_probability(psi, phi)
            if "--protocol" in argv:
                _, meta = q.load_protocol(f["protocol"])
                if f"{meta['probability']:.12f}" != f"{q.optimal_protocol(psi, phi).probability:.12f}":
                    return None
            return f"{p:.12f}\n"
        if item.kind == "verify_channel":
            stages, _ = q.load_protocol(f["protocol"])
            lines = []
            for n, ks in enumerate(stages, 1):
                ok, res = q.is_complete(ks)
                inc, _ = q.is_incoherent(ks)
                verdict = "ok" if ok and inc else "FAIL"
                lines.append(f"stage {n}: completeness residual {res:.3e}, "
                             f"incoherent: {'yes' if inc else 'no'} [{verdict}]\n")
            return "".join(lines)
        if item.kind == "ladder":
            psi, phi = q.load_state(f["a"]), q.load_state(f["b"])
            cs, ct = q.canonicalize(psi), q.canonicalize(phi)
            lad = q.build_ladder(cs.state, ct.state)
            return (f"probability: {q.conversion_probability(psi, phi):.12f}\n"
                    f"breakpoints: {' '.join(str(l) for l in lad.breakpoints)}\n"
                    f"ratios: {' '.join(f'{r:.12f}' for r in lad.ratios)}\n"
                    f"gamma: {' '.join(f'{g:.12f}' for g in lad.gamma)}\n")
        if item.kind == "roof":
            rho = q.load_density(f["rho"])
            res = q.convex_roof_upper(q.builtin("shannon"), rho, restarts=8, seed=0)
            return f"upper bound: {res.value:.12f}\n"
        if item.kind == "paper_demo":
            from qcohere import cli

            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["paper-demo"])
            return buf.getvalue() if code == 0 else None
        raise ValueError(f"unknown command {item.kind}")


WORKLOADS = {w.name: w for w in (ConvertVerify, ProtocolScale, RoofCorpus, CliSession)}


def traced_functional(tracer):
    """Functional wrapper that times every evaluation of a built-in functional."""
    def wrap(f):
        return dataclasses.replace(f, evaluate=tracer.timed_functional(f.evaluate))
    return wrap


def plain_functional(f):
    return f

