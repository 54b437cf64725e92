"""Runs one workload: set-up probes, the timed passes, checks, metrics.

A run makes a fixed number of whole passes over the workload's items: the
time budget divided by the pass's nominal duration, rounded. The nominal
durations were measured at the commit that added this benchmark, on 2 CPUs
(x86-64, Python 3.11, numpy 2.4, no numba), so a run of ``--seconds 20``
measures about 20 s there. Fixing the work, not the time, keeps every run of
a seed on the same items and keeps the tail percentile the same when the
program gets faster. With tracing on, the run makes untraced passes on half
the budget and then repeats exactly those passes traced; the end-to-end
metrics always come from untraced passes. Times are reported in reference
seconds (see gauge.py).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
CLI_PROBES = 5
CHILD_TIMEOUT = 150
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_s", "s", "lower"),
    ("item_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

CONVERT_SIZES = (4, 8, 12, 14)
SCALE_SIZES = (32, 64, 128, 256)
FILE_SIZES = (32, 64)
ROOF_SIZES = (2, 3, 4, 6)
CLI_COMMANDS = ("measure", "convert", "ladder", "verify_channel", "roof", "paper_demo")


def _per_layer_spec():
    """(metric, unit, better, how, arg) for every per-layer metric."""
    spec = []

    def self_time(layer, sizes=(), total=True):
        if total:
            spec.append((f"{layer}_s", "s", "lower", "self", (layer, None, None)))
        for d in sizes:
            spec.append((f"{layer}_s.d{d}", "s", "lower", "self", (layer, d, None)))

    # convert_verify: verification and the work it does
    for layer in ("conversion.verify", "channels.compose", "channels.apply_selective"):
        self_time(layer, CONVERT_SIZES)
    spec.append(("conversion.branches", "count", "lower", "count", "conversion.branches"))
    spec.append(("channels.compose_products", "count", "lower", "count", "channels.compose_products"))
    for layer in ("conversion.probability", "conversion.ladder", "conversion.filter",
                  "conversion.multicopy", "states.canonicalize", "states.tensor_power",
                  "simplex.majorizes"):
        self_time(layer)
    # protocol_scale: construction, stage checks, protocol files
    for layer in ("conversion.optimal_protocol", "conversion.deterministic",
                  "simplex.ttransform_chain", "channels.is_complete", "channels.is_incoherent"):
        self_time(layer, SCALE_SIZES, total=False)
    spec.append(("conversion.stages", "count", "lower", "count", "conversion.stages"))
    for layer in ("fileio.save_protocol", "fileio.load_protocol"):
        self_time(layer, FILE_SIZES, total=False)
    for d in FILE_SIZES:
        spec.append((f"fileio.protocol_bytes_per_stage.d{d}", "count", "lower", "bytes_per_stage", d))
    # roof_corpus
    self_time("measures.roof")
    for d in ROOF_SIZES:
        spec.append((f"measures.roof_restart_s.d{d}", "s", "lower", "self",
                     ("measures.roof", d, "search")))
    spec.append(("measures.functional_us", "us", "lower", "functional_us", None))
    spec.append(("measures.functional_calls", "count", "lower", "functional_calls", None))
    self_time("states.check_density")
    spec.append(("measures.roof_members", "count", "lower", "count", "measures.roof_members"))
    spec.append(("measures.roof_value_mean", "value", "lower", "roof_value_mean", None))
    # cli_session: wall time of each child process
    spec.append(("cli.interpreter_s", "s", "lower", "probe", "interpreter"))
    spec.append(("cli.import_s", "s", "lower", "probe", "import"))
    for cmd in CLI_COMMANDS:
        spec.append((f"cli.{cmd}_s", "s", "lower", "cli", cmd))
    # tracing overhead
    spec.append(("trace.items_per_s", "1/s", "higher", "trace", "traced"))
    spec.append(("trace.untraced_items_per_s", "1/s", "higher", "trace", "untraced"))
    spec.append(("trace.items_per_s_ratio", "ratio", "higher", "trace", "ratio"))
    return spec


PER_LAYER = _per_layer_spec()


class Context:
    """Paths and child-process settings shared by the workloads of one run."""

    def __init__(self, root: Path, workdir: str):
        self.root = root
        self.workdir = workdir
        self.entry = root / "perfbench" / "run.py"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")

    def cli_argv(self, args):
        return [sys.executable, "-m", "qcohere.cli", *args]

    def run_child(self, argv):
        """Run a child to completion; (exit code, stdout)."""
        r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT)
        if r.returncode != 0:
            sys.stderr.write(r.stderr.decode(errors="replace")[-2000:])
        return r.returncode, r.stdout.decode()

    def time_child(self, argv):
        start = time.perf_counter()
        code, _ = self.run_child(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"child {argv[1:4]} exited with {code}")
        return elapsed


@dataclass
class Record:
    item: object
    passno: int
    wall: float  # seconds
    reading: int  # the gauge reading taken before the item
    ok: bool
    error: str | None
    counts: dict
    value: float | None  # roof value, for roof items
    factor: float = 1.0  # reference seconds per second, set after the run

    @property
    def latency(self):
        """Item time in reference seconds."""
        return self.wall * self.factor


def _run_item(wl, item, passno, wrap, tracer, reading=-1):
    start = tracer.open_item(item.id) if tracer else time.perf_counter()
    out, error = None, None
    try:
        out = wl.run(item, wrap)
    except Exception as exc:  # an item that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = tracer.close_item(start) if tracer else time.perf_counter()
    ok, counts, value = False, {}, None
    if error is None:
        try:
            ok = bool(wl.check(item, out))
            counts = wl.counts(item, out)
            value = getattr(out, "value", None)
            if not ok:
                error = "check failed"
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    wl.cleanup(item)
    return Record(item, passno, end - start, reading, ok, error, counts, value)


def pass_count(wl, budget, slice_items):
    if slice_items:
        return 1
    return max(1, round(budget / wl.nominal_pass_s))


def run_passes(wl, passes, wrap, gauge, tracer=None, slice_items=None):
    gauge.read()
    records = []
    for k in range(passes):
        items = wl.pass_items(k)
        if slice_items:
            items = items[:slice_items]
        for item in items:
            records.append(_run_item(wl, item, k, wrap, tracer, gauge.tick()))
    gauge.read()
    return records


def tail(latencies):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND items beyond it.

    With fewer than TAIL_BEYOND + 1 items it is the maximum, at percentile 100.
    """
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    k = n - TAIL_BEYOND
    return s[k - 1], 100.0 * k / n, n


def typical_latencies(records, attr="latency"):
    """Each item's time replaced by the median time of the same input over the
    run's passes. Passes repeat the same inputs up to frame and order, which
    do not change the work, so this keeps the spread between inputs and drops
    the machine's noise on single occurrences."""
    by_input = defaultdict(list)
    for r in records:
        by_input[r.item.id.split(":", 1)[1]].append(getattr(r, attr))
    typical = {k: statistics.median(v) for k, v in by_input.items()}
    return [typical[r.item.id.split(":", 1)[1]] for r in records]


def end_to_end(records, setup_s, rss_mb):
    lat = [r.latency for r in records]
    typical = typical_latencies(records)
    tail_value, tail_pct, n = tail(typical)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": n / sum(lat),
        "item_p50_s": statistics.median(typical),
        "item_tail_s": tail_value,
        "peak_rss_mb": rss_mb,
    }
    return metrics, {"tail_percentile": tail_pct, "items": n}


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(records, tracer, untraced_rate, probes):
    """Every per-layer metric; a layer the workload never calls reads 0."""
    items = {r.item.id: r.item for r in records}
    factor = {r.item.id: r.factor for r in records}
    first = [r for r in records if r.passno == 0]
    first_ids = {r.item.id for r in first}
    by_layer = defaultdict(list)
    for layer, item_id, secs in tracer.self_times():
        by_layer[layer].append((items[item_id], secs * factor[item_id]))
    counts = defaultdict(int)
    for r in first:
        for name, v in r.counts.items():
            counts[name] += v
    for (name, item_id), v in tracer.counts.items():
        if item_id in first_ids:
            counts[name] += v
    fsecs = fcalls = first_calls = 0
    for item_id, (secs, calls) in tracer.functional_totals().items():
        fsecs += secs * factor[item_id]
        fcalls += calls
        if item_id in first_ids:
            first_calls += calls
    lat = [r.latency for r in records]
    traced_rate = len(lat) / sum(lat)
    values = [r.value for r in first if r.value is not None]

    out = {}
    for name, unit, _, how, arg in PER_LAYER:
        if how == "self":
            layer, size, kind = arg
            xs = [s for it, s in by_layer.get(layer, ())
                  if (size is None or it.size == size) and (kind is None or it.kind == kind)]
            v = _mean(xs)
        elif how == "count":
            v = counts.get(arg, 0)
        elif how == "bytes_per_stage":
            nbytes = sum(r.counts.get("fileio.protocol_bytes", 0) for r in first if r.item.size == arg)
            stages = sum(r.counts.get("fileio.protocol_stages", 0) for r in first if r.item.size == arg)
            v = nbytes / stages if stages else 0
        elif how == "functional_us":
            v = 1e6 * fsecs / fcalls if fcalls else 0.0
        elif how == "functional_calls":
            v = first_calls
        elif how == "roof_value_mean":
            v = _mean(values)
        elif how == "probe":
            v = probes.get(arg, 0.0)
        elif how == "cli":
            v = _mean([r.latency for r in records if r.item.kind == arg])
        elif how == "trace":
            v = {"traced": traced_rate, "untraced": untraced_rate,
                 "ratio": traced_rate / untraced_rate}[arg]
        out[name] = {"value": v, "unit": unit}
    return out


def environment(root: Path, seed, workload, input_digest):
    commit = None
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        if r.returncode == 0 and Path(lines[0]).resolve() == root.resolve():
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "qcohere").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "input_sha256": input_digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def run_workload(name, seed, seconds, trace, root: Path, slice_items=None):
    """Run one workload and return its full result (metrics, env, records)."""
    import workloads
    from gauge import SpeedGauge
    from tracer import Tracer

    cache = root / ".bench_build" / "perfbench"
    cache.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=cache)
    try:
        ctx = Context(root, workdir)
        wl = workloads.WORKLOADS[name](ctx, seed)
        wl.prepare()

        gauge = SpeedGauge()
        probes_n = 1 if slice_items else SETUP_PROBES
        setup = timed_children(ctx, wl.probe_argv(), probes_n, gauge)

        warm = wl.warmup_item()
        warm_rec = _run_item(wl, warm, -1, workloads.plain_functional, None)
        if not warm_rec.ok:
            print(f"warm-up item {warm.id} failed: {warm_rec.error}", file=sys.stderr)

        budget = seconds / 2 if trace else seconds
        passes = pass_count(wl, budget, slice_items)
        plain = run_passes(wl, passes, workloads.plain_functional, gauge, slice_items=slice_items)
        if name == "cli_session":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records = plain

        if trace:
            cli_probes = {}
            if name == "cli_session":
                n = 1 if slice_items else CLI_PROBES
                for key, code in (("interpreter", "pass"), ("import", "import qcohere")):
                    cli_probes[key] = timed_children(ctx, [sys.executable, "-c", code], n,
                                                     gauge)
            tracer = Tracer()
            with tracer:
                traced = run_passes(wl, passes, workloads.traced_functional(tracer), gauge,
                                    tracer=tracer, slice_items=slice_items)
            records = plain + traced

        for r in records:
            r.factor = gauge.factor(r.reading)
        setup_s = statistics.median(scaled(setup, gauge))
        e2e, info = end_to_end(plain, setup_s, rss_kb / 1024.0)
        result = {"workload": name, "passes": passes,
                  "setup_samples_s": scaled(setup, gauge),
                  "raw_wall": raw_wall(plain, [wall for wall, _ in setup]),
                  "gauge_readings_s": [secs for _, secs in gauge.readings]}
        if trace:
            probes = {k: statistics.median(scaled(v, gauge)) for k, v in cli_probes.items()}
            result["per_layer"] = per_layer(traced, tracer, e2e["items_per_s"], probes)
            result["spans"] = tracer.dump()

        failed = [r for r in records if not r.ok]
        result.update({
            "env": environment(root, seed, name, wl.digest.hexdigest()),
            "end_to_end": {k: {"value": e2e[k], "unit": u} for k, u, _ in END_TO_END},
            "tail_percentile": info["tail_percentile"],
            "timed_items": info["items"],
            "failed_frac": len(failed) / len(records),
            "attempted": len(records),
            "failed": len(failed),
            "failures": [{"item": r.item.id, "error": r.error} for r in failed[:20]],
            "counts": _first_pass_counts(plain),
            "roof_values": {r.item.id.split(":", 1)[1]: r.value
                            for r in plain if r.passno == 0 and r.value is not None},
        })
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_children(ctx, argv, n, gauge):
    """n runs of a child: [(wall seconds, preceding gauge reading)]."""
    out = []
    for _ in range(n):
        before = gauge.read()
        out.append((ctx.time_child(argv), before))
    gauge.read()
    return out


def scaled(timed, gauge):
    return [wall * gauge.factor(before) for wall, before in timed]


def raw_wall(records, setup_wall):
    """The end-to-end timings before scaling to reference seconds."""
    lat = [r.wall for r in records]
    typical = typical_latencies(records, "wall")
    return {"setup_s": statistics.median(setup_wall), "items_per_s": len(lat) / sum(lat),
            "item_p50_s": statistics.median(typical), "item_tail_s": tail(typical)[0],
            "speed_factor_median": statistics.median(r.factor for r in records)}


def _first_pass_counts(records):
    totals = defaultdict(int)
    for r in records:
        if r.passno == 0:
            for k, v in r.counts.items():
                totals[k] += v
    return dict(totals)


def probe(name, seed, root: Path, workdir):
    """Child side of a set-up probe: build and run the warm-up item once."""
    import workloads

    wl = workloads.WORKLOADS[name](Context(root, workdir), seed)
    wl.prepare()
    item = wl.warmup_item()
    wl.run(item, workloads.plain_functional)
    wl.cleanup(item)


def write_result(root: Path, result, seed, trace):
    out = root / ".bench_build" / "perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result['workload']}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return path
