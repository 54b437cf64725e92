"""Layered benchmark for qcohere.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload convert_verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Workloads: convert_verify, protocol_scale, roof_corpus, cli_session (see
workloads.py). The program is imported from ./src; nothing is installed.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics, measured from spans around calls into
qcohere's public functions, and the tracing overhead. The last line of
standard output is one JSON object; a full result, with spans when traced,
is written under .bench_build/perfbench/results/.
"""

import os

# BLAS/OpenMP run single-threaded; set before numpy is imported, here and in
# every child process, which inherit this environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("convert_verify", "protocol_scale", "roof_corpus", "cli_session")


def load_program():
    """Import qcohere from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "qcohere" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcohere sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import qcohere

    if Path(qcohere.__file__).resolve().parent != (src / "qcohere").resolve():
        raise SystemExit(f"error: imported qcohere from {qcohere.__file__}, not {src}")


def print_result(result, trace):
    name = result["workload"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    for metric, m in result["end_to_end"].items():
        extra = ""
        if metric == "item_tail_s":
            extra = f"  (p{result['tail_percentile']:.2f} of {result['timed_items']} items)"
        print(f"{name}  {metric:<32} {m['value']:.6g} {m['unit']}{extra}")
    raw = ", ".join(f"{k} {v:.6g}" for k, v in result["raw_wall"].items())
    print(f"{name}  raw wall clock: {raw}")
    print(f"{name}  {'failed_frac':<32} {result['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} items)")
    if result["roof_values"]:
        values = list(result["roof_values"].values())
        print(f"{name}  {'roof_value_mean':<32} {sum(values) / len(values):.12f} value")
        for item, v in sorted(result["roof_values"].items()):
            print(f"{name}    roof {item:<28} {v:.12f}")
    for count, v in sorted(result["counts"].items()):
        print(f"{name}  count {count:<26} {v}")
    if trace:
        for metric, m in result["per_layer"].items():
            print(f"{name}  {metric:<40} {m['value']:.6g} {m['unit']}")
    for f in result["failures"]:
        print(f"{name}  FAILED {f['item']}: {f['error']}")


def summary_line(result, trace):
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def run_all(args):
    """Each workload in its own process, so each reports its own peak memory."""
    results = {}
    for name in NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.slice:
            argv += ["--slice", str(args.slice)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--slice", type=int, default=None,
                    help="only the first N items of one pass, one set-up probe (for tests)")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind normally: children are killed and awaited, work files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    load_program()
    import harness

    if args.probe:
        harness.probe(args.workload, args.seed, ROOT, args.workdir)
        return 0
    if args.workload == "all":
        run_all(args)
        return 0
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  ROOT, slice_items=args.slice)
    path = harness.write_result(ROOT, result, args.seed, args.trace)
    print_result(result, args.trace)
    print(f"result written to {path.relative_to(ROOT)}")
    print(summary_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
