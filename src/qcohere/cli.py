"""Command-line interface.

Exit codes: 0 success, 1 validation or computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .channels import is_complete, kraus_set
from .conversion import (
    build_ladder,
    canonical_pair,
    conversion_probability,
    multicopy_probability,
    optimal_protocol,
    support_shortcut,
    verify_protocol,
)
from .errors import IncoherenceError, QcohereError
from .fileio import load_density, load_state, read_stages, save_ensemble, save_protocol
from .measures import builtin, coherence_pure, convex_roof_upper
from .simplex import ATOL
from .states import pure_state, support_size, tensor_power


def _functional(args):
    return builtin(args.functional, alpha=args.alpha, l=args.l)


def cmd_measure(args) -> int:
    psi = load_state(args.state)
    value = coherence_pure(_functional(args), psi)
    print(f"{value:.12f}")
    return 0


def cmd_convert(args) -> int:
    psi = load_state(args.source)
    phi = load_state(args.target)
    if args.copies < 1 or args.target_copies < 0:
        print("error: copy counts must be positive", file=sys.stderr)
        return 2
    if args.copies > 1:
        psi = tensor_power(psi, args.copies)
    if args.target_copies:
        if args.protocol:
            print("error: --protocol cannot be combined with --target-copies", file=sys.stderr)
            return 2
        for n in range(1, args.target_copies + 1):
            p = multicopy_probability(psi, phi, n)
            note = " (support shortcut)" if n >= 2 and support_shortcut(psi, phi, n) else ""
            print(f"n={n}: {p:.12f}{note}")
        return 0
    p = conversion_probability(psi, phi)
    print(f"{p:.12f}")
    if args.protocol:
        protocol = optimal_protocol(psi, phi)
        report = verify_protocol(protocol, psi, phi)
        save_protocol(args.protocol, protocol, report)
        if not report.passes():
            print("error: protocol failed self-verification", file=sys.stderr)
            return 1
    return 0


def cmd_ladder(args) -> int:
    psi = load_state(args.source)
    phi = load_state(args.target)
    p = conversion_probability(psi, phi)
    print(f"probability: {p:.12f}")
    if p <= 0.0:
        print("no ladder: conversion probability is zero")
        return 0
    cs, ct = canonical_pair(psi, phi)
    ladder = build_ladder(cs.state, ct.state)
    print("breakpoints:", " ".join(str(l) for l in ladder.breakpoints))
    print("ratios:", " ".join(f"{r:.12f}" for r in ladder.ratios))
    print("gamma:", " ".join(f"{g:.12f}" for g in ladder.gamma))
    return 0


def cmd_verify_channel(args) -> int:
    stages, meta = read_stages(args.channel)
    if meta is not None and not stages:
        print("protocol: no stages")
    names = ["channel"] if meta is None else [f"stage {n}" for n in range(1, len(stages) + 1)]
    ok_all = True
    for name, stage in zip(names, stages):
        if isinstance(stage, IncoherenceError):
            complete, w = False, stage.witness
            print(f"{name}: incoherent: no [FAIL]")
            print(f"  witness: operator {w.operator}, column {w.column}, "
                  f"rows {w.rows[0]} and {w.rows[1]}")
        else:
            complete, residual = is_complete(stage)
            print(f"{name}: completeness residual {residual:.3e}, "
                  f"incoherent: yes [{'ok' if complete else 'FAIL'}]")
        ok_all = ok_all and complete
    return 0 if ok_all else 1


def cmd_roof(args) -> int:
    result = convex_roof_upper(
        _functional(args), load_density(args.density), restarts=args.restarts, seed=args.seed
    )
    print(f"upper bound: {result.value:.12f}")
    if args.ensemble:
        save_ensemble(args.ensemble, result)
    return 0


def _demo_checks():
    inv2 = 1.0 / np.sqrt(2.0)
    psi = pure_state([inv2, inv2, 0.0])
    phi = pure_state(np.full(3, 1.0 / np.sqrt(3.0)))
    checks = []

    t2 = tensor_power(psi, 2)
    expected = np.zeros(9)
    expected[[0, 1, 3, 4]] = 0.5
    dev = float(np.abs(t2 - expected).max())
    checks.append(("two-copy tensor amplitudes", dev <= ATOL, f"max deviation {dev:.3e}"))

    sizes = (support_size(psi), support_size(phi), support_size(t2))
    checks.append(("support sizes 2, 3, 4", sizes == (2, 3, 4), f"got {sizes}"))

    p1 = conversion_probability(psi, phi)
    checks.append(("single-copy probability is zero", abs(p1) <= ATOL, f"P = {p1:.12f}"))

    p2 = conversion_probability(t2, phi)
    checks.append(("two-copy probability is one", abs(p2 - 1.0) <= ATOL, f"P = {p2:.12f}"))

    checks.append(("two copies beat one", p2 > p1, f"{p2:.12f} > {p1:.12f}"))

    m2 = multicopy_probability(psi, phi, 2)
    m3 = multicopy_probability(psi, phi, 3)
    small = support_shortcut(psi, phi, 2) and support_shortcut(psi, phi, 3)
    checks.append((
        "support shortcut zeroes multi-target conversion",
        small and abs(m2) <= ATOL and abs(m3) <= ATOL,
        f"P(n=2) = {m2:.12f}, P(n=3) = {m3:.12f}",
    ))

    x = np.array([0.3, 0.5, 0.2])
    y = np.array([0.25, 0.25, 0.5])
    lam = 0.4
    mix = lam * x + (1.0 - lam) * y
    k1 = np.diag(np.sqrt(lam * x / mix))
    k2 = np.diag(np.sqrt((1.0 - lam) * y / mix))
    # kraus_set raises IncoherenceError on a coherent pair
    complete, residual = is_complete(kraus_set([k1, k2]))
    outs = ((k1, np.sqrt(lam * x)), (k2, np.sqrt((1.0 - lam) * y)))
    split = max(float(np.abs(k @ np.sqrt(mix) - out).max()) for k, out in outs)
    checks.append((
        "diagonal pair splits a mixture incoherently",
        complete and split <= ATOL,
        f"residual {residual:.3e}, split deviation {split:.3e}",
    ))
    return checks


def cmd_paper_demo(args) -> int:
    checks = _demo_checks()
    all_passed = all(ok for _, ok, _ in checks)
    if args.json:
        print(json.dumps({
            "checks": [
                {"name": name, "passed": bool(ok), "detail": detail}
                for name, ok, detail in checks
            ],
            "all_passed": bool(all_passed),
        }, indent=2))
    else:
        for name, ok, detail in checks:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcohere",
        description="Coherence measures and optimal incoherent state conversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_functional(p):
        p.add_argument("--functional", required=True,
                       choices=["shannon", "l1", "alpha", "kyfan"])
        p.add_argument("--alpha", type=float, default=None,
                       help="order for the alpha family, in (0, 1)")
        p.add_argument("--l", type=int, default=None,
                       help="tail start for the kyfan family, >= 2")

    p = sub.add_parser("measure", help="pure-state coherence value")
    p.add_argument("--state", required=True)
    add_functional(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("convert", help="conversion probability and protocol")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--protocol", help="write the optimal protocol to this path")
    p.add_argument("--copies", type=int, default=1,
                   help="tensor copies of the source state")
    p.add_argument("--target-copies", type=int, default=0,
                   help="report conversion into 1..N copies of the target")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("ladder", help="tail-ratio ladder of a conversion")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("verify-channel", help="completeness and incoherence report")
    p.add_argument("--channel", required=True)
    p.set_defaults(func=cmd_verify_channel)

    p = sub.add_parser("roof", help="upper bound on a mixed-state measure")
    p.add_argument("--density", required=True)
    add_functional(p)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ensemble", help="write the achieving ensemble to this path")
    p.set_defaults(func=cmd_roof)

    p = sub.add_parser("paper-demo", help="worked-example checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_paper_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QcohereError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
