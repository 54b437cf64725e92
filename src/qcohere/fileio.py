"""JSON persistence for states, density matrices, channels, and protocols.

Complex numbers are stored as [re, im] pairs; floats round-trip exactly
through Python's shortest-repr serialization. Kraus operators are written
and read as dense matrices.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .channels import KrausSet, kraus_set
from .errors import FileFormatError, NormalizationError
from .simplex import TINY
from .states import check_density, pure_state

# states off normalization by at most this much are renormalized with a warning
RENORM_TOL = 1e-6


def _to_pairs(a) -> list:
    """Nested lists of [re, im] pairs of a complex array."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def _from_pairs(x, shape, path) -> np.ndarray:
    """Complex array of the given shape from nested [re, im] pairs; a
    leading None in ``shape`` admits any count. Signed zeros survive."""
    try:
        a = np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: expected numeric [re, im] pairs ({exc})") from exc
    want = (*shape, 2)
    if a.ndim != len(want) or any(n not in (None, m) for n, m in zip(want, a.shape)):
        raise FileFormatError(f"{path}: expected [re, im] pairs of shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise FileFormatError(f"{path}: missing or non-finite number")
    return a.view(complex)[..., 0]


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc


def _dump_json(path, payload) -> None:
    # json.dumps without indentation runs the C encoder; json.dump, or any
    # indent, streams through the pure-Python one
    text = json.dumps(payload) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _expect(payload, key, path):
    if not isinstance(payload, dict) or key not in payload:
        raise FileFormatError(f"{path}: missing key {key!r}")
    return payload[key]


def _dim(payload, path) -> int:
    dim = _expect(payload, "dim", path)
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise FileFormatError(f"{path}: dim must be an integer, got {dim!r}")
    return dim


def save_state(path, psi) -> None:
    psi = pure_state(psi)
    _dump_json(path, {"dim": int(psi.size), "amplitudes": _to_pairs(psi)})


def load_state(path) -> np.ndarray:
    payload = _load_json(path)
    amps = _from_pairs(_expect(payload, "amplitudes", path), (_dim(payload, path),), path)
    n2 = float((amps.real**2 + amps.imag**2).sum())
    if abs(n2 - 1.0) > RENORM_TOL:
        raise NormalizationError(f"{path}: squared norm {n2!r} too far from 1")
    if n2 > 0 and abs(n2 - 1.0) > TINY:
        warnings.warn(f"{path}: renormalizing state (squared norm {n2!r})", stacklevel=2)
        amps = amps / np.sqrt(n2)
    return pure_state(amps)


def save_density(path, rho) -> None:
    rho = check_density(rho)
    _dump_json(path, {"dim": int(rho.shape[0]), "matrix": _to_pairs(rho)})


def load_density(path) -> np.ndarray:
    payload = _load_json(path)
    dim = _dim(payload, path)
    return _from_pairs(_expect(payload, "matrix", path), (dim, dim), path)


def _channel_payload(k: KrausSet) -> dict:
    payload = {"dim": int(k.dim), "operators": _to_pairs(k.operators)}
    if any(k.labels):
        payload["labels"] = list(k.labels)
    return payload


def _payload_operators(payload, path):
    dim = _dim(payload, path)
    ops = _from_pairs(_expect(payload, "operators", path), (None, dim, dim), path)
    labels = payload.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != len(ops)):
        raise FileFormatError(f"{path}: expected a list of {len(ops)} labels, got {labels!r}")
    return ops, labels


def save_channel(path, k: KrausSet) -> None:
    _dump_json(path, _channel_payload(k))


def load_channel(path) -> KrausSet:
    """Channel file as a KrausSet, complete within RENORM_TOL."""
    return kraus_set(*_payload_operators(_load_json(path), path), atol=RENORM_TOL)


def save_protocol(path, protocol, report=None) -> None:
    """Protocol plus an optional verification block."""
    payload = {
        "dim": int(protocol.stages[0].dim) if protocol.stages else 0,
        "success_label": protocol.success_label,
        "probability": float(protocol.probability),
        "stages": [_channel_payload(stage) for stage in protocol.stages],
    }
    if report is not None:
        payload["verification"] = {
            "stage_completeness_residuals": list(report.stage_completeness),
            # kraus_set admits incoherent operators only; kept for old readers
            "incoherent": True,
            "composed_success_probability": float(report.success_probability),
            "min_success_fidelity": float(report.min_success_fidelity),
            "branch_count": int(report.branch_count),
            "success_count": int(report.success_count),
        }
    _dump_json(path, payload)


def _payload_protocol(payload, path):
    stages = [_payload_operators(p, path) for p in _expect(payload, "stages", path)]
    meta = {k: v for k, v in payload.items() if k != "stages"}
    return stages, meta


def load_protocol(path):
    """Returns (stages, meta), each stage complete within RENORM_TOL.
    ``meta`` holds the scalar fields as a dict."""
    stages, meta = _payload_protocol(_load_json(path), path)
    return [kraus_set(*stage, atol=RENORM_TOL) for stage in stages], meta


def read_stages(path):
    """(stages, meta): dense (operators, labels) per stage of a protocol file,
    or of a channel file as one stage (meta None). Only shapes are checked,
    so coherent or incomplete stages can still be reported on."""
    payload = _load_json(path)
    if isinstance(payload, dict) and "stages" in payload:
        return _payload_protocol(payload, path)
    return [_payload_operators(payload, path)], None


def save_ensemble(path, result) -> None:
    """Roof ensemble: value plus (weight, amplitudes) members."""
    _dump_json(path, {
        "dim": len(result.ensemble[0][1]),
        "value": float(result.value),
        # the roof search certifies an upper bound only
        "quality": "upper-bound",
        "members": [
            {"weight": float(w), "amplitudes": _to_pairs(vec)}
            for w, vec in result.ensemble
        ],
    })
