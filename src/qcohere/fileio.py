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
from .states import pure_state

# states off normalization by at most this much are renormalized with a warning
RENORM_TOL = 1e-6


def _c2pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _pair2c(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise FileFormatError(f"expected a [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _vec2json(v: np.ndarray) -> list:
    return [_c2pair(z) for z in np.asarray(v, dtype=complex)]


def _json2vec(rows) -> np.ndarray:
    return np.array([_pair2c(p) for p in rows], dtype=complex)


def _mat2json(m: np.ndarray) -> list:
    return [[_c2pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def _json2mat(rows) -> np.ndarray:
    return np.array([[_pair2c(p) for p in row] for row in rows], dtype=complex)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc


def _dump_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _expect(payload, key, path):
    if not isinstance(payload, dict) or key not in payload:
        raise FileFormatError(f"{path}: missing key {key!r}")
    return payload[key]


def save_state(path, psi) -> None:
    psi = pure_state(psi)
    _dump_json(path, {"dim": int(psi.size), "amplitudes": _vec2json(psi)})


def load_state(path) -> np.ndarray:
    payload = _load_json(path)
    dim = int(_expect(payload, "dim", path))
    amps = _json2vec(_expect(payload, "amplitudes", path))
    if amps.size != dim:
        raise FileFormatError(f"{path}: dim {dim} but {amps.size} amplitudes")
    n2 = float((amps.real**2 + amps.imag**2).sum())
    if abs(n2 - 1.0) > RENORM_TOL:
        raise NormalizationError(f"{path}: squared norm {n2!r} too far from 1")
    if n2 > 0 and abs(n2 - 1.0) > 1e-12:
        warnings.warn(f"{path}: renormalizing state (squared norm {n2!r})", stacklevel=2)
        amps = amps / np.sqrt(n2)
    return pure_state(amps)


def save_density(path, rho) -> None:
    rho = np.asarray(rho, dtype=complex)
    _dump_json(path, {"dim": int(rho.shape[0]), "matrix": _mat2json(rho)})


def load_density(path) -> np.ndarray:
    payload = _load_json(path)
    dim = int(_expect(payload, "dim", path))
    rho = _json2mat(_expect(payload, "matrix", path))
    if rho.shape != (dim, dim):
        raise FileFormatError(f"{path}: dim {dim} but matrix shape {rho.shape}")
    return rho


def _channel_payload(k: KrausSet) -> dict:
    payload = {
        "dim": int(k.dim),
        "operators": [_mat2json(op) for op in k.operators],
    }
    if k.labels is not None:
        payload["labels"] = list(k.labels)
    return payload


def _payload_operators(payload, path):
    dim = int(_expect(payload, "dim", path))
    ops = [_json2mat(rows) for rows in _expect(payload, "operators", path)]
    if any(op.shape != (dim, dim) for op in ops):
        raise FileFormatError(f"{path}: operator shape mismatch with dim {dim}")
    return ops, payload.get("labels")


def save_channel(path, k: KrausSet) -> None:
    _dump_json(path, _channel_payload(k))


def load_channel(path, atol: float = RENORM_TOL) -> KrausSet:
    return kraus_set(*_payload_operators(_load_json(path), path), atol=atol)


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


def load_protocol(path, atol: float = RENORM_TOL):
    """Returns (stages, meta). ``meta`` holds the scalar fields as a dict."""
    stages, meta = _payload_protocol(_load_json(path), path)
    return [kraus_set(*stage, atol=atol) for stage in stages], meta


def read_stages(path):
    """(stages, meta): dense (operators, labels) per stage of a protocol file,
    or of a channel file as one stage (meta None). Only shapes are checked,
    so coherent or incomplete stages can still be reported on."""
    payload = _load_json(path)
    if isinstance(payload, dict) and "stages" in payload:
        return _payload_protocol(payload, path)
    return [_payload_operators(payload, path)], None


def save_ensemble(path, result, dim: int) -> None:
    """Roof ensemble: value plus (weight, amplitudes) members."""
    _dump_json(path, {
        "dim": int(dim),
        "value": float(result.value),
        "quality": result.quality,
        "members": [
            {"weight": float(w), "amplitudes": _vec2json(vec)}
            for w, vec in result.ensemble
        ],
    })
