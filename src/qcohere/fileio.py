"""JSON persistence for states, density matrices, channels, and protocols.

Complex numbers are stored as [re, im] pairs; floats round-trip exactly
through Python's shortest-repr serialization. A Kraus set is written as its
stored form, ``{"dim", "rows", "values"}`` plus ``"labels"`` when some
operator has one: operator n sends column c to row rows[n][c] with amplitude
values[n][c]. Dense ``"operators"`` files, written before this encoding or
by hand, are still read, through ``kraus_set``.
"""

from __future__ import annotations

import json
import warnings
from functools import partial
from itertools import chain

import numpy as np

from .channels import KrausSet, _from_stored, kraus_set
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
    payload = {"dim": int(k.dim), "rows": k.rows.tolist(), "values": _to_pairs(k.vals)}
    if any(k.labels):
        payload["labels"] = list(k.labels)
    return payload


def _rows(x, dim, path) -> np.ndarray:
    """Integer array of shape (n >= 1, dim) with entries in [0, dim). JSON
    booleans and floats are refused, even where numpy would cast them."""
    try:
        kinds = set(map(type, chain.from_iterable(x)))
        rows = np.array(x, dtype=np.int64) if kinds <= {int} else None
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None or rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] != dim:
        raise FileFormatError(f"{path}: rows must be {dim} integers per operator")
    if ((rows < 0) | (rows >= dim)).any():
        raise FileFormatError(f"{path}: rows must lie in [0, {dim})")
    return rows


def _stage(payload, path, dim=None):
    """One channel, or one stage of a protocol of dimension ``dim``, checked
    and decoded. Returns the KrausSet constructor with its arguments bound;
    called with the completeness tolerance ``atol`` it builds the set.
    Compact {"rows", "values"} stages go straight to the stored form; dense
    "operators" go through kraus_set, which raises IncoherenceError on a
    coherent operator."""
    own = _dim(payload, path)
    if dim is not None and own != dim:
        raise FileFormatError(f"{path}: a stage of dim {own} in a protocol of dim {dim}")
    if "rows" in payload:
        rows = _rows(payload["rows"], own, path)
        args = (rows, _from_pairs(_expect(payload, "values", path), rows.shape, path))
        build = _from_stored
    else:
        args = (_from_pairs(_expect(payload, "operators", path), (None, own, own), path),)
        build = kraus_set
    count = len(args[0])
    labels = payload.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != count):
        raise FileFormatError(f"{path}: expected a list of {count} labels, got {labels!r}")
    return partial(build, *args, labels=labels)


def save_channel(path, k: KrausSet) -> None:
    _dump_json(path, _channel_payload(k))


def load_channel(path) -> KrausSet:
    """Channel file as a KrausSet, complete within RENORM_TOL."""
    return _stage(_load_json(path), path)(atol=RENORM_TOL)


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


def _protocol(payload, path):
    """(stages, meta) of a protocol payload; each stage must have its dim."""
    dim = _dim(payload, path)
    stages = _expect(payload, "stages", path)
    if not isinstance(stages, list):
        raise FileFormatError(f"{path}: stages must be a list")
    meta = {k: v for k, v in payload.items() if k != "stages"}
    return [_stage(p, path, dim) for p in stages], meta


def load_protocol(path):
    """Returns (stages, meta), each stage complete within RENORM_TOL.
    ``meta`` holds the scalar fields as a dict."""
    stages, meta = _protocol(_load_json(path), path)
    return [stage(atol=RENORM_TOL) for stage in stages], meta


def read_stages(path):
    """(stages, meta) of a protocol file, or of a channel file as one stage
    (meta None). Each stage is checked and decoded as in load_protocol, but
    its KrausSet is built only when the stage is called with a tolerance
    ``atol``, so coherent or incomplete stages can still be reported on."""
    payload = _load_json(path)
    if isinstance(payload, dict) and "stages" in payload:
        return _protocol(payload, path)
    return [_stage(payload, path)], None


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
