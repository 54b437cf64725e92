"""JSON persistence for states, density matrices, channels, and protocols.

Complex numbers are stored as [re, im] pairs; floats round-trip exactly
through Python's shortest-repr serialization, and each file is the text
``json.dumps`` gives for its payload. A Kraus set is written in run form,
``{"dim", "at", "rows", "values"}`` plus ``"labels"`` when some operator has
one: at[n] lists column 0, each column whose value differs bit for bit from
the one before it (-0.0 from 0.0 too) and each column not on its own row;
rows[n] and values[n] hold their rows and amplitudes. An unlisted column c
has row c and the value of the nearest listed column to its left, so a
T-transform stage takes a few words. A set with a non-finite value is
refused before the file is opened. The run-form stages of a file are
decoded as one stack, at most STAGE_CAP entries beyond two operators; each
is a KrausSet of its slice. Dense ``"operators"`` stages, the only form of
a coherent channel, are still read. The loaders check all stages in one
pass, with ``channels._require_complete``'s rule, complete within
RENORM_TOL; the first failing stage in file order raises.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict
from itertools import chain

import numpy as np

from .channels import STAGE_CAP, KrausSet, _require_complete, _require_stages, _stored
from .errors import (
    DimensionMismatchError,
    FileFormatError,
    IncoherenceError,
    NormalizationError,
    ParameterError,
    ResourceLimitError,
)
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
    leading None in ``shape`` admits any count. Signed zeros survive. Only
    JSON ints and floats are numbers: strings and booleans are refused,
    even where numpy would cast them."""
    level, got = [x], []
    for n in (*shape, 2):
        # one length, the wanted one, at every level; a string or an object
        # in place of a list passes here, but yields strings as numbers
        try:
            sizes = set(map(len, level))
        except TypeError:
            sizes = set()
        if len(sizes) != 1 or n not in (None, *sizes):
            raise FileFormatError(f"{path}: expected [re, im] pairs of shape {shape}")
        got.append(sizes.pop())
        level = list(chain.from_iterable(level))
    kinds = set(map(type, level)) - {int, float}
    if kinds:
        names = ", ".join(sorted(k.__name__ for k in kinds))
        raise FileFormatError(f"{path}: [re, im] pairs must hold JSON numbers, got {names}")
    try:
        a = np.array(level, dtype=float).reshape(got)
    except OverflowError as exc:
        raise FileFormatError(f"{path}: number out of range ({exc})") from exc
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
    text = json.dumps(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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


def _runs(sets) -> list:
    """The run-form payload of each Kraus set, all of them encoded together.
    An operator lists column 0, each column whose value differs bit for bit
    from the one before it, and each column whose row is not its own."""
    if not sets:
        return []
    dim = sets[0].dim
    if any(k.dim != dim for k in sets):
        raise DimensionMismatchError("Kraus sets of one file must share their dimension")
    rows = np.concatenate([k.rows for k in sets])
    # concatenating keeps a lone Fortran-ordered set's layout; the bit view
    # below needs C order
    vals = np.ascontiguousarray(np.concatenate([k.vals for k in sets], dtype=complex))
    if not np.isfinite(vals).all():
        raise ParameterError("Kraus values must be finite to be written")
    bits = vals.view(np.uint64).reshape(*vals.shape, 2)
    listed = rows != np.arange(dim)
    listed[:, 0] = True
    listed[:, 1:] |= (bits[:, 1:] != bits[:, :-1]).any(axis=2)
    at, rows, pairs = np.nonzero(listed)[1].tolist(), rows[listed].tolist(), _to_pairs(vals[listed])
    ends = np.cumsum(listed.sum(axis=1)).tolist()
    at, rows, pairs = ([f[a:b] for a, b in zip([0] + ends, ends)] for f in (at, rows, pairs))
    payloads, bounds = [], np.cumsum([0] + [len(k) for k in sets]).tolist()
    for k, a, b in zip(sets, bounds, bounds[1:]):
        payloads.append({"dim": dim, "at": at[a:b], "rows": rows[a:b], "values": pairs[a:b]})
        if any(k.labels):
            payloads[-1]["labels"] = list(k.labels)
    return payloads


def _ints(x, dim, path, what) -> np.ndarray:
    """int64 array of the JSON integers ``x``, each in [0, dim). JSON
    booleans and floats are refused, even where numpy would cast them."""
    try:
        a = np.array(x, dtype=np.int64) if set(map(type, x)) <= {int} else None
    except OverflowError:
        a = None
    if a is None or ((a < 0) | (a >= dim)).any():
        raise FileFormatError(f"{path}: {what} must be integers in [0, {dim})")
    return a


def _expand(ops, dim, path):
    """(rows, vals) of shape (n, dim) from the (at, rows, values) runs of n
    operators: an unlisted column c has row c and the value of the nearest
    listed column to its left."""
    # a protocol's chain fills at most STAGE_CAP entries and its filter adds
    # two operators; a file of a few bytes must not allocate more
    if max(len(ops) - 2, 1) * dim > STAGE_CAP:
        raise ResourceLimitError(f"{path}: {len(ops)} x {dim} stored entries exceed the cap of {STAGE_CAP}")
    for op in ops:
        if not all(isinstance(f, list) for f in op) or len(set(map(len, op))) != 1:
            raise FileFormatError(f"{path}: at, rows and values must be lists of one length per operator")
    at, rows, vals = (list(chain.from_iterable(f)) for f in zip(*ops))
    counts = np.array([len(op[0]) for op in ops])
    at = _ints(at, dim, path, "columns")
    first = np.cumsum(counts) - counts
    keys = np.repeat(np.arange(len(ops)) * dim, counts) + at
    if not counts.all() or at[first].any() or (keys[1:] <= keys[:-1]).any():
        raise FileFormatError(f"{path}: the columns of each operator must start at 0 and increase")
    full = np.tile(np.arange(dim), (len(ops), 1))
    np.put(full, keys, _ints(rows, dim, path, "rows"))
    # each listed value runs up to the next listed column
    vals = np.repeat(_from_pairs(vals, (keys.size,), path), np.diff(keys, append=full.size))
    return full, vals.reshape(full.shape)


def _stages(payloads, dim, path) -> list:
    """The stages of dimension ``dim`` (a channel file is one stage) as
    KrausSets, unchecked, a coherent dense stage as its IncoherenceError;
    a run-form stage is a slice of the one decoded stack."""
    stages, stored = [], []
    for payload in payloads:
        own = _dim(payload, path)
        if own != dim:
            raise FileFormatError(f"{path}: a stage of dim {own} in a protocol of dim {dim}")
        if "operators" in payload:
            ops = _from_pairs(payload["operators"], (None, dim, dim), path)
            count = len(ops)
        else:
            runs = [_expect(payload, key, path) for key in ("at", "rows", "values")]
            count = len(runs[0]) if isinstance(runs[0], list) else 0
            if not count or not all(isinstance(f, list) and len(f) == count for f in runs):
                raise FileFormatError(f"{path}: at, rows and values must list the same operators")
            stored.extend(zip(*runs))
            # no operators of its own: its arrays are sliced from the stack
            ops = None
        labels = payload.get("labels")
        if labels is not None and (not isinstance(labels, list) or len(labels) != count
                                   or not all(isinstance(s, str) for s in labels)):
            raise FileFormatError(f"{path}: expected a list of {count} strings as labels, got {labels!r}")
        stages.append((ops, count, labels))
    if stored:
        rows, vals = _expand(stored, dim, path)
    built, start = [], 0
    for ops, count, labels in stages:
        if ops is None:
            built.append(KrausSet(rows[start:start + count], vals[start:start + count], labels))
            start += count
        else:
            try:
                built.append(KrausSet(*_stored(ops), labels))
            except IncoherenceError as exc:
                built.append(exc)
    return built


def save_channel(path, k: KrausSet) -> None:
    _dump_json(path, _runs([k])[0])


def load_channel(path) -> KrausSet:
    """Channel file as a KrausSet, complete within RENORM_TOL."""
    payload = _load_json(path)
    return _require_complete(_stages([payload], _dim(payload, path), path)[0], RENORM_TOL, f"{path}: ")


def save_protocol(path, protocol, report=None) -> None:
    """Protocol plus an optional verification block, the ProtocolReport's
    fields under their own names."""
    payload = {
        "dim": int(protocol.stages[0].dim) if protocol.stages else 0,
        "success_label": protocol.success_label,
        "probability": float(protocol.probability),
        "stages": _runs(protocol.stages),
    }
    if report is not None:
        payload["verification"] = asdict(report)
    _dump_json(path, payload)


def _protocol(payload, path):
    """(stages, meta) of a protocol payload; each stage must have its dim."""
    dim = _dim(payload, path)
    stages = _expect(payload, "stages", path)
    if not isinstance(stages, list):
        raise FileFormatError(f"{path}: stages must be a list")
    label, p = (_expect(payload, key, path) for key in ("success_label", "probability"))
    if not isinstance(label, str) or type(p) not in (int, float) or not abs(p) < np.inf:
        raise FileFormatError(f"{path}: expected a string success_label and a finite number as "
                              f"probability, got {label!r} and {p!r}")
    meta = {k: v for k, v in payload.items() if k != "stages"}
    return _stages(stages, dim, path), meta


def load_protocol(path):
    """Returns (stages, meta), each stage complete within RENORM_TOL.
    ``meta`` holds the scalar fields as a dict."""
    stages, meta = _protocol(_load_json(path), path)
    _require_stages(stages, RENORM_TOL, f"{path}: ")
    return stages, meta


def read_stages(path):
    """(stages, meta) of a protocol file, or of a channel file as one stage
    (meta None), decoded as in load_protocol but unchecked, a coherent dense
    stage as its IncoherenceError, so that both can still be reported on."""
    payload = _load_json(path)
    if isinstance(payload, dict) and "stages" in payload:
        return _protocol(payload, path)
    return _stages([payload], _dim(payload, path), path), None


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
