"""JSON persistence for states, density matrices, channels, and protocols.

Complex numbers are stored as [re, im] pairs; floats round-trip exactly
through Python's shortest-repr serialization. A Kraus set is written as its
stored form, ``{"dim", "rows", "values"}`` plus ``"labels"`` when some
operator has one: operator n sends column c to row rows[n][c] with amplitude
values[n][c]. Dense ``"operators"`` files, written before this encoding or
by hand, are still read, through ``kraus_set``.

Every number is written as ``repr`` writes it, which is what ``json.dumps``
writes for a finite float or an integer, and each file is the text
``json.dumps`` gives for its payload. States, density matrices and
ensembles go through ``json.dumps`` itself. The stages of a protocol hold
few distinct numbers among many entries (a T-transform stage: two branch
amplitudes off its pair of levels, two trig pairs on it), so Kraus sets are
written by joining words instead: each distinct row, real part and
imaginary part of a file, keyed by its bit pattern so that -0.0 keeps its
sign, is formatted once. Non-finite values, which JSON cannot hold, are
refused before the file is opened. On reading, the compact stages of a
file are decoded together, in one pass over all their operators.
"""

from __future__ import annotations

import json
import warnings
from functools import partial
from itertools import chain

import numpy as np

from .channels import KrausSet, _from_stored, kraus_set
from .errors import FileFormatError, NormalizationError, ParameterError
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


def _write(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _dump_json(path, payload) -> None:
    # json.dumps without indentation runs the C encoder; json.dump, or any
    # indent, streams through the pure-Python one
    _write(path, json.dumps(payload))


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


def _words(a, before="", after="") -> np.ndarray:
    """The JSON word of each entry of a float64 or int64 array, between
    ``before`` and ``after``, as an object array. Each distinct entry,
    keyed by its bit pattern, is formatted once."""
    bits = a.view(np.uint64)
    keys = np.sort(bits)
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    words = [before + w + after for w in map(repr, keys.view(a.dtype).tolist())]
    return np.array(words, dtype=object)[np.searchsorted(keys, bits)]


def _nested(words) -> str:
    """JSON text of a 2-D array of words, as a list of lists."""
    return "[" + ", ".join(["[" + ", ".join(row) + "]" for row in words.tolist()]) + "]"


def _kraus_texts(sets) -> list:
    """The JSON text json.dumps gives for the stored form of each Kraus set,
    {"dim", "rows", "values"} plus "labels" when some operator has one."""
    if not sets:
        return []
    vals = np.concatenate([k.vals.ravel() for k in sets], dtype=complex)
    if not np.isfinite(vals).all():
        raise ParameterError("Kraus values must be finite to be written")
    rows = _words(np.concatenate([k.rows.ravel() for k in sets], dtype=np.int64))
    # a real part opens its [re, im] pair and the imaginary part closes it,
    # so joining the words of an operator with ", " writes its pairs
    pairs = np.empty(2 * vals.size, dtype=object)
    pairs[0::2] = _words(vals.real, before="[")
    pairs[1::2] = _words(vals.imag, after="]")
    texts, start = [], 0
    for k in sets:
        n, d = k.rows.shape
        stop = start + n * d
        text = (f'{{"dim": {d}, "rows": {_nested(rows[start:stop].reshape(n, d))}, '
                f'"values": {_nested(pairs[2 * start:2 * stop].reshape(n, 2 * d))}')
        if any(k.labels):
            text += ', "labels": ' + json.dumps(list(k.labels))
        texts.append(text + "}")
        start = stop
    return texts


def _rows(x, dim, path) -> np.ndarray:
    """Integer array of shape (n, dim) with entries in [0, dim). JSON
    booleans and floats are refused, even where numpy would cast them."""
    try:
        kinds = set(map(type, chain.from_iterable(x)))
        rows = np.array(x, dtype=np.int64) if kinds <= {int} else None
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None or rows.ndim != 2 or rows.shape[1] != dim:
        raise FileFormatError(f"{path}: rows must be {dim} integers per operator")
    if ((rows < 0) | (rows >= dim)).any():
        raise FileFormatError(f"{path}: rows must lie in [0, {dim})")
    return rows


def _stages(payloads, dim, path) -> list:
    """The stages of dimension ``dim`` (a channel file is one stage), each
    checked and decoded. Returns, per stage, the KrausSet constructor with
    its arguments bound; called with the completeness tolerance ``atol`` it
    builds the set. Compact {"rows", "values"} stages go straight to the
    stored form, all of them decoded together and then sliced; dense
    "operators" go through kraus_set, which raises IncoherenceError on a
    coherent operator."""
    stages, stored = [], []
    for payload in payloads:
        own = _dim(payload, path)
        if own != dim:
            raise FileFormatError(f"{path}: a stage of dim {own} in a protocol of dim {dim}")
        if "rows" in payload:
            own_rows, own_values = payload["rows"], _expect(payload, "values", path)
            if not isinstance(own_rows, list) or not own_rows:
                raise FileFormatError(f"{path}: rows must be {dim} integers per operator")
            count = len(own_rows)
            if not isinstance(own_values, list) or len(own_values) != count:
                raise FileFormatError(f"{path}: expected [re, im] pairs for {count} operators")
            stored.append((own_rows, own_values))
            # no operators of its own: its arrays are sliced from the stack
            ops = None
        else:
            ops = _from_pairs(_expect(payload, "operators", path), (None, dim, dim), path)
            count = len(ops)
        labels = payload.get("labels")
        if labels is not None and (not isinstance(labels, list) or len(labels) != count):
            raise FileFormatError(f"{path}: expected a list of {count} labels, got {labels!r}")
        stages.append((ops, count, labels))
    if stored:
        rows = _rows(list(chain.from_iterable(r for r, _ in stored)), dim, path)
        vals = _from_pairs(list(chain.from_iterable(v for _, v in stored)), rows.shape, path)
    built, start = [], 0
    for ops, count, labels in stages:
        if ops is None:
            built.append(partial(_from_stored, rows[start:start + count],
                                 vals[start:start + count], labels=labels))
            start += count
        else:
            built.append(partial(kraus_set, ops, labels=labels))
    return built


def save_channel(path, k: KrausSet) -> None:
    _write(path, _kraus_texts([k])[0])


def load_channel(path) -> KrausSet:
    """Channel file as a KrausSet, complete within RENORM_TOL."""
    payload = _load_json(path)
    return _stages([payload], _dim(payload, path), path)[0](atol=RENORM_TOL)


def save_protocol(path, protocol, report=None) -> None:
    """Protocol plus an optional verification block."""
    head = json.dumps({
        "dim": int(protocol.stages[0].dim) if protocol.stages else 0,
        "success_label": protocol.success_label,
        "probability": float(protocol.probability),
    })
    text = head[:-1] + ', "stages": [' + ", ".join(_kraus_texts(protocol.stages)) + "]"
    if report is not None:
        text += ', "verification": ' + json.dumps({
            "stage_completeness_residuals": list(report.stage_completeness),
            # kraus_set admits incoherent operators only; kept for old readers
            "incoherent": True,
            "composed_success_probability": float(report.success_probability),
            "min_success_fidelity": float(report.min_success_fidelity),
            "branch_count": int(report.branch_count),
            "success_count": int(report.success_count),
        })
    _write(path, text + "}")


def _protocol(payload, path):
    """(stages, meta) of a protocol payload; each stage must have its dim."""
    dim = _dim(payload, path)
    stages = _expect(payload, "stages", path)
    if not isinstance(stages, list):
        raise FileFormatError(f"{path}: stages must be a list")
    meta = {k: v for k, v in payload.items() if k != "stages"}
    return _stages(stages, dim, path), meta


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
