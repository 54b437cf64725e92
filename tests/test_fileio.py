import dataclasses
import json
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcohere import (
    CompletenessError,
    DensityMatrixError,
    DimensionMismatchError,
    FileFormatError,
    IncoherenceError,
    KrausSet,
    NormalizationError,
    ParameterError,
    Protocol,
    ProtocolReport,
    ResourceLimitError,
    apply_selective,
    builtin,
    compose,
    convex_roof_upper,
    is_complete,
    kraus_set,
    load_channel,
    load_density,
    load_protocol,
    load_state,
    optimal_protocol,
    pure_density,
    pure_state,
    save_channel,
    save_density,
    save_ensemble,
    save_protocol,
    save_state,
    verify_protocol,
)
from qcohere import conversion, fileio
from qcohere.channels import IncoherenceWitness, _require_complete
from qcohere.cli import main
from qcohere.fileio import read_stages
from randgen import _merge_pair, random_incoherent_kraus, random_pure_state


def test_state_round_trip_bit_exact(tmp_path):
    path = tmp_path / "state.json"
    psi = pure_state([0.6, 0.8j])
    save_state(path, psi)
    back = load_state(path)
    assert np.array_equal(back, psi)

    rng = np.random.default_rng(4)
    for _ in range(20):
        psi = random_pure_state(rng, int(rng.integers(2, 8)))
        save_state(path, psi)
        assert np.abs(load_state(path) - psi).max() < 1e-15


def test_state_renormalizes_with_warning(tmp_path):
    path = tmp_path / "state.json"
    scale = 1.0 + 2e-7
    payload = {
        "dim": 2,
        "amplitudes": [[0.6 * scale, 0.0], [0.0, 0.8 * scale]],
    }
    path.write_text(json.dumps(payload))
    with pytest.warns(UserWarning):
        psi = load_state(path)
    n2 = float((np.abs(psi) ** 2).sum())
    assert abs(n2 - 1.0) < 1e-12
    assert abs(psi[0].real - 0.6) < 1e-6


def test_state_rejects_bad_files(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2, "amplitudes": [[1.0, 0.0], [0.1, 0.0]]}))
    with pytest.raises(NormalizationError):
        load_state(path)
    path.write_text(json.dumps({"dim": 3, "amplitudes": [[1.0, 0.0]]}))
    with pytest.raises(FileFormatError):
        load_state(path)
    path.write_text(json.dumps({"amplitudes": [[1.0, 0.0]]}))
    with pytest.raises(FileFormatError):
        load_state(path)
    path.write_text(json.dumps({"dim": 1, "amplitudes": [[1.0]]}))
    with pytest.raises(FileFormatError):
        load_state(path)
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_state(path)


# each file breaks one number or the dim of a valid qubit state
MALFORMED_STATES = {
    "null entry": {"dim": 2, "amplitudes": [[1.0, None], [0, 0]]},
    "string entry": {"dim": 2, "amplitudes": [["a", 0], [0, 0]]},
    "nested entry": {"dim": 2, "amplitudes": [[1.0, [0]], [0, 0]]},
    # numpy would cast these three to a unit state
    "numeric string entry": {"dim": 2, "amplitudes": [["0.6", 0], [0.8, 0]]},
    "boolean entry": {"dim": 2, "amplitudes": [[0.6, False], [0.8, 0]]},
    "boolean amplitude": {"dim": 1, "amplitudes": [[True, 0]]},
    # too large for a float: numpy raises OverflowError
    "huge integer entry": {"dim": 2, "amplitudes": [[10**400, 0], [0, 0]]},
    "ragged pairs": {"dim": 2, "amplitudes": [[1.0, 0.0], [0.0]]},
    "string dim": {"dim": "two", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
    "fractional dim": {"dim": 2.5, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
    "boolean dim": {"dim": True, "amplitudes": [[1.0, 0.0]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_STATES))
def test_malformed_numbers_raise_file_format_error(tmp_path, capsys, name):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(MALFORMED_STATES[name]))
    with pytest.raises(FileFormatError):
        load_state(path)
    assert main(["measure", "--state", str(path), "--functional", "shannon"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_operators_raise_file_format_error(tmp_path):
    path = tmp_path / "channel.json"
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    for ops in ([], [[[1.0, 0.0]]], [eye, [[[1.0, None], [0.0, 0.0]], eye[1]]],
                [[[[True, 0.0], [0.0, 0.0]], eye[1]]], [[eye[0], [[0.0, 0.0], ["1.0", 0.0]]]]):
        path.write_text(json.dumps({"dim": 2, "operators": ops}))
        with pytest.raises(FileFormatError):
            load_channel(path)
    # labels in a file are JSON strings; null or 5 is not read as "None" or "5"
    for payload in ({"dim": 2.0, "operators": [eye]},
                    {"dim": 2, "operators": [eye], "labels": ["a", "b"]},
                    {"dim": 2, "operators": [eye], "labels": 5},
                    {"dim": 2, "operators": [eye], "labels": [None]},
                    {"dim": 2, "operators": [eye], "labels": [5]},
                    {"dim": 2, "operators": [eye], "labels": [True]}):
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError):
            load_channel(path)


# each file breaks one field of a valid run-form identity; the qubit one,
# {"dim": 2, "at": [[0]], "rows": [[0]], "values": [[[1.0, 0.0]]]}, lists
# column 0 alone, as the writer does, and column 1 takes row 1 and value 1
ONE = [[1.0, 0.0], [1.0, 0.0]]
V = [1.0, 0.0]
MALFORMED_COMPACT = {
    "float rows": {"dim": 2, "at": [[0]], "rows": [[0.0]], "values": [[V]]},
    "bool rows": {"dim": 2, "at": [[0, 1]], "rows": [[0, True]], "values": [ONE]},
    "negative row": {"dim": 2, "at": [[0]], "rows": [[-1]], "values": [[V]]},
    "row at dim": {"dim": 2, "at": [[0, 1]], "rows": [[0, 2]], "values": [ONE]},
    "ragged rows": {"dim": 2, "at": [[0], [0]], "rows": [[0], []], "values": [[V], [V]]},
    "nested row": {"dim": 2, "at": [[0]], "rows": [[[0]]], "values": [[V]]},
    "no operators": {"dim": 2, "at": [], "rows": [], "values": []},
    "empty operator": {"dim": 2, "at": [[]], "rows": [[]], "values": [[]]},
    "zero dim": {"dim": 0, "at": [[]], "rows": [[]], "values": [[]]},
    "shape mismatch": {"dim": 2, "at": [[0], [0]], "rows": [[0], [0]], "values": [[V]]},
    "missing values": {"dim": 2, "at": [[0]], "rows": [[0]]},
    # the per-entry form of earlier files has no second reader
    "missing at": {"dim": 2, "rows": [[0, 1]], "values": [ONE]},
    "non-finite value": {"dim": 2, "at": [[0, 1]], "rows": [[0, 1]], "values": [[V, [float("inf"), 0.0]]]},
    # numpy would cast these to the identity
    "string and bool values": {"dim": 2, "at": [[0]], "rows": [[0]], "values": [[["1.0", False]]]},
    "wrong label count": {"dim": 2, "at": [[0]], "rows": [[0]], "values": [[V]], "labels": ["a", "b"]},
    "null label": {"dim": 2, "at": [[0]], "rows": [[0]], "values": [[V]], "labels": [None]},
    "number label": {"dim": 2, "at": [[0]], "rows": [[0]], "values": [[V]], "labels": [5]},
    "columns not from 0": {"dim": 2, "at": [[1]], "rows": [[1]], "values": [[V]]},
    "unsorted columns": {"dim": 3, "at": [[0, 2, 1]], "rows": [[0, 2, 1]], "values": [[V, V, V]]},
    "duplicate column": {"dim": 2, "at": [[0, 0]], "rows": [[0, 0]], "values": [[V, V]]},
    "column at dim": {"dim": 2, "at": [[0, 2]], "rows": [[0, 1]], "values": [ONE]},
    "negative column": {"dim": 2, "at": [[0, -1]], "rows": [[0, 1]], "values": [ONE]},
    "huge column": {"dim": 2, "at": [[0, 10**30]], "rows": [[0, 1]], "values": [ONE]},
    "float column": {"dim": 2, "at": [[0.0]], "rows": [[0]], "values": [[V]]},
    "bool column": {"dim": 2, "at": [[False]], "rows": [[0]], "values": [[V]]},
    "more columns than rows": {"dim": 2, "at": [[0, 1]], "rows": [[0]], "values": [ONE]},
    "more columns than values": {"dim": 2, "at": [[0, 1]], "rows": [[0, 1]], "values": [[V]]},
    "more rows than columns": {"dim": 2, "at": [[0]], "rows": [[0, 1]], "values": [[V]]},
    # not a list of columns: numpy and len() would raise TypeError
    "number in place of columns": {"dim": 2, "at": [5], "rows": [[0]], "values": [[V]]},
    "number in place of values": {"dim": 2, "at": [[0]], "rows": [[0]], "values": [5]},
    "string in place of columns": {"dim": 2, "at": ["0"], "rows": [[0]], "values": [[V]]},
    "number in place of the column lists": {"dim": 2, "at": 0, "rows": [[0]], "values": [[V]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_COMPACT))
def test_malformed_compact_channels_raise_file_format_error(tmp_path, capsys, name):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(MALFORMED_COMPACT[name]))
    with pytest.raises(FileFormatError):
        load_channel(path)
    assert main(["verify-channel", "--channel", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_compact_identity_loads(tmp_path):
    # the valid files the MALFORMED_COMPACT cases break; listing a column
    # the writer leaves out changes nothing
    path = tmp_path / "channel.json"
    for payload in ({"dim": 2, "at": [[0]], "rows": [[0]], "values": [[V]]},
                    {"dim": 2, "at": [[0, 1]], "rows": [[0, 1]], "values": [ONE]},
                    {"dim": 3, "at": [[0]], "rows": [[0]], "values": [[V]]}):
        path.write_text(json.dumps(payload))
        ks = load_channel(path)
        assert np.array_equal(ks.operators[0], np.eye(payload["dim"]))
    # a swap lists both columns, each off its own row
    path.write_text(json.dumps({"dim": 2, "at": [[0, 1]], "rows": [[1, 0]], "values": [ONE]}))
    assert np.array_equal(load_channel(path).operators[0], [[0, 1], [1, 0]])


@st.composite
def kraus_sets(draw):
    """Complete incoherent Kraus sets: permutations scaled by square roots of
    small integer weights (zero weights give zero columns) times units with
    signed zero parts, optionally composed with a merge pair that sends two
    columns to one row."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    ints = st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), min_size=n, max_size=n)
    w = np.array(draw(ints), dtype=float)
    w[0, w.sum(axis=0) == 0] = 1.0
    mag = np.sqrt(w / w.sum(axis=0))
    units = np.array([1.0, 1j, -1.0, -1j, complex(-0.0, 1.0), complex(1.0, -0.0),
                      complex(-1.0, -0.0), complex(-0.0, -1.0)])
    unit = units[np.array(draw(st.lists(st.lists(st.integers(0, 7), min_size=d, max_size=d),
                                        min_size=n, max_size=n)))]
    vals = np.empty((n, d), dtype=complex)
    vals.real, vals.imag = mag * unit.real, mag * unit.imag
    ops = []
    for m in range(n):
        k = np.zeros((d, d), dtype=complex)
        k[draw(st.permutations(range(d))), np.arange(d)] = vals[m]
        ops.append(k)
    if d >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        a, b = _merge_pair(d, i, j)
        ops = [a @ k for k in ops] + [b @ k for k in ops]
    labels = draw(st.lists(st.sampled_from(["", "a", "success", "fail.2"]),
                           min_size=len(ops), max_size=len(ops)))
    return kraus_set(ops, labels=labels)


def _merged_signed():
    """Columns 1 and 2 both go to row 1 in each operator; column 3 is zero in
    the first operator and -0.0 - 1j in the second."""
    r = 1.0 / np.sqrt(2.0)
    a = np.array([[r, r, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    b = np.array([[r, -r, 0.0], [0.0, 0.0, complex(-0.0, -1.0)], [0.0, 0.0, 0.0]])
    return kraus_set([a, b], labels=["", "b"])


def _same(a, b):
    return (a.rows.dtype == b.rows.dtype and a.rows.tobytes() == b.rows.tobytes()
            and a.vals.dtype == b.vals.dtype and a.vals.tobytes() == b.vals.tobytes()
            and a.labels == b.labels)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kraus_sets())
@example(_merged_signed())
def test_channel_round_trip_bit_identical(tmp_path_factory, ks):
    path = tmp_path_factory.getbasetemp() / "round-trip.json"
    save_channel(path, ks)
    assert _same(load_channel(path), ks)


def test_channel_file_does_not_depend_on_memory_layout(tmp_path):
    # a Fortran-ordered set, or a transposed view, made the run-form
    # writer raise numpy's bare ValueError while is_complete accepted it
    rng = np.random.default_rng(23)
    sets = [_merged_signed()] + [random_incoherent_kraus(rng, d) for d in (2, 3, 5)]
    for ks in sets:
        fortran = KrausSet(np.asfortranarray(ks.rows), np.asfortranarray(ks.vals), ks.labels)
        transposed = KrausSet(ks.rows.T.copy().T, ks.vals.T.copy().T, ks.labels)
        assert not fortran.vals.flags.c_contiguous or len(ks) == 1
        assert is_complete(fortran)[0]
        save_channel(tmp_path / "c.json", ks)
        for other in (fortran, transposed):
            save_channel(tmp_path / "other.json", other)
            assert (tmp_path / "other.json").read_bytes() == (tmp_path / "c.json").read_bytes()
        save_protocol(tmp_path / "p.json", Protocol((fortran,), "", 1.0))
        save_protocol(tmp_path / "q.json", Protocol((ks,), "", 1.0))
        assert (tmp_path / "p.json").read_bytes() == (tmp_path / "q.json").read_bytes()


def _dense_payload(ks):
    """A channel as the dense encoder wrote it: every operator as a d x d
    matrix of [re, im] pairs."""
    payload = {"dim": ks.dim, "operators": np.stack(
        (np.real(ks.operators), np.imag(ks.operators)), -1).tolist()}
    if any(ks.labels):
        payload["labels"] = list(ks.labels)
    return payload


def test_dense_files_still_load(tmp_path, capsys):
    path = tmp_path / "dense.json"
    rng = np.random.default_rng(17)
    sets = [_merged_signed()] + [random_incoherent_kraus(rng, int(rng.integers(1, 6)))
                                 for _ in range(20)]
    for ks in sets:
        path.write_text(json.dumps(_dense_payload(ks)))
        assert _same(load_channel(path), ks)

    psi = np.sqrt([0.8, 0.1, 0.1]).astype(complex)
    phi = np.sqrt([0.4, 0.3, 0.3]).astype(complex)
    protocol = optimal_protocol(psi, phi)
    path.write_text(json.dumps({
        "dim": 3, "success_label": protocol.success_label,
        "probability": protocol.probability,
        "stages": [_dense_payload(s) for s in protocol.stages],
    }))
    stages, meta = load_protocol(path)
    assert meta["probability"] == protocol.probability
    assert len(stages) == len(protocol.stages)
    assert all(_same(a, b) for a, b in zip(stages, protocol.stages))
    # verify-channel reports the same on the dense and the compact file
    assert main(["verify-channel", "--channel", str(path)]) == 0
    dense_out = capsys.readouterr().out
    save_protocol(path, protocol)
    assert main(["verify-channel", "--channel", str(path)]) == 0
    assert capsys.readouterr().out == dense_out


def _protocol_payload(path, psi, phi):
    save_protocol(path, optimal_protocol(psi, phi))
    return json.loads(path.read_text())


def test_protocol_stage_dims_must_match(tmp_path, capsys):
    path = tmp_path / "protocol.json"
    qubit = _protocol_payload(path, np.sqrt([0.9, 0.1]), np.sqrt([0.6, 0.4]))
    three = _protocol_payload(path, np.sqrt([0.8, 0.1, 0.1]), np.sqrt([0.4, 0.3, 0.3]))
    assert qubit["dim"] == 2 and three["dim"] == 3 and qubit["stages"] and three["stages"]
    extra = dict(three, stages=three["stages"] + qubit["stages"][:1])
    wide = dict(three, dim=7)
    # not a stage list at all
    scalar = dict(three, stages=5)
    for payload in (extra, wide, scalar):
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError):
            load_protocol(path)
        assert main(["verify-channel", "--channel", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "[ok]" not in captured.out


def test_empty_protocol_has_dim_zero(tmp_path):
    # probability zero: no stages
    path = tmp_path / "protocol.json"
    protocol = optimal_protocol([1.0, 0.0, 0.0], np.full(3, 1.0 / np.sqrt(3.0)))
    assert not protocol.stages
    save_protocol(path, protocol)
    stages, meta = load_protocol(path)
    assert stages == [] and meta["dim"] == 0


def test_written_files_keep_the_run_encoding(tmp_path):
    # states and densities hold one [float(re), float(im)] pair per entry,
    # signed zeros included; a Kraus set holds the runs of each operator
    def pairs(a):
        a = np.asarray(a, dtype=complex)
        if a.ndim == 1:
            return [[float(z.real), float(z.imag)] for z in a]
        return [pairs(row) for row in a]

    def expect(path, payload):
        assert path.read_text(encoding="utf-8") == json.dumps(payload) + "\n"

    path = tmp_path / "file.json"
    psi = pure_state(np.array([0.6, -0.0, 0.8j]) * 1j)
    save_state(path, psi)
    expect(path, {"dim": 3, "amplitudes": pairs(psi)})
    rho = pure_density(psi)
    save_density(path, rho)
    expect(path, {"dim": 3, "matrix": pairs(rho)})
    ks = kraus_set([np.diag([1.0, 0.6, 0.0]), np.diag([0.0, -0.8j, 1.0])], labels=["", "b"])
    save_channel(path, ks)
    # every column sits on its own row, so only a change of value is listed
    expect(path, {"dim": 3, "at": [[0, 1, 2], [0, 1, 2]], "rows": [[0, 1, 2], [0, 1, 2]],
                  "values": pairs(ks.vals), "labels": ["", "b"]})
    r = 1.0 / np.sqrt(2.0)
    merge = kraus_set([[[1, 0, 0, 0], [0, r, r, 0], [0, 0, 0, 0], [0, 0, 0, r]],
                       [[0, 0, 0, 0], [0, r, -r, 0], [0, 0, 0, 0], [0, 0, 0, r]]])
    save_channel(path, merge)
    # column 2 is listed for its row; column 3 repeats column 2's value in
    # the first operator only
    expect(path, {"dim": 4, "at": [[0, 1, 2], [0, 1, 2, 3]], "rows": [[0, 1, 1], [0, 1, 1, 3]],
                  "values": [[[1.0, 0.0], [r, 0.0], [r, 0.0]],
                             [[0.0, 0.0], [r, 0.0], [-r, 0.0], [r, 0.0]]]})
    # -0.0 differs from 0.0 bit for bit
    signed = KrausSet(rows=np.array([[0, 1, 2]]), vals=np.array([[1j, complex(-0.0, 1.0), complex(-0.0, 1.0)]]),
                      labels=("",))
    save_channel(path, signed)
    expect(path, {"dim": 3, "at": [[0, 1]], "rows": [[0, 1]],
                  "values": [[[0.0, 1.0], [-0.0, 1.0]]]})


# the writer's reference: the run form built column by column, with the
# ProtocolReport fields under their own names, through json.dumps
def _reference_channel(ks):
    at, rows, values = [], [], []
    for r, v in zip(ks.rows.tolist(), ks.vals.tolist()):
        bits = [struct.pack("<dd", z.real, z.imag) for z in v]
        cols = [c for c in range(ks.dim) if c == 0 or r[c] != c or bits[c] != bits[c - 1]]
        at.append(cols)
        rows.append([r[c] for c in cols])
        values.append([[v[c].real, v[c].imag] for c in cols])
    payload = {"dim": int(ks.dim), "at": at, "rows": rows, "values": values}
    if any(ks.labels):
        payload["labels"] = list(ks.labels)
    return payload


def _reference_protocol(protocol, report=None):
    payload = {
        "dim": int(protocol.stages[0].dim) if protocol.stages else 0,
        "success_label": protocol.success_label,
        "probability": float(protocol.probability),
        "stages": [_reference_channel(stage) for stage in protocol.stages],
    }
    if report is not None:
        payload["verification"] = {
            "stage_completeness": list(report.stage_completeness),
            "success_probability": float(report.success_probability),
            "declared_probability": float(report.declared_probability),
            "min_success_fidelity": float(report.min_success_fidelity),
            "branch_count": int(report.branch_count),
            "success_count": int(report.success_count),
        }
    return json.dumps(payload) + "\n"


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
               1e-300, -1e-300, 1e300, -1.7976931348623157e308, 1.0, -0.5, 0.1)
LABELS = ("", "a", "success", 'say "hi"', "tab\t back\\slash", "\u00e9t\u00e9 \u2603", "fail.2")


@st.composite
def stored_sets(draw, d):
    """Kraus sets built directly from stored arrays, complete or not: rows
    anywhere in [0, d), values all one number, all distinct, or drawn from
    edge cases (signed zeros, subnormals, magnitudes near 1e-300 and 1e300)
    and arbitrary finite floats."""
    n = draw(st.integers(1, 4))
    rows = np.array(draw(st.lists(st.lists(st.integers(0, d - 1), min_size=d, max_size=d),
                                  min_size=n, max_size=n)), dtype=np.int64)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["repeated", "distinct", "edge"]))
    if kind == "repeated":
        parts = draw(st.lists(st.sampled_from(EDGE_FLOATS) | finite, min_size=2, max_size=2)) * (n * d)
    elif kind == "distinct":
        parts = draw(st.lists(finite, min_size=2 * n * d, max_size=2 * n * d, unique=True))
    else:
        parts = draw(st.lists(st.sampled_from(EDGE_FLOATS) | finite, min_size=2 * n * d,
                              max_size=2 * n * d))
    vals = np.array(parts, dtype=float).view(complex).reshape(n, d)
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    return KrausSet(rows=rows, vals=vals, labels=tuple(labels))


def _decoded(path):
    """The (rows, values) the run-form decoder gives for each stage of a
    file, before a KrausSet moves its stored zeros."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    stages = payload["stages"] if "stages" in payload else [payload]
    if not stages:
        return []
    ops = [op for stage in stages for op in zip(stage["at"], stage["rows"], stage["values"])]
    rows, vals = fileio._expand(ops, payload["dim"], path)
    bounds = np.cumsum([0] + [len(stage["at"]) for stage in stages]).tolist()
    return [(rows[a:b], vals[a:b]) for a, b in zip(bounds, bounds[1:])]


def _read_back(path, sets):
    """read_stages gives, unchecked, the KrausSets built from the stored
    arrays of ``sets``, bit for bit."""
    stages, _ = read_stages(path)
    want = [KrausSet(k.rows, k.vals, k.labels) for k in sets]
    return len(stages) == len(want) and all(
        _same_stored((a.rows, a.vals), b) and a.labels == b.labels for a, b in zip(stages, want)
    )


def _same_stored(args, ks):
    rows, vals = args
    return (rows.dtype == ks.rows.dtype and rows.tobytes() == ks.rows.tobytes()
            and vals.dtype == ks.vals.dtype and vals.tobytes() == ks.vals.tobytes())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(stored_sets))
def test_channel_writer_matches_json_dumps(tmp_path_factory, ks):
    path = tmp_path_factory.getbasetemp() / "writer.json"
    save_channel(path, ks)
    assert path.read_text(encoding="utf-8") == json.dumps(_reference_channel(ks)) + "\n"
    assert _same_stored(*_decoded(path), ks)
    assert _read_back(path, [ks])


@st.composite
def stored_protocols(draw):
    d = draw(st.integers(1, 4))
    stages = tuple(draw(st.lists(stored_sets(d), max_size=4)))
    label = draw(st.sampled_from(LABELS))
    probability = draw(st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1.0))
    report = None
    if draw(st.booleans()):
        residual = st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1e-6)
        report = ProtocolReport(
            stage_completeness=tuple(draw(st.lists(residual, min_size=len(stages),
                                                   max_size=len(stages)))),
            success_probability=draw(st.floats(0.0, 1.0)),
            declared_probability=probability,
            min_success_fidelity=draw(st.floats(0.0, 1.0)),
            branch_count=draw(st.integers(0, 4)),
            success_count=draw(st.integers(0, 4)),
        )
    return Protocol(stages=stages, success_label=label, probability=probability), report


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stored_protocols())
def test_protocol_writer_matches_json_dumps(tmp_path_factory, drawn):
    protocol, report = drawn
    path = tmp_path_factory.getbasetemp() / "writer.json"
    save_protocol(path, protocol, report)
    assert path.read_text(encoding="utf-8") == _reference_protocol(protocol, report)
    decoded = _decoded(path)
    assert len(decoded) == len(protocol.stages)
    assert all(_same_stored(args, ks) for args, ks in zip(decoded, protocol.stages))
    assert _read_back(path, protocol.stages)


def test_protocol_writer_matches_json_dumps_on_built_protocols(tmp_path):
    # optimal protocols repeat few numbers across many entries; the last
    # stages carry labels
    path = tmp_path / "protocol.json"
    rng = np.random.default_rng(23)
    for d in (2, 5, 16):
        psi, phi = random_pure_state(rng, d), random_pure_state(rng, d)
        protocol = optimal_protocol(psi, phi)
        for report in (None, verify_protocol(protocol, psi, phi)):
            save_protocol(path, protocol, report)
            assert path.read_text(encoding="utf-8") == _reference_protocol(protocol, report)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_kraus_values_are_refused_before_writing(tmp_path, bad):
    ks = KrausSet(rows=np.array([[0, 1]]), vals=np.array([[1.0, complex(0.0, bad)]]),
                  labels=("",))
    path = tmp_path / "channel.json"
    with pytest.raises(ParameterError):
        save_channel(path, ks)
    with pytest.raises(ParameterError):
        save_protocol(path, Protocol(stages=(ks,), success_label="success", probability=1.0))
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0, 2), (1, 0), (0, 0)])
def test_kraus_sets_without_entries_are_refused_before_writing(tmp_path, shape):
    # a set with no operators was written, and its own loaders refused the
    # file: "at, rows and values must list the same operators"; such a set
    # can no longer be made
    with pytest.raises(DimensionMismatchError, match="n, d >= 1"):
        KrausSet(np.zeros(shape, dtype=int), np.zeros(shape, dtype=complex), ("",) * shape[0])


def test_save_protocol_rejects_stages_of_unequal_dims(tmp_path):
    # load_protocol refuses a stage whose dim is not the protocol's
    path = tmp_path / "protocol.json"
    qubit, qutrit = (kraus_set([np.eye(d)]) for d in (2, 3))
    with pytest.raises(DimensionMismatchError):
        save_protocol(path, Protocol(stages=(qubit, qutrit), success_label="success",
                                     probability=1.0))
    assert not path.exists()


@pytest.mark.wallclock
def test_protocol_file_d1024_is_small_and_fast(tmp_path):
    # a chain stage is a scaled identity off its two levels and takes a few
    # words: about 0.6 MB, loaded in about 0.2 s on a 2-CPU machine
    rng = np.random.default_rng(1024)
    psi, phi = (random_pure_state(rng, 1024, phases=True) for _ in range(2))
    protocol = optimal_protocol(psi, phi)
    path = tmp_path / "protocol.json"
    save_protocol(path, protocol)
    assert path.stat().st_size < 1_000_000
    start = time.perf_counter()
    stages, _ = load_protocol(path)
    elapsed = time.perf_counter() - start
    assert len(stages) == len(protocol.stages) > 1000
    assert all(_same(a, b) for a, b in zip(stages, protocol.stages))
    assert elapsed < 0.5


@pytest.mark.wallclock
def test_protocol_d2048_loads_and_verifies_fast(tmp_path):
    # the completeness pass runs over stacks of at most 2^16 stored entries.
    # In a fresh interpreter on a 2-CPU machine, load plus verify took
    # 0.8-0.9 s; one stack of the whole protocol took 1.5-1.6 s and made
    # verify_protocol peak at 362 MiB, not 3 MiB
    rng = np.random.default_rng(2048)
    psi, phi = (random_pure_state(rng, 2048, phases=True) for _ in range(2))
    protocol = optimal_protocol(psi, phi)
    path = tmp_path / "protocol.json"
    save_protocol(path, protocol)
    start = time.perf_counter()
    stages, _ = load_protocol(path)
    report = verify_protocol(dataclasses.replace(protocol, stages=tuple(stages)), psi, phi)
    elapsed = time.perf_counter() - start
    assert report.passes() and len(stages) > 1900
    tracemalloc.start()
    try:
        verify_protocol(protocol, psi, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert elapsed < 2.0


@pytest.mark.wallclock
def test_decode_refuses_a_huge_dim_before_allocating(tmp_path):
    # 72 bytes declaring 10^8 columns: the decoder asked numpy for 763 MiB
    # of rows before any check; now the stack is measured first
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"dim": 100_000_000, "at": [[0]], "rows": [[0]],
                                "values": [[[1.0, 0.0]]]}))
    assert path.stat().st_size == 72
    tracemalloc.start()
    try:
        start = time.perf_counter()
        for load in (load_channel, read_stages):
            with pytest.raises(ResourceLimitError, match="1 x 100000000 stored entries exceed the cap"):
                load(path)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1 << 20
    assert main(["verify-channel", "--channel", str(path)]) == 1


def test_decode_cap_admits_the_chain_plus_the_filter(tmp_path, monkeypatch):
    # with the cap just fitting a protocol's chain stack, 2 operators for
    # each of its k stages, its file, which adds the filter, still loads
    rng = np.random.default_rng(16)
    d = 16
    psi, phi = (random_pure_state(rng, d, phases=True) for _ in range(2))
    cap = 2 * (len(optimal_protocol(psi, phi).stages) - 1) * d
    monkeypatch.setattr(conversion, "STAGE_CAP", cap)
    monkeypatch.setattr(fileio, "STAGE_CAP", cap)
    protocol = optimal_protocol(psi, phi)
    path = tmp_path / "protocol.json"
    save_protocol(path, protocol)
    stages, _ = load_protocol(path)
    assert all(_same(a, b) for a, b in zip(stages, protocol.stages))
    # the bound is tight: one entry less refuses the file
    n = sum(len(s) for s in protocol.stages)
    assert 0 < (n - 2) * d <= cap
    monkeypatch.setattr(fileio, "STAGE_CAP", (n - 2) * d - 1)
    with pytest.raises(ResourceLimitError, match=f"{n} x {d} stored entries exceed the cap"):
        load_protocol(path)


IDENTITY = {"dim": 2, "at": [[0]], "rows": [[0]], "values": [[V]]}
LISTED = {"dim": 2, "at": [[0, 1]], "rows": [[0, 1]], "values": [ONE]}
# each protocol breaks one stage of a protocol of qubit identities; the
# stages are decoded together, so each fault must still be found per stage
MALFORMED_PROTOCOLS = {
    # the operator counts balance over the file, not per stage
    "unbalanced stages": [{"dim": 2, "at": [[0], [0]], "rows": [[0], [0]], "values": [[V]]},
                          {"dim": 2, "at": [[0]], "rows": [[0]], "values": [[V], [V]]}],
    # the column, row and value counts balance over the file, not per operator
    "unbalanced operators": [dict(LISTED, rows=[[0]]), dict(IDENTITY, rows=[[0, 1]])],
    "stage of another dim": [IDENTITY, {"dim": 3, "at": [[0]], "rows": [[0]], "values": [[V]]}],
    "float row in the last stage": [IDENTITY, IDENTITY, dict(LISTED, rows=[[0, 1.0]])],
    "bool row in the last stage": [IDENTITY, IDENTITY, dict(LISTED, rows=[[0, True]])],
    "row at dim in the last stage": [IDENTITY, IDENTITY, dict(LISTED, rows=[[0, 2]])],
    "float column in the last stage": [IDENTITY, IDENTITY, dict(LISTED, at=[[0, 1.0]])],
    "column at dim in the last stage": [IDENTITY, IDENTITY, dict(LISTED, at=[[0, 2]])],
    "duplicate column in the last stage": [IDENTITY, IDENTITY, dict(LISTED, at=[[0, 0]])],
    # decoded together, the columns of the file still increase
    "last stage not from column 0": [IDENTITY, dict(IDENTITY, at=[[1]], rows=[[1]])],
    "empty middle stage": [IDENTITY, dict(IDENTITY, at=[], rows=[], values=[]), IDENTITY],
    "empty operator in the middle stage": [IDENTITY, dict(IDENTITY, at=[[]], rows=[[]], values=[[]]),
                                           IDENTITY],
    "number in place of columns in the last stage": [IDENTITY, dict(IDENTITY, at=[5])],
    "per-entry middle stage": [IDENTITY, {"dim": 2, "rows": [[0, 1]], "values": [ONE]}, IDENTITY],
    "non-finite last value": [IDENTITY, dict(LISTED, values=[[V, [1.0, float("nan")]]])],
    "bool last value": [IDENTITY, dict(LISTED, values=[[V, [True, 0.0]]])],
    "wrong label count in one stage": [IDENTITY, dict(IDENTITY, labels=["a", "b"]), IDENTITY],
    "null label in one stage": [IDENTITY, dict(IDENTITY, labels=[None]), IDENTITY],
}


@pytest.mark.parametrize("name", sorted(MALFORMED_PROTOCOLS))
def test_malformed_protocol_stages_raise_file_format_error(tmp_path, capsys, name):
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps({"dim": 2, "success_label": "success", "probability": 1.0,
                                "stages": MALFORMED_PROTOCOLS[name]}))
    with pytest.raises(FileFormatError):
        load_protocol(path)
    assert main(["verify-channel", "--channel", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "[ok]" not in captured.out


@pytest.mark.parametrize("field, value", [
    ("probability", "abc"), ("probability", True), ("probability", None), ("probability", [0.5]),
    ("probability", float("nan")), ("probability", float("inf")), ("success_label", 5),
    ("success_label", None), ("success_label", ["success"]), ("success_label", False),
])
def test_protocol_metadata_is_checked(tmp_path, field, value):
    # "probability": "abc" and "success_label": 5 used to load as given
    path = tmp_path / "protocol.json"
    payload = {"dim": 2, "success_label": "success", "probability": 1.0, "stages": [IDENTITY]}
    path.write_text(json.dumps(dict(payload, **{field: value})))
    for load in (load_protocol, read_stages):
        with pytest.raises(FileFormatError, match="a string success_label and a finite number"):
            load(path)
    del payload[field]
    path.write_text(json.dumps(payload))
    with pytest.raises(FileFormatError, match=f"missing key '{field}'"):
        load_protocol(path)
    # an integer probability, the 0 or 1 a hand-written file may hold, loads
    path.write_text(json.dumps(dict(payload, success_label="ok", probability=1)))
    assert load_protocol(path)[1]["probability"] == 1


def test_mixed_compact_and_dense_stages_load_as_alone(tmp_path):
    rng = np.random.default_rng(31)
    psi, phi = random_pure_state(rng, 6), random_pure_state(rng, 6)
    protocol = optimal_protocol(psi, phi)
    assert len(protocol.stages) == 5
    path = tmp_path / "stage.json"
    payloads, alone = [], []
    for n, stage in enumerate(protocol.stages):
        payload = _dense_payload(stage) if n % 2 else _reference_channel(stage)
        path.write_text(json.dumps(payload))
        payloads.append(payload)
        alone.append(load_channel(path))
    path.write_text(json.dumps({"dim": 6, "success_label": protocol.success_label,
                                "probability": protocol.probability, "stages": payloads}))
    stages, _ = load_protocol(path)
    assert len(stages) == len(alone)
    assert all(_same(a, b) and _same(a, c) for a, b, c in zip(stages, alone, protocol.stages))


def test_density_round_trip_bit_exact(tmp_path):
    path = tmp_path / "rho.json"
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    save_density(path, rho)
    assert np.array_equal(load_density(path), rho)
    path.write_text(json.dumps({"dim": 2, "matrix": [[[1.0, 0.0]]]}))
    with pytest.raises(FileFormatError):
        load_density(path)


def test_density_rejects_json_booleans_and_strings(tmp_path, capsys):
    # numpy would cast both files to the 1 x 1 density [[1]]
    path = tmp_path / "rho.json"
    for matrix in ([[[True, False]]], [[["1", 0]]]):
        path.write_text(json.dumps({"dim": 1, "matrix": matrix}))
        with pytest.raises(FileFormatError, match="JSON numbers"):
            load_density(path)
        assert main(["roof", "--density", str(path), "--functional", "shannon"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_density_save_rejects_what_load_rejects(tmp_path):
    # a NaN entry would be written as a bare NaN token
    path = tmp_path / "rho.json"
    with pytest.raises(DensityMatrixError):
        save_density(path, [[float("nan"), 0.0], [0.0, 1.0]])
    assert not path.exists()


def test_channel_round_trip(tmp_path):
    path = tmp_path / "channel.json"
    rng = np.random.default_rng(13)
    ks = random_incoherent_kraus(rng, 3)
    save_channel(path, ks)
    assert "labels" not in json.loads(path.read_text())
    back = load_channel(path)
    assert len(back) == len(ks)
    assert back.labels == ("",) * len(ks)
    for a, b in zip(back.operators, ks.operators):
        assert np.array_equal(a, b)

    labeled = kraus_set(ks.operators, labels=[f"k{n}" for n in range(len(ks))])
    save_channel(path, labeled)
    assert load_channel(path).labels == labeled.labels


def test_channel_load_enforces_completeness(tmp_path):
    path = tmp_path / "broken.json"
    half = (0.5 * np.eye(2)).astype(complex)
    payload = {"dim": 2, "operators": [[[ [z.real, z.imag] for z in row] for row in half]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(CompletenessError):
        load_channel(path)


def test_load_errors_name_the_file_and_the_stage(tmp_path):
    # a completeness error named neither the file nor the stage
    path = tmp_path / "protocol.json"
    psi = np.sqrt([0.8, 0.1, 0.1]).astype(complex)
    phi = np.sqrt([0.4, 0.3, 0.3]).astype(complex)
    save_protocol(path, optimal_protocol(psi, phi))
    payload = json.loads(path.read_text())
    assert len(payload["stages"]) == 2
    last = payload["stages"][1]
    last["values"] = [[[0.5 * re, 0.5 * im] for re, im in op] for op in last["values"]]
    path.write_text(json.dumps(payload))
    with pytest.raises(CompletenessError, match=f"^{re.escape(str(path))}: stage 2 of 2: sum K"):
        load_protocol(path)
    # read_stages leaves the check to its caller, whose error is unprefixed
    stages, _ = read_stages(path)
    with pytest.raises(CompletenessError, match="^sum K"):
        _require_complete(stages[1], fileio.RENORM_TOL)

    # a Hadamard on the first two coordinates, written dense
    h = 1.0 / np.sqrt(2.0)
    had = [[[h, 0.0], [h, 0.0], [0.0, 0.0]], [[h, 0.0], [-h, 0.0], [0.0, 0.0]],
           [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]
    payload["stages"][1] = {"dim": 3, "operators": [had]}
    path.write_text(json.dumps(payload))
    with pytest.raises(IncoherenceError, match=f"^{re.escape(str(path))}: stage 2 of 2: ") as err:
        load_protocol(path)
    assert (err.value.witness.operator, err.value.witness.column) == (1, 1)
    assert err.value.witness.rows == (1, 2)
    # read_stages hands the coherent stage back as its error, unprefixed
    stages, _ = read_stages(path)
    assert isinstance(stages[1], IncoherenceError)
    assert str(stages[1]).startswith("coherent operator: ")
    assert stages[1].witness == err.value.witness

    chan = tmp_path / "channel.json"
    save_channel(chan, kraus_set([np.eye(2)]))
    payload = json.loads(chan.read_text())
    payload["values"] = [[[0.5, 0.0]]]
    chan.write_text(json.dumps(payload))
    with pytest.raises(CompletenessError, match=f"^{re.escape(str(chan))}: sum K"):
        load_channel(chan)


def test_load_errors_come_in_file_order(tmp_path):
    # the stages are checked in one pass, yet the first failing stage in
    # file order raises, whichever of the two checks it fails
    path = tmp_path / "protocol.json"
    psi = np.sqrt([0.8, 0.1, 0.1]).astype(complex)
    phi = np.sqrt([0.4, 0.3, 0.3]).astype(complex)
    save_protocol(path, optimal_protocol(psi, phi))
    payload = json.loads(path.read_text())
    loose = payload["stages"][0]
    loose["values"] = [[[0.5 * re, 0.5 * im] for re, im in op] for op in loose["values"]]
    h = 1.0 / np.sqrt(2.0)
    had = {"dim": 3, "operators": [[[[h, 0.0], [h, 0.0], [0.0, 0.0]], [[h, 0.0], [-h, 0.0], [0.0, 0.0]],
                                    [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]]}
    payload["stages"] = [loose, had]
    path.write_text(json.dumps(payload))
    with pytest.raises(CompletenessError, match=f"^{re.escape(str(path))}: stage 1 of 2: sum K"):
        load_protocol(path)
    payload["stages"] = [had, loose]
    path.write_text(json.dumps(payload))
    with pytest.raises(IncoherenceError, match=f"^{re.escape(str(path))}: stage 1 of 2: coherent") as err:
        load_protocol(path)
    assert err.value.witness == IncoherenceWitness(1, 1, (1, 2))


def test_protocol_round_trip(tmp_path):
    path = tmp_path / "protocol.json"
    psi = np.sqrt([0.8, 0.1, 0.1]).astype(complex)
    phi = np.sqrt([0.4, 0.3, 0.3]).astype(complex)
    protocol = optimal_protocol(psi, phi)
    report = verify_protocol(protocol, psi, phi)
    save_protocol(path, protocol, report)

    stages, meta = load_protocol(path)
    assert len(stages) == len(protocol.stages)
    assert meta["dim"] == 3
    assert meta["success_label"] == "success"
    assert abs(meta["probability"] - 1.0 / 3.0) < 1e-12
    ver = meta["verification"]
    # the block holds the report under its own field names
    back = ProtocolReport(**ver)
    assert dataclasses.replace(back, stage_completeness=tuple(back.stage_completeness)) == report
    assert ver["min_success_fidelity"] >= 1.0 - 1e-9
    assert ver["branch_count"] >= ver["success_count"] >= 1

    branches = apply_selective(compose(stages), psi)
    succ = sum(b.probability for b in branches if b.label == "success")
    assert abs(succ - 1.0 / 3.0) < 1e-9


def test_protocol_file_round_trip_bit_exact(tmp_path):
    path = tmp_path / "protocol.json"
    rng = np.random.default_rng(41)
    for _ in range(30):
        # integer weights give exact zero amplitudes, i^k phases signed zeros
        amps = []
        for d in rng.integers(2, 9, size=2):
            w = rng.integers(0, 4, size=d) + np.eye(d, dtype=int)[rng.integers(d)]
            amps.append(np.sqrt(w / w.sum()) * 1j ** rng.integers(0, 4, size=d))
        protocol = optimal_protocol(*amps)
        if not protocol.stages:
            continue
        save_protocol(path, protocol)
        stages, _ = load_protocol(path)
        for got, want in zip(stages, protocol.stages):
            assert got.labels == want.labels
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got.operators, want.operators))


def test_protocol_without_report(tmp_path):
    path = tmp_path / "protocol.json"
    psi = random_pure_state(np.random.default_rng(2), 3)
    protocol = optimal_protocol(psi, psi)
    save_protocol(path, protocol)
    _, meta = load_protocol(path)
    assert "verification" not in meta


def test_ensemble_save(tmp_path):
    path = tmp_path / "ensemble.json"
    rho = pure_density(pure_state([0.6, 0.8]))
    result = convex_roof_upper(builtin("shannon"), rho, restarts=1, seed=0)
    save_ensemble(path, result)
    payload = json.loads(path.read_text())
    assert payload["dim"] == 2
    assert payload["quality"] == "upper-bound"
    assert abs(payload["value"] - result.value) == 0.0
    weights = [m["weight"] for m in payload["members"]]
    assert abs(sum(weights) - 1.0) < 1e-9
