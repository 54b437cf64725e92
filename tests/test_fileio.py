import json

import numpy as np
import pytest

from qcohere import (
    CompletenessError,
    FileFormatError,
    NormalizationError,
    apply_selective,
    builtin,
    compose,
    convex_roof_upper,
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
from randgen import random_incoherent_kraus, random_pure_state


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


def test_channel_round_trip(tmp_path):
    path = tmp_path / "channel.json"
    rng = np.random.default_rng(13)
    ks = random_incoherent_kraus(rng, 3)
    save_channel(path, ks)
    back = load_channel(path)
    assert len(back) == len(ks)
    assert back.labels is None
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
    loose = load_channel(path, atol=float("inf"))
    assert len(loose) == 1


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
    assert ver["incoherent"] is True
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
    save_ensemble(path, result, 2)
    payload = json.loads(path.read_text())
    assert payload["dim"] == 2
    assert payload["quality"] == "upper-bound"
    assert abs(payload["value"] - result.value) == 0.0
    weights = [m["weight"] for m in payload["members"]]
    assert abs(sum(weights) - 1.0) < 1e-9
