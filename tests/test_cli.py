import dataclasses
import json
import re

import numpy as np
import pytest

from qcohere import (
    CompletenessError,
    ProtocolReport,
    kraus_set,
    load_protocol,
    pure_density,
    pure_state,
    save_channel,
    save_density,
    save_state,
)
from qcohere import channels, cli
from qcohere.cli import main

INV2 = 1.0 / np.sqrt(2.0)


@pytest.fixture
def paths(tmp_path):
    d = {}
    d["pair"] = tmp_path / "pair.json"
    save_state(d["pair"], pure_state([INV2, INV2]))
    d["psi"] = tmp_path / "psi.json"
    save_state(d["psi"], pure_state(np.sqrt([0.8, 0.1, 0.1])))
    d["phi"] = tmp_path / "phi.json"
    save_state(d["phi"], pure_state(np.sqrt([0.4, 0.3, 0.3])))
    d["uni3"] = tmp_path / "uni3.json"
    save_state(d["uni3"], pure_state(np.full(3, 1.0 / np.sqrt(3.0))))
    d["tmp"] = tmp_path
    return d


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_shannon(paths, capsys):
    code, out, _ = run(["measure", "--state", paths["pair"], "--functional", "shannon"], capsys)
    assert code == 0
    assert out.strip() == "1.000000000000"


def test_measure_kyfan(paths, capsys):
    code, out, _ = run(
        ["measure", "--state", paths["psi"], "--functional", "kyfan", "--l", "2"], capsys
    )
    assert code == 0
    assert out.strip() == "0.200000000000"


def test_measure_missing_parameter(paths, capsys):
    code, _, err = run(["measure", "--state", paths["psi"], "--functional", "kyfan"], capsys)
    assert code == 1
    assert "error:" in err


def test_measure_missing_file(paths, capsys):
    code, _, err = run(
        ["measure", "--state", paths["tmp"] / "nope.json", "--functional", "l1"], capsys
    )
    assert code == 1
    assert "error:" in err


def test_convert_probability(paths, capsys):
    code, out, _ = run(
        ["convert", "--source", paths["psi"], "--target", paths["phi"]], capsys
    )
    assert code == 0
    assert out.strip() == "0.333333333333"


def test_convert_writes_protocol(paths, capsys):
    proto = paths["tmp"] / "protocol.json"
    code, out, _ = run(
        ["convert", "--source", paths["psi"], "--target", paths["phi"],
         "--protocol", proto], capsys
    )
    assert code == 0
    payload = json.loads(proto.read_text())
    assert payload["success_label"] == "success"
    assert abs(payload["probability"] - 1.0 / 3.0) < 1e-12
    assert len(payload["stages"]) >= 2
    ver = payload["verification"]
    assert list(ver) == [f.name for f in dataclasses.fields(ProtocolReport)]
    assert ver["min_success_fidelity"] >= 1.0 - 1e-9
    assert abs(ver["success_probability"] - 1.0 / 3.0) < 1e-9


def test_convert_failed_verification(paths, capsys, monkeypatch):
    verify = cli.verify_protocol

    def off_by_1e6(protocol, psi, phi):
        report = verify(protocol, psi, phi)
        return dataclasses.replace(report, declared_probability=report.declared_probability + 1e-6)

    monkeypatch.setattr(cli, "verify_protocol", off_by_1e6)
    proto = paths["tmp"] / "protocol.json"
    code, _, err = run(
        ["convert", "--source", paths["psi"], "--target", paths["phi"],
         "--protocol", proto], capsys
    )
    assert code == 1
    assert "protocol failed self-verification" in err
    assert "verification" in json.loads(proto.read_text())


def test_convert_protocol_d64(paths, capsys):
    rng = np.random.default_rng(64)
    for name in ("src64", "tgt64"):
        amps = np.sqrt(rng.dirichlet(np.ones(64))) * np.exp(2j * np.pi * rng.random(64))
        paths[name] = paths["tmp"] / f"{name}.json"
        save_state(paths[name], pure_state(amps))
    proto = paths["tmp"] / "protocol64.json"
    code, out, _ = run(
        ["convert", "--source", paths["src64"], "--target", paths["tgt64"],
         "--protocol", proto], capsys
    )
    assert code == 0
    payload = json.loads(proto.read_text())
    ver = payload["verification"]
    assert max(ver["stage_completeness"]) <= 1e-9
    assert abs(ver["success_probability"] - payload["probability"]) <= 1e-9
    assert abs(payload["probability"] - float(out)) <= 1e-12
    assert ver["min_success_fidelity"] >= 1.0 - 1e-9
    assert ver["success_count"] == 1
    assert ver["branch_count"] <= 2


def test_convert_protocol_d128_file_stays_small(paths, capsys):
    # the stored form takes 1.0 MB here, dense matrices about 50 MB
    rng = np.random.default_rng(128)
    for name in ("src128", "tgt128"):
        amps = np.sqrt(rng.dirichlet(np.ones(128))) * np.exp(2j * np.pi * rng.random(128))
        paths[name] = paths["tmp"] / f"{name}.json"
        save_state(paths[name], pure_state(amps))
    proto = paths["tmp"] / "protocol128.json"
    code, _, _ = run(
        ["convert", "--source", paths["src128"], "--target", paths["tgt128"],
         "--protocol", proto], capsys
    )
    assert code == 0
    assert proto.stat().st_size < 2_000_000
    code, out, _ = run(["verify-channel", "--channel", proto], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_convert_copies(paths, capsys):
    code, out, _ = run(
        ["convert", "--source", paths["pair"], "--target", paths["uni3"],
         "--copies", "2"], capsys
    )
    assert code == 0
    assert out.strip() == "1.000000000000"


def test_convert_target_copies(paths, capsys):
    code, out, _ = run(
        ["convert", "--source", paths["pair"], "--target", paths["uni3"],
         "--target-copies", "2"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n=1: 0.000000000000"
    assert lines[1] == "n=2: 0.000000000000 (support shortcut)"


def test_convert_flag_conflicts(paths, capsys):
    code, _, err = run(
        ["convert", "--source", paths["psi"], "--target", paths["phi"],
         "--target-copies", "2", "--protocol", paths["tmp"] / "p.json"], capsys
    )
    assert code == 2
    assert "error:" in err
    code, _, _ = run(
        ["convert", "--source", paths["psi"], "--target", paths["phi"],
         "--copies", "0"], capsys
    )
    assert code == 2


def test_ladder_output(paths, capsys):
    code, out, _ = run(
        ["ladder", "--source", paths["psi"], "--target", paths["phi"]], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "probability: 0.333333333333"
    assert lines[1] == "breakpoints: 2 1"
    assert lines[2] == "ratios: 0.333333333333 2.000000000000"
    assert lines[3] == "gamma: 0.894427191000 0.316227766017 0.316227766017"


def test_ladder_zero_probability(paths, capsys):
    code, out, _ = run(
        ["ladder", "--source", paths["pair"], "--target", paths["uni3"]], capsys
    )
    assert code == 0
    assert "probability: 0.000000000000" in out
    assert "no ladder" in out


def test_verify_channel_good(paths, capsys):
    chan = paths["tmp"] / "chan.json"
    k1 = np.diag([np.sqrt(0.7), np.sqrt(0.3)]).astype(complex)
    k2 = np.array([[0.0, np.sqrt(0.7)], [np.sqrt(0.3), 0.0]], dtype=complex)
    save_channel(chan, kraus_set([k1, k2]))
    code, out, _ = run(["verify-channel", "--channel", chan], capsys)
    assert code == 0
    assert "[ok]" in out
    assert "incoherent: yes" in out


def test_verify_channel_coherent(paths, capsys):
    chan = paths["tmp"] / "had.json"
    had = np.full((2, 2), INV2)
    had[1, 1] = -INV2
    # kraus_set refuses a coherent operator, so the file is written directly
    payload = {"dim": 2, "operators": [[[[v, 0.0] for v in row] for row in had]]}
    chan.write_text(json.dumps(payload))
    code, out, _ = run(["verify-channel", "--channel", chan], capsys)
    assert code == 1
    assert "incoherent: no [FAIL]" in out
    assert "witness: operator 1, column 1, rows 1 and 2" in out


def test_verify_channel_incomplete(paths, capsys):
    chan = paths["tmp"] / "half.json"
    half = 0.5 * np.eye(2)
    payload = {
        "dim": 2,
        "operators": [[[[v, 0.0] for v in row] for row in half]],
    }
    chan.write_text(json.dumps(payload))
    code, out, _ = run(["verify-channel", "--channel", chan], capsys)
    assert code == 1
    assert "[FAIL]" in out


def test_verify_channel_reports_an_incomplete_and_a_coherent_stage(paths, capsys):
    # the report and the loader read one rule: an incomplete run-form stage
    # 1 fails on its residual, a coherent dense stage 2 on its witness, and
    # the loader raises for stage 1, the first in file order
    proto = paths["tmp"] / "mixed.json"
    run(["convert", "--source", paths["psi"], "--target", paths["phi"], "--protocol", proto], capsys)
    payload = json.loads(proto.read_text())
    loose = payload["stages"][0]
    loose["values"] = [[[0.5 * re, 0.5 * im] for re, im in op] for op in loose["values"]]
    had = [[[INV2, 0.0], [INV2, 0.0], [0.0, 0.0]], [[INV2, 0.0], [-INV2, 0.0], [0.0, 0.0]],
           [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]
    payload["stages"][1] = {"dim": 3, "operators": [had]}
    proto.write_text(json.dumps(payload))
    code, out, _ = run(["verify-channel", "--channel", proto], capsys)
    lines = out.splitlines()
    assert code == 1 and len(lines) == 3
    assert lines[0].startswith("stage 1: completeness residual ") and lines[0].endswith("[FAIL]")
    assert lines[1:] == ["stage 2: incoherent: no [FAIL]", "  witness: operator 1, column 1, rows 1 and 2"]
    with pytest.raises(CompletenessError, match=f"^{re.escape(str(proto))}: stage 1 of 2: sum K"):
        load_protocol(proto)


def test_verify_channel_on_protocol_file(paths, capsys):
    proto = paths["tmp"] / "protocol.json"
    run(["convert", "--source", paths["psi"], "--target", paths["phi"],
         "--protocol", proto], capsys)
    code, out, _ = run(["verify-channel", "--channel", proto], capsys)
    assert code == 0
    assert "stage 1:" in out
    assert "stage 2:" in out
    assert "FAIL" not in out


def test_verify_channel_checks_each_stage_once(paths, capsys, monkeypatch):
    # building a stage checked its completeness, and the report measured
    # it again: 2k residuals for k stages; now the decoded stack is
    # measured once, and the report reads the residuals its stages carry
    rng = np.random.default_rng(8)
    for name in ("src8", "tgt8"):
        amps = np.sqrt(rng.dirichlet(np.ones(8))) * np.exp(2j * np.pi * rng.random(8))
        save_state(paths["tmp"] / f"{name}.json", pure_state(amps))
    proto = paths["tmp"] / "protocol8.json"
    run(["convert", "--source", paths["tmp"] / "src8.json", "--target", paths["tmp"] / "tgt8.json",
         "--protocol", proto], capsys)
    k = len(json.loads(proto.read_text())["stages"])
    measured = []
    kernel = channels._residuals

    def counting(d, nops, *rest):
        measured.append(len(nops))
        return kernel(d, nops, *rest)

    monkeypatch.setattr(channels, "_residuals", counting)
    code, out, _ = run(["verify-channel", "--channel", proto], capsys)
    assert code == 0 and out.count("[ok]") == k > 2
    assert measured == [k]


def test_verify_channel_on_empty_protocol(paths, capsys):
    # P = 0 writes "stages": [], and verify-channel printed nothing
    proto = paths["tmp"] / "empty.json"
    code, out, _ = run(["convert", "--source", paths["pair"], "--target", paths["uni3"],
                        "--protocol", proto], capsys)
    assert (code, out.strip()) == (0, "0.000000000000")
    assert json.loads(proto.read_text())["stages"] == []
    code, out, _ = run(["verify-channel", "--channel", proto], capsys)
    assert (code, out) == (0, "protocol: no stages\n")


@pytest.mark.parametrize("diagonal", [True, False])
def test_roof_bad_seed_is_an_error(paths, capsys, diagonal):
    # a negative seed escaped as numpy's ValueError with a traceback, or was
    # never read on a diagonal density, which printed a bound and exited 0
    dens = paths["tmp"] / "rho.json"
    rho = np.diag([0.5, 0.5]) if diagonal else np.array([[0.5, 0.25], [0.25, 0.5]])
    save_density(dens, rho.astype(complex))
    code, out, err = run(["roof", "--density", dens, "--functional", "l1", "--seed", "-1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: seed must be an integer >= 0, got -1\n"


def test_roof_over_the_cap_is_an_error(paths, capsys):
    dens = paths["tmp"] / "rho36.json"
    save_density(dens, np.eye(36, dtype=complex) / 36 + 0.01 * np.eye(36, k=1) + 0.01 * np.eye(36, k=-1))
    code, out, err = run(["roof", "--density", dens, "--functional", "shannon"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: 8 x 3 x 36^2 x 36 line-search entries exceed the cap of 1048576\n"


def test_roof_pure_state(paths, capsys):
    dens = paths["tmp"] / "rho.json"
    save_density(dens, pure_density(pure_state([INV2, INV2])))
    code, out, _ = run(
        ["roof", "--density", dens, "--functional", "shannon"], capsys
    )
    assert code == 0
    assert out.strip() == "upper bound: 1.000000000000"


def test_roof_writes_ensemble(paths, capsys):
    dens = paths["tmp"] / "rho.json"
    save_density(dens, np.diag([0.5, 0.5]).astype(complex))
    ens = paths["tmp"] / "ensemble.json"
    code, out, _ = run(
        ["roof", "--density", dens, "--functional", "l1", "--ensemble", ens], capsys
    )
    assert code == 0
    assert out.strip() == "upper bound: 0.000000000000"
    payload = json.loads(ens.read_text())
    assert len(payload["members"]) == 2
    assert payload["value"] == 0.0


def test_paper_demo(paths, capsys):
    code, out, _ = run(["paper-demo"], capsys)
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln.startswith("[")]
    assert len(lines) == 7
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_paper_demo_json(paths, capsys):
    code, out, _ = run(["paper-demo", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 7
    names = [c["name"] for c in payload["checks"]]
    assert "two-copy tensor amplitudes" in names


def test_paper_demo_negative_control(paths, capsys, monkeypatch):
    # a wrong single-copy probability must fail its check
    monkeypatch.setattr(cli, "conversion_probability", lambda psi, phi: 0.5)
    code, out, _ = run(["paper-demo"], capsys)
    assert code == 1
    assert "[FAIL] single-copy probability is zero" in out


def test_paper_demo_has_no_tolerance_option(capsys):
    assert run(["paper-demo", "--tolerance", "1e-9"], capsys)[0] == 2


def test_usage_errors(paths, capsys):
    assert run([], capsys)[0] == 2
    assert run(["bogus"], capsys)[0] == 2
    assert run(["measure"], capsys)[0] == 2
    assert run(["measure", "--state", paths["psi"], "--functional", "nope"], capsys)[0] == 2
