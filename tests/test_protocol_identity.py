"""Protocols, reports, residuals, files and error texts against the record
that ``make_oracle.py`` wrote (see its docstring for the fields and how to
regenerate it)."""

import json
import math

import numpy as np

import make_oracle


def _close(a: str, b: str, scale: float | None) -> bool:
    """Two float.hex strings within ULPS units in the last place of the
    larger, or of ``scale`` when given; NaN matches NaN."""
    x, y = float.fromhex(a), float.fromhex(b)
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return a == b
    top = max(abs(x), abs(y)) if scale is None else scale
    return abs(x - y) <= make_oracle.ULPS * np.spacing(top)


def _differences(want: dict, got: dict, bits: bool) -> list:
    """The fields of one case that differ."""
    out = [f"exact {key}" for key in want["exact"].keys() | got["exact"].keys()
           if want["exact"].get(key) != got["exact"].get(key)]
    if bits:
        out += [f"bits {key}" for key in want["bits"].keys() | got["bits"].keys()
                if want["bits"].get(key) != got["bits"].get(key)]
    for key, scale in (("floats", None), ("residuals", 1.0)):
        a, b = want[key], got[key]
        same = a == b if bits else len(a) == len(b) and all(_close(x, y, scale) for x, y in zip(a, b))
        if not same:
            out.append(key)
    return out


def test_protocol_outputs_match_the_record():
    record = json.loads(make_oracle.RECORD.read_text(encoding="utf-8"))
    bits = record["environment"] == make_oracle.environment()
    if not bits:
        print(f"recorded under {record['environment']}, running under {make_oracle.environment()}: "
              f"values within {make_oracle.ULPS} ulps, integers, rows and errors exactly")
    got = make_oracle.build()
    assert sorted(got) == sorted(record["cases"])
    changed = {name: diff for name, want in record["cases"].items()
               if (diff := _differences(want, got[name], bits))}
    assert not changed, f"{len(changed)} of {len(got)} cases changed: {changed}"


def test_record_stays_small():
    assert make_oracle.RECORD.stat().st_size < 200_000
