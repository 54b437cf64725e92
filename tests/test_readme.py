"""The README quick start runs as written and shows the values it returns,
and the package keeps the README's promise of fixed thresholds."""

import ast
import inspect
import pathlib
import re

import qcohere

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_values():
    code = _quick_start()
    lines = code.splitlines()
    env = {}
    shown = []  # (expression, value, the value its comment shows)
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), env)
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            shown.append((ast.get_source_segment(code, node), value, comment))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), env)
    assert [c for _, _, c in shown] == [
        "0.9219280948873625", "0.3333333333333334", "True", "0.3333333333333334",
        "0.4407118529219978",
    ]
    for expr, value, comment in shown:
        if expr.startswith("convex_roof_upper"):
            assert abs(value - float(comment)) <= 1e-12
        else:
            assert repr(value) == comment, expr


# parameter names that would make a threshold or a cap a per-call option
THRESHOLD_NAMES = {"atol", "tol", "tolerance", "slack", "floor", "prune", "max_amplitudes"}


def test_thresholds_are_not_parameters():
    # "The thresholds are fixed, not options": no public function takes
    # one; the file loaders check within RENORM_TOL, verify-channel reports
    found = []
    for name in sorted(dir(qcohere)):
        obj = getattr(qcohere, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # builtin exception bases have no signature
            continue
        found += [f"{name}({p})" for p in params if p in THRESHOLD_NAMES]
    assert found == []
