"""A smoke test of ``tools/traffic.py``, the statement tracer: one small
kernel call, traced in-process."""

import importlib.util
import inspect
import sys
from pathlib import Path

from flbreuil import witt

TOOL = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"


def _tool():
    spec = importlib.util.spec_from_file_location("traffic", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _body_statements(stmts: dict, func) -> set:
    """The statement lines of ``func`` below its ``def`` line."""
    lines, first = inspect.getsourcelines(func)
    return {n for n in stmts if first < n < first + len(lines)}


def test_traffic_traces_one_kernel_call():
    # x^2 + 1 mod x + 1 over F_3 runs every statement of _fp_mod and of the
    # _fp_trim it calls, and no other line of witt.py
    traffic = _tool()
    before = sys.gettrace()
    with traffic.Tracer() as tr:
        assert witt._fp_mod([1, 0, 1], [1, 1], 3) == [2]
    assert sys.gettrace() is before
    path = Path(witt.__file__).resolve()
    stmts = traffic.statements(path)
    want = _body_statements(stmts, witt._fp_mod) | _body_statements(stmts, witt._fp_trim)
    assert want and tr.lines == {str(path): want}
    report = traffic.report({str(path): sorted(want)}, {})
    assert f"witt.py: {len(want)} of {len(stmts)} statements reached by Tier-1 only" in report
