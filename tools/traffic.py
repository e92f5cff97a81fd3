"""Which kernel statements do the tests and the benchmark reach?

Traces every line of ``src/flbreuil`` that runs (stdlib ``sys.settrace``;
code outside the package is not traced line by line) in two runs, each in
a fresh interpreter so that one run's imports and cached contexts do not
hide work from the other:

  * Tier-1: ``pytest`` over ``tests/`` in-process;
  * the benchmark: every pool task of every workload of
    ``perfbench/harness.py`` once, each output checked against the
    committed digests.

Then it prints, module by module, the statements that neither run reached
and those that only Tier-1 reached.  A statement is an ``ast`` statement
whose first line the compiler gives an instruction (so docstrings and
``else:`` lines are not counted).  Work done in child processes (a CLI
subprocess, ``verify --jobs``) is not traced.

    python3 tools/traffic.py

takes about three times the untraced time of each run; both run at once.
"""

from __future__ import annotations

import argparse
import ast
import dis
import importlib.util
import json
import subprocess
import sys
import tempfile
import types
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "flbreuil"


class Tracer:
    """Records the lines of the package run while it is entered, by file;
    the trace function in place before is restored on exit."""

    def __init__(self):
        self.prefix = str(PKG) + "/"
        self.lines: dict[str, set] = {}

    def _call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        hit = self.lines.setdefault(code.co_filename, set())

        def line(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return line
        return line

    def __enter__(self) -> "Tracer":
        self._outer = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._outer)


def statements(path: Path) -> dict:
    """The first line of each statement of the file that has instructions,
    with its source text."""
    source = path.read_text()
    executable, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        executable.update(line for _, line in dis.findlinestarts(code))
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    text = source.splitlines()
    return {node.lineno: text[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in executable}


def _run_tier1() -> None:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    rc = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if rc != 0:
        print(f"Tier-1 exited {rc}", file=sys.stderr)


def _run_benchmark() -> None:
    spec = importlib.util.spec_from_file_location("perfbench_harness",
                                                  ROOT / "perfbench" / "harness.py")
    H = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = H  # its dataclasses look their module up
    spec.loader.exec_module(H)
    golden = H.load_golden()
    with tempfile.TemporaryDirectory() as workdir:
        runner = H.Runner(H.import_flbreuil(), workdir)
        tasks = [t for wl in H.WORKLOADS.values() for t in wl.pool_tasks()]
        bad = sum(not H.digest_ok(runner.run(t), golden) for t in tasks)
    print(f"benchmark: {len(tasks)} tasks, {bad} digest mismatches", file=sys.stderr)


def _trace_run(run: str, out: str) -> None:
    with Tracer() as tr:
        (_run_tier1 if run == "tier1" else _run_benchmark)()
    Path(out).write_text(json.dumps({f: sorted(s) for f, s in tr.lines.items()}))


def _spans(lines: list):
    """The runs of consecutive numbers in the sorted list, as (first, last)."""
    for _, run in groupby(enumerate(lines), lambda t: t[1] - t[0]):
        run = [n for _, n in run]
        yield run[0], run[-1]


def report(tier1: dict, bench: dict) -> str:
    """Per module, the statements neither run reached and those only Tier-1
    reached, from the lines each run traced (by file path)."""
    out = []
    for path in sorted(PKG.glob("*.py")):
        stmts = statements(path)
        t1, bm = set(tier1.get(str(path), ())), set(bench.get(str(path), ()))
        for label, lines in (("reached by neither", sorted(set(stmts) - t1 - bm)),
                             ("reached by Tier-1 only", sorted(set(stmts) & t1 - bm))):
            out.append(f"{path.name}: {len(lines)} of {len(stmts)} statements {label}")
            for a, b in _spans(lines):
                out.append(f"  {a if a == b else f'{a}-{b}'}: {stmts[a]}")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run", choices=("tier1", "benchmark"), help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run:
        _trace_run(args.run, args.out)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        outs = {run: str(Path(tmp) / f"{run}.json") for run in ("tier1", "benchmark")}
        procs = [subprocess.Popen([sys.executable, __file__, "--run", run, "--out", out],
                                  cwd=str(ROOT), stdout=subprocess.DEVNULL)
                 for run, out in outs.items()]
        if any([p.wait() for p in procs]):
            print("a traced run failed", file=sys.stderr)
            return 1
        tier1, bench = (json.loads(Path(outs[r]).read_text()) for r in ("tier1", "benchmark"))
    print(report(tier1, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
