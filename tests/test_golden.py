"""Golden verdict digests: a slice of the benchmark's task pool must
reproduce the sha256 digests committed in ``perfbench/golden.json``.

The benchmark harness is imported as it stands and run in-process on the
p = 3, seed 1 verification tasks at f = 1 and f = 2, on the p = 5, seed 1
lemfil1 and kisin-breuil-consistency tasks at f = 1 (where r + 1 = 5
filtration levels share one element), on the p = 5, seed 1 section and
roundtrip-breuil tasks (the bounded filtration test fil_lower, on the
twisted presentation and in the section basis, at p = 5), and on the CLI
chain (gen kisin-gls, section, apply mfl) at d = 4 and d = 6, seed 1 for
p = 3 and p = 5, so the Kisin loader is byte-checked at both primes and
the packed matrix kernel and table maps at rank 6.  A digest
covers every record byte (or the exit code and every byte of the written
file), so any change of a verdict, a witness or a repr shows here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_harness():
    spec = importlib.util.spec_from_file_location("perfbench_harness", BENCH / "harness.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


H = _load_harness()
GOLDEN = H.load_golden()

VERIFY_TASKS = [
    t for name in ("verify-desk", "verify-f2")
    for t in H.WORKLOADS[name].pool_tasks() if t.p == 3 and t.seed == 1
] + [
    t for t in H.WORKLOADS["verify-desk"].pool_tasks()
    if t.p == 5 and t.seed == 1
    and t.suite in ("lemfil1", "kisin-breuil-consistency", "section", "roundtrip-breuil")
]
CLI_TASKS = [t for t in H.WORKLOADS["cli-rank"].pool_tasks()
             if t.d in (4, 6) and t.seed == 1]


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return H.Runner(H.import_flbreuil(), str(tmp_path_factory.mktemp("golden")))


def test_slice_is_covered_by_golden():
    assert len(VERIFY_TASKS) == 22 and len(CLI_TASKS) == 12
    assert all(t.key in GOLDEN for t in VERIFY_TASKS + CLI_TASKS)


@pytest.mark.parametrize("task", VERIFY_TASKS, ids=lambda t: f"{t.suite}-f{t.f}-r{t.r}")
def test_verify_digest(runner, task):
    out = runner.run(task)
    assert out.error is None
    assert H.digest_ok(out, GOLDEN), task.key


def test_cli_chain_digests(runner):
    assert [(t.p, t.d, t.step) for t in CLI_TASKS] == \
        [(p, d, s) for p in (3, 5) for d in (4, 6) for s in H.CLI_STEPS]
    for task in CLI_TASKS:
        out = runner.run(task)
        assert out.error is None
        assert H.digest_ok(out, GOLDEN), task.key
