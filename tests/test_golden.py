"""Golden verdict digests: every task of the benchmark's pool, the 243
keys of ``perfbench/golden.json``, must reproduce its committed sha256
digest.

The benchmark harness is imported as it stands and run in-process.  The
slice first checked (``test_verify_digest`` and
``test_cli_chain_digests``) keeps its tests: the p = 3, seed 1
verification tasks at f = 1 and f = 2, the p = 5, seed 1 lemfil1,
kisin-breuil-consistency, section and roundtrip-breuil tasks at f = 1,
and the CLI chain (gen kisin-gls, section, apply mfl) at d = 4 and d = 6,
seed 1 for p = 3 and p = 5.  ``test_pool_verify_digest`` and
``test_pool_cli_chain_digests`` check the rest of the pool: every other
seed of every verification unit of verify-desk and verify-f2, and every
other CLI chain of cli-rank (d = 5, and the seeds past 1), each chain run
in its order.  A digest covers every record byte (or the exit code and
every byte of the written file), so any change of a verdict, a witness or
a repr shows here.
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
# the rest of the pool, in pool order, so each CLI chain runs gen, section
# and apply in turn
REST = [t for w in H.WORKLOADS.values() for t in w.pool_tasks()
        if t not in VERIFY_TASKS + CLI_TASKS]
REST_VERIFY = [t for t in REST if isinstance(t, H.VerifyTask)]
REST_CLI = [t for t in REST if isinstance(t, H.CliTask)]
REST_CHAINS = [tuple(REST_CLI[i:i + 3]) for i in range(0, len(REST_CLI), 3)]


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return H.Runner(H.import_flbreuil(), str(tmp_path_factory.mktemp("golden")))


def test_slice_is_covered_by_golden():
    assert len(VERIFY_TASKS) == 22 and len(CLI_TASKS) == 12
    assert len(REST_VERIFY) == 185 and [len(c) for c in REST_CHAINS] == [3] * 8
    # the slice and the rest are the golden file's keys, each once
    keys = [t.key for t in VERIFY_TASKS + CLI_TASKS + REST_VERIFY] + \
        [t.key for chain in REST_CHAINS for t in chain]
    assert len(keys) == len(GOLDEN) == 243 and set(keys) == set(GOLDEN)


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


@pytest.mark.parametrize("task", REST_VERIFY,
                         ids=lambda t: f"p{t.p}-f{t.f}-r{t.r}-{t.suite}-seed{t.seed}")
def test_pool_verify_digest(runner, task):
    out = runner.run(task)
    assert out.error is None
    assert H.digest_ok(out, GOLDEN), task.key


@pytest.mark.parametrize("chain", REST_CHAINS, ids=lambda c: f"p{c[0].p}-d{c[0].d}-seed{c[0].seed}")
def test_pool_cli_chain_digests(runner, chain):
    assert [(t.p, t.d, t.seed, t.step) for t in chain] == \
        [(chain[0].p, chain[0].d, chain[0].seed, step) for step in H.CLI_STEPS]
    for task in chain:
        out = runner.run(task)
        assert out.error is None
        assert H.digest_ok(out, GOLDEN), task.key
