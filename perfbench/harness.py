"""Workloads, tasks and verdict digests of the flbreuil benchmark.

A workload is a list of units.  A unit is one input family, such as
(p, suite, config) for the verification suites or (p, d) for the CLI
pipeline, and turns one pool seed into its tasks.  Round k holds every unit
once; a pass is ``pool`` rounds and runs every unit on every pool seed once.
The workload seed fixes which pool seed each unit gets in each round, so it
orders the pass and picks the rounds a traced run takes, while every whole
pass does the same work.  Task costs vary by an order of magnitude with the
suite seed (the rank d is drawn inside each suite), so a run that sampled
its suite seeds would measure the sample more than the code; timed runs
therefore run whole passes.  The pools are finite, and the digest of every
task a run can execute is committed in ``golden.json``.

Every task is timed alone and its output is hashed with sha256:

  * a verification task runs ``campaign.run_suite_seed`` and hashes its
    records as ``flbreuil verify`` writes them (sorted keys, compact
    separators, ``default=str``, one line each);
  * a CLI task runs one ``cli.main`` command in-process and hashes its exit
    code and the bytes of the file it wrote.

An exception from a task is caught and recorded by class, so one failing
task never ends the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"


class SourceMissing(RuntimeError):
    """The checkout holds no flbreuil sources to benchmark."""


def import_flbreuil():
    """Import flbreuil from this checkout's ``src``, and nowhere else."""
    pkg_init = SRC / "flbreuil" / "__init__.py"
    if not pkg_init.is_file():
        raise SourceMissing(f"no flbreuil package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flbreuil
    import flbreuil.campaign  # noqa: F401  (layers not imported by the package)
    import flbreuil.cli  # noqa: F401

    if Path(flbreuil.__file__).resolve() != pkg_init.resolve():
        raise SourceMissing(f"flbreuil was imported from {flbreuil.__file__}, not {SRC}")
    return flbreuil


def _dumps(rec) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"), default=str)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- tasks ---

@dataclass(frozen=True)
class VerifyTask:
    p: int
    f: int
    r: int
    suite: str
    cfg: tuple                      # sorted (key, value) pairs
    seed: int

    @property
    def key(self) -> str:
        return (f"verify:p={self.p}:f={self.f}:r={self.r}:{self.suite}:"
                f"{_dumps(dict(self.cfg))}:seed={self.seed}")


@dataclass(frozen=True)
class CliTask:
    p: int
    d: int
    seed: int
    step: str                       # gen | section | apply

    @property
    def key(self) -> str:
        return f"cli:p={self.p}:d={self.d}:seed={self.seed}:{self.step}"


@dataclass
class Outcome:
    key: str
    seconds: float
    records: int                    # check records produced
    checks_failed: int              # records with ok false
    error: str | None               # exception class, or "exit-2"
    digest: str | None
    bytes_written: int = 0


# --- workloads ---

def acceptance_mix(p: int):
    """The acceptance gate's (suite, r, config) mix at prime p."""
    return [
        ("ring-laws", p - 1, {"samples": 100}),
        ("easylemma", p - 1, {"samples": 20}),
        ("lemfil1", p - 1, {"elements": 200}),
        ("section", p - 1, {}),
        ("roundtrip-fl", p - 2, {"unipotent_only": False}),
        ("roundtrip-fl", p - 1, {"unipotent_only": True}),
        ("roundtrip-breuil", p - 2, {}),
        ("unipotence", p - 1, {}),
        ("kisin-breuil-consistency", p - 1, {"elements": 200}),
    ]


CLI_STEPS = ("gen", "section", "apply")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    units: tuple
    pool: int                       # pool seeds 1..pool per unit; rounds per pass
    trace_rounds: int               # rounds in a traced run
    ambients: tuple                 # AmbientParams keyword sets the tasks build

    def unit_tasks(self, unit, seed: int) -> list:
        if unit[0] == "verify":
            _, p, f, r, suite, cfg = unit
            return [VerifyTask(p, f, r, suite, cfg, seed)]
        _, p, d = unit
        return [CliTask(p, d, seed, step) for step in CLI_STEPS]

    def schedule(self, seed: int):
        """Per-unit pool-seed orders for workload seed ``seed``."""
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        return [rng.sample(range(1, self.pool + 1), self.pool) for _ in self.units]

    def round(self, order, k: int) -> list:
        out = []
        for unit, seeds in zip(self.units, order):
            out.extend(self.unit_tasks(unit, seeds[k]))
        return out

    def rounds(self, order, n: int) -> list:
        return [t for k in range(n) for t in self.round(order, k)]

    def pool_tasks(self) -> list:
        return [t for unit in self.units for s in range(1, self.pool + 1)
                for t in self.unit_tasks(unit, s)]


def _verify_units(primes, f):
    return tuple(("verify", p, f, r, suite, tuple(sorted(cfg.items())))
                 for p in primes for suite, r, cfg in acceptance_mix(p))


def _verify_ambients(primes, f):
    return tuple({"p": p, "r": r, "f": f} for p in primes for r in (p - 2, p - 1))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify-desk",
            "the acceptance gate's suite mix at p in {3,5}, f=1, d<=3: pd gamma "
            "products and witt churn on the f == 1 fast paths",
            _verify_units((3, 5), 1), pool=8, trace_rounds=3,
            ambients=_verify_ambients((3, 5), 1),
        ),
        Workload(
            "verify-f2",
            "the same suites at p=3, f=2: witt, series and pd run their generic "
            "residue-degree-2 paths",
            _verify_units((3,), 2), pool=7, trace_rounds=2,
            ambients=_verify_ambients((3,), 2),
        ),
        Workload(
            "cli-rank",
            "CLI gen kisin-gls, section, apply mfl at d in {4,5,6}: det and "
            "adjugate over the series ring, Newton inverse, serialize, cli",
            tuple(("cli", p, d) for p in (3, 5) for d in (4, 5, 6)),
            pool=2, trace_rounds=1,
            ambients=tuple({"p": p, "r": p - 2} for p in (3, 5)),
        ),
    )
}


# --- running tasks ---

class Runner:
    """Runs tasks in-process and hashes their outputs.

    ``workdir`` holds the CLI's files; an instance's files are deleted once
    its last step has run.
    """

    def __init__(self, flbreuil, workdir: str):
        self.cam = flbreuil.campaign
        self.cli = flbreuil.cli
        self.workdir = workdir

    def run(self, task) -> Outcome:
        if isinstance(task, VerifyTask):
            return self._verify(task)
        return self._cli(task)

    def _verify(self, t: VerifyTask) -> Outcome:
        params = {"p": t.p, "r": t.r, "f": t.f}
        t0 = time.perf_counter()
        try:
            recs = self.cam.run_suite_seed(params, t.suite, t.seed, dict(t.cfg))
        except Exception as exc:  # a failing task is recorded, the run goes on
            return Outcome(t.key, time.perf_counter() - t0, 0, 0, type(exc).__name__, None)
        dt = time.perf_counter() - t0
        text = "".join(_dumps(rec) + "\n" for rec in recs)
        failed = sum(1 for rec in recs if not rec["ok"])
        return Outcome(t.key, dt, len(recs), failed, None, _sha(text.encode()))

    def _path(self, t: CliTask, step: str) -> str:
        return os.path.join(self.workdir, f"p{t.p}-d{t.d}-s{t.seed}.{step}.json")

    def _cli(self, t: CliTask) -> Outcome:
        kisin = self._path(t, "gen")
        out = self._path(t, t.step)
        if t.step == "gen":
            argv = ["gen", "kisin-gls", "--p", str(t.p), "--d", str(t.d),
                    "--seed", str(t.seed), "--out", out]
        elif t.step == "section":
            argv = ["section", "--in", kisin, "--out", out]
        else:
            argv = ["apply", "mfl", "--in", kisin, "--adjoin-zero-n", "--out", out]
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a failing task is recorded, the run goes on
            return Outcome(t.key, time.perf_counter() - t0, 1, 0, type(exc).__name__, None)
        dt = time.perf_counter() - t0
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        if t.step == "apply":
            for step in CLI_STEPS:
                path = self._path(t, step)
                if os.path.exists(path):
                    os.remove(path)
        if rc == 2:
            return Outcome(t.key, dt, 1, 0, "exit-2", None)
        failed = rc == 1
        if t.step == "section" and rc == 0:
            failed = not json.loads(data)["data"]["exact"]
        digest = _sha(f"rc={rc}\n".encode() + data)
        return Outcome(t.key, dt, 1, int(failed), None, digest, len(data))


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def digest_ok(outcome: Outcome, golden: dict) -> bool:
    return outcome.digest is not None and golden.get(outcome.key) == outcome.digest
