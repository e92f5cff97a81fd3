"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys

import pytest

import harness as H
import run as R
from tracer import LAYERS, Tracer

flb = H.import_flbreuil()

EXACT_COUNTERS = ("witt.scalars_built", "pd.elements_built", "pd.gamma_multiply.calls",
                  "matrix.det.calls", "functors.section.iterations")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    leaf = tr.span("a.leaf", lambda: clock.tick(1.0))

    def mid_body():
        clock.tick(2.0)
        leaf()
        clock.tick(0.5)

    mid = tr.span("b.mid", mid_body)

    def root_body():
        clock.tick(3.0)
        mid()
        leaf()
        clock.tick(0.25)

    tr.span("a.root", root_body)()
    # root spans 7.75 s; its children mid (3.5 s) and leaf (1 s) cover 4.5 s
    assert tr.self_s("a.root") == 3.25
    assert tr.self_s("b.mid") == 2.5
    assert (tr.calls("a.leaf"), tr.self_s("a.leaf")) == (2, 2.0)
    assert tr.layer_self_s("a") == 5.25
    assert tr.layer_self_s("b") == 2.5
    assert tr.layer_self_s("a") + tr.layer_self_s("b") == 7.75   # the root's span


def test_group_counts_outermost_calls_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def body(n):
        clock.tick(1.0)
        if n:
            rec(n - 1)

    rec = tr.grouped("g", tr.span("a.rec", body))
    rec(2)
    assert tr.groups == {"g": 3.0}
    assert (tr.calls("a.rec"), tr.self_s("a.rec")) == (3, 3.0)


def _slice(wl):
    tasks = wl.round(wl.schedule(7), 0)
    if wl.name == "cli-rank":
        return [t for t in tasks if (t.p, t.d) == (3, 4)]
    return [t for t in tasks if t.p == 3 and t.suite in ("section", "roundtrip-fl")]


@pytest.mark.parametrize("name", list(H.WORKLOADS))
def test_counters_repeat_exactly(name, tmp_path):
    runner = H.Runner(flb, str(tmp_path))
    golden = H.load_golden()
    tasks = _slice(H.WORKLOADS[name])
    runs = []
    for _ in range(2):
        tr, outcomes, _ = R.run_traced(flb, runner, tasks)
        assert all(H.digest_ok(o, golden) for o in outcomes)
        metrics = R.layer_metrics(tr, outcomes, 0.0)
        runs.append({k: metrics[k]["value"] for k in EXACT_COUNTERS})
    assert runs[0] == runs[1]
    assert all(runs[0][k] > 0 for k in EXACT_COUNTERS)


def test_tracer_restores_the_kernel():
    before = (flb.pd.gamma_multiply, flb.breuil.fil_lower, flb.witt.WittScalar.__init__,
              flb.matrix.RingMatrix.__dict__["identity"])
    with Tracer() as tr:
        tr.install(flb)
        assert flb.pd.gamma_multiply is not before[0]
        assert flb.breuil.fil_lower is flb.functors.fil_lower
    after = (flb.pd.gamma_multiply, flb.breuil.fil_lower, flb.witt.WittScalar.__init__,
             flb.matrix.RingMatrix.__dict__["identity"])
    assert after == before


def test_failing_task_is_recorded_and_run_continues(tmp_path, monkeypatch):
    def broken(amb, rng, cfg):
        raise flb.errors.NotStrong("injected")

    monkeypatch.setitem(flb.campaign.SUITES, "unipotence", broken)
    runner = H.Runner(flb, str(tmp_path))
    golden = H.load_golden()
    tasks = [H.VerifyTask(3, 1, 2, "unipotence", (), 1),
             H.VerifyTask(3, 1, 2, "easylemma", (("samples", 20),), 1),
             H.CliTask(3, 4, 1, "section")]     # its input file was never made
    outcomes = [runner.run(t) for t in tasks]
    assert [o.error for o in outcomes] == ["NotStrong", None, "exit-2"]
    assert [H.digest_ok(o, golden) for o in outcomes] == [False, True, False]
    metrics = R.end_to_end_metrics(outcomes, [1.0] * len(outcomes), [0.1])
    assert metrics["tasks_errored_frac"]["value"] == 2 / 3


def test_tail_has_ten_tasks_beyond_it():
    value, pct = R.tail([float(x) for x in range(20, 0, -1)])
    assert pct == 50.0
    assert value == pytest.approx(10.5)      # symmetric sample: its median
    assert R.tail([2.0] * 40) == (pytest.approx(2.0), 75.0)


def test_harrell_davis_tracks_the_order_statistic():
    xs = [float(x) for x in range(1, 102)]
    assert R.hd_quantile(xs, 0.5) == pytest.approx(51.0)
    assert 88.0 < R.hd_quantile(xs, 0.9) < 93.0


def test_definition_matches_the_benchmark():
    with open(H.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(H.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(R.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(R.PER_LAYER)
    assert set(LAYERS) == {name.split(".")[0] for name, _ in R.PER_LAYER} - {"trace"}


def test_golden_covers_every_pool_task():
    golden = H.load_golden()
    keys = [t.key for wl in H.WORKLOADS.values() for t in wl.pool_tasks()]
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(golden)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(H.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(H.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-rank", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
