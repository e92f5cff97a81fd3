"""Benchmark of flbreuil: three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 -m pytest perfbench -q          # the benchmark's own tests

Workloads (see ``harness.WORKLOADS``): ``verify-desk``, ``verify-f2``,
``cli-rank``; ``all`` runs the three in turn, each in its own child
interpreter so that each workload's ``peak_rss_mb`` is its own
(``ru_maxrss`` only ever rises), and merges their results.  One
closed-loop client runs one task at a time (jobs = 1), in whole passes over
the workload's task pool: ``--seconds`` buys floor(seconds / PASS_S)
passes, and at least one, so any value below PASS_S runs exactly one pass.
A pass is the same tasks however fast the host runs; one pass with its
set-up probes takes about PASS_S seconds on a 2-vCPU Intel Xeon host.

With ``--trace 0`` the run reports the end-to-end metrics.  Set-up time is
measured in fresh interpreters that import flbreuil and build every
AmbientParams the workload uses with its lazy tables filled; the median of
several is reported.  Times are in reference seconds (see ``speed.py``);
the unscaled ones are in the metadata.  The task median and tail are
Harrell-Davis estimates.  ``checks_failed_frac`` and ``tasks_errored_frac``
are printed with them; they are zero at a correct commit, and any task
whose digest differs counts in the result's ``failed``.

With ``--trace 1`` a fixed number of rounds runs twice, untraced and then
with every public function of every layer wrapped (see ``tracer.py``), and
the run reports the per-layer metrics.  Their counters repeat exactly for a
given seed.

Every task's output is checked against the digest committed in
``golden.json``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run metadata.  Only the workload's process and its set-up
children are measured, with ``perf_counter``, ``process_time`` and
``ru_maxrss``; nothing system-wide is traced and no CPU or cache setting is
touched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import harness as H
import speed
from tracer import LAYERS, Tracer

SETUP_RUNS = 9
PASS_S = 30         # seconds of one pass over a workload's pool, with set-up

# run in a fresh interpreter: argv[1] is this directory, argv[2] the source
# directory, argv[3] the AmbientParams keyword sets as JSON; prints the
# elapsed seconds and the calibration loop's time measured right after
SETUP_PROBE = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import json
import flbreuil.cli
from flbreuil.ambient import AmbientParams
for kw in json.loads(sys.argv[3]):
    amb = AmbientParams(**kw)
    for i in range(amb.N_gamma):
        amb.fact_unit_inv(i)
        amb.pa_div_fact(i)
        amb.u_pow(i)
        amb.c_pow(i)
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import statistics
from speed import calibrate
print(repr(elapsed), repr(statistics.median(d for _, d in calibrate(9))))
"""

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# printed with the end-to-end metrics; zero at a correct commit, so they are
# covered by the result's "failed" count rather than by a relative bound
REPORTED_ONLY = (("checks_failed_frac", "frac"), ("tasks_errored_frac", "frac"))

SUITE_NAMES = sorted({suite for suite, _, _ in H.acceptance_mix(3)})

# per-layer metric -> (unit, tracer statistic); "calls:" and "self:" read a
# span, "count:" a counter, "group:" an inclusive group time
_LAYER_SPEC = [
    ("witt.scalars_built", "count", "count:witt.WittScalar.__init__"),
    ("witt.mul.calls", "count", "calls:witt.WittScalar.__mul__"),
    ("witt.add.calls", "count", "calls:witt.WittScalar.__add__"),
    ("witt.invert.calls", "count", "calls:witt.WittScalar.invert"),
    ("witt.frobenius.calls", "count", "calls:witt.WittScalar.frobenius"),
    ("series.mul.calls", "count", "calls:series.SigmaSeries.__mul__"),
    ("series.phi.calls", "count", "calls:series.SigmaSeries.phi"),
    ("pd.elements_built", "count", "count:pd.PDElement.__init__"),
    ("pd.gamma_multiply.calls", "count", "calls:pd.gamma_multiply"),
    ("pd.phi_S.calls", "count", "calls:pd.phi_S"),
    ("pd.n_S.calls", "count", "calls:pd.n_S"),
    ("pd.to_u_divided.calls", "count", "calls:pd.to_u_divided"),
    ("matrix.matmul.calls", "count", "calls:matrix.RingMatrix.__matmul__"),
    ("matrix.matvec.calls", "count", "calls:matrix.RingMatrix.matvec"),
    ("matrix.det.calls", "count", "calls:matrix.RingMatrix.det"),
    ("matrix.adjugate.calls", "count", "calls:matrix.RingMatrix.adjugate"),
    ("matrix.det.self_s", "s", "self:matrix.RingMatrix.det"),
    ("matrix.invert.self_s", "s", "self:matrix.RingMatrix.invert"),
    ("matrix.det_adjugate_s", "s", "group:matrix.det_adjugate"),
    ("kisin.height_check.self_s", "s", "self:kisin.kisin_height_check"),
    ("kisin.random_gls.self_s", "s", "self:kisin.random_gls"),
    ("breuil.fil_lower.calls", "count", "calls:breuil.fil_lower"),
    ("breuil.hat_fil_membership.calls", "count", "calls:breuil.hat_fil_membership"),
    ("breuil.validate.calls", "count", "calls:breuil.breuil_validate"),
    ("functors.section_compute.calls", "count", "calls:functors.section_compute"),
    ("functors.section.iterations", "count", "count:functors.section.iterations"),
    ("functors.breuil_to_fl.calls", "count",
     "calls:functors.breuil_to_fl_with_transport"),
    ("ambient.tables_s", "s", "group:ambient.tables"),
] + [(f"campaign.suite_s.{s}", "s", f"group:campaign.suite_s.{s}") for s in SUITE_NAMES]

PER_LAYER = (
    [(name, unit) for name, unit, _ in _LAYER_SPEC]
    + [("pd.gamma_multiply.const_operand_frac", "frac"),
       ("serialize.bytes_written", "bytes")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_frac", "frac")]
)


def _stat(tr: Tracer, spec: str):
    kind, key = spec.split(":", 1)
    if kind == "calls":
        return tr.calls(key)
    if kind == "self":
        return tr.self_s(key)
    if kind == "count":
        return tr.counts.get(key, 0)
    return tr.groups.get(key, 0.0)


def layer_metrics(tr: Tracer, outcomes, overhead_frac: float) -> dict:
    vals = {name: _stat(tr, spec) for name, _, spec in _LAYER_SPEC}
    gm = tr.calls("pd.gamma_multiply")
    vals["pd.gamma_multiply.const_operand_frac"] = (
        tr.counts.get("pd.gamma_multiply.const_operand", 0) / gm if gm else 0.0)
    vals["serialize.bytes_written"] = sum(o.bytes_written for o in outcomes)
    for layer in LAYERS:
        vals[f"{layer}.self_s"] = tr.layer_self_s(layer)
    vals["trace.overhead_frac"] = overhead_frac
    return {name: {"value": vals[name], "unit": unit} for name, unit in PER_LAYER}


def hd_quantile(xs: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ``xs``.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics; it
    varies far less from run to run than the single order statistic, which
    matters with a few dozen tasks of very different sizes."""
    x = sorted(xs)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 16                      # midpoint rule inside each ((i-1)/n, i/n]
    logs = []
    for k in range(n * steps):
        t = (k + 0.5) / (n * steps)
        logs.append((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    top = max(logs)
    w = [sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(wi * xi for wi, xi in zip(w, x)) / sum(w)


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 tasks beyond it."""
    n = len(latencies)
    q = max(n - 10, 1) / n
    return hd_quantile(latencies, q), 100.0 * q


def end_to_end_metrics(outcomes, scales: list, setup: list) -> dict:
    """``scales[i]`` turns task i's seconds into reference seconds; ``setup``
    holds set-up times already in reference seconds."""
    lat = [o.seconds * k for o, k in zip(outcomes, scales)]
    tail_s, _ = tail(lat)
    records = sum(o.records for o in outcomes)
    vals = {
        "setup_s": statistics.median(setup),
        "tasks_per_s": len(outcomes) / sum(lat),
        "task_p50_ms": 1000.0 * hd_quantile(lat, 0.5),
        "task_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks_failed_frac": sum(o.checks_failed for o in outcomes) / max(records, 1),
        "tasks_errored_frac": sum(o.error is not None for o in outcomes) / len(outcomes),
    }
    return {name: {"value": vals[name], "unit": unit}
            for name, unit in END_TO_END + REPORTED_ONLY}


def measure_setup(wl: H.Workload) -> list:
    """(raw seconds, reference seconds) of SETUP_RUNS fresh-interpreter set-ups."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(H.BENCH_DIR), str(H.SRC),
           json.dumps(list(wl.ambients))]
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=str(H.ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw, cal = (float(x) for x in proc.stdout.split())
        out.append((raw, raw * speed.CAL_REF_S / cal))
    return out


def run_tasks(runner: H.Runner, tasks):
    t0 = time.perf_counter()
    outcomes = [runner.run(t) for t in tasks]
    return outcomes, time.perf_counter() - t0


def run_traced(flb, runner: H.Runner, tasks):
    """Run ``tasks`` with every layer wrapped; the tracer is removed after."""
    with Tracer() as tr:
        tr.install(flb)
        outcomes, wall = run_tasks(runner, tasks)
    return tr, outcomes, wall


def run_timed(runner: H.Runner, wl: H.Workload, order, seconds: float):
    """Run floor(seconds / PASS_S) passes, at least one.

    The work depends on ``seconds`` only, not on how fast the host runs, so
    every run at the same setting times the same tasks.  Returns the
    outcomes, the reference-second scale of each task, the wall time and the
    number of passes."""
    passes = max(1, int(seconds // PASS_S))
    tasks = wl.rounds(order, wl.pool) * passes
    outcomes, spans, cals = [], [], []
    t0 = time.perf_counter()
    for task in tasks:
        if not cals or time.perf_counter() - cals[-1][0] >= speed.CAL_PERIOD_S:
            cals.extend(speed.calibrate())
        start = time.perf_counter()
        outcomes.append(runner.run(task))
        spans.append((start, time.perf_counter()))
    cals.extend(speed.calibrate())
    elapsed = time.perf_counter() - t0
    return outcomes, speed.window_scales(spans, cals), elapsed, passes


def _git_commit() -> str | None:
    try:
        # the ceiling keeps git from finding a repository around the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(H.ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(H.ROOT), env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((H.SRC / "flbreuil").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(flb, wl: H.Workload, seed: int, seconds: float, trace: bool,
                 golden: dict, workdir: str) -> dict:
    runner = H.Runner(flb, workdir)
    order = wl.schedule(seed)
    meta = {"workload": wl.name, "seed": seed}
    if trace:
        tasks = wl.rounds(order, wl.trace_rounds)
        plain, untraced_s = run_tasks(runner, tasks)
        cpu0 = time.process_time()
        tr, traced, traced_s = run_traced(flb, runner, tasks)
        cpu_s = time.process_time() - cpu0
        outcomes = plain + traced
        metrics = layer_metrics(tr, traced, (traced_s - untraced_s) / untraced_s)
        self_sum = sum(tr.layer_self_s(layer) for layer in LAYERS)
        self_ok = self_sum <= traced_s
        meta.update(rounds=wl.trace_rounds, untraced_wall_s=untraced_s,
                    traced_wall_s=traced_s, traced_cpu_s=cpu_s,
                    layer_self_sum_s=self_sum, layer_self_sum_within_wall=self_ok)
    else:
        setup = measure_setup(wl)
        cpu0 = time.process_time()
        outcomes, scales, elapsed, passes = run_timed(runner, wl, order, seconds)
        metrics = end_to_end_metrics(outcomes, scales, [ref for _, ref in setup])
        raw = end_to_end_metrics(outcomes, [1.0] * len(outcomes), [w for w, _ in setup])
        _, pct = tail([o.seconds for o in outcomes])
        self_ok = True
        meta.update(passes=passes, untraced_wall_s=elapsed, traced_wall_s=None,
                    cpu_s=time.process_time() - cpu0, tasks=len(outcomes),
                    task_tail_percentile=pct, setup_samples_s=setup,
                    samples={"setup_s": len(setup), "tasks_per_s": len(outcomes),
                             "task_p50_ms": len(outcomes), "task_tail_ms": len(outcomes)},
                    speed_scale_median=statistics.median(scales),
                    unscaled={k: raw[k]["value"] for k in ("setup_s", "tasks_per_s",
                                                           "task_p50_ms", "task_tail_ms")})
    bad = [o for o in outcomes if not H.digest_ok(o, golden)]
    errors = sorted({o.error for o in outcomes if o.error})
    meta.update(digests_checked=len(outcomes), digest_mismatches=[o.key for o in bad[:10]],
                error_classes=errors)
    return {"metrics": metrics, "meta": meta, "attempted": len(outcomes),
            "failed": len(bad), "correct": not bad and self_ok}


def run_metadata(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "jobs": 1,
        "note": ("only the benchmark process and its set-up children are measured, "
                 "with perf_counter, process_time and ru_maxrss; no system-wide "
                 "tracing, and no CPU or cache setting touched; end-to-end times "
                 "are scaled to reference seconds by an in-process calibration "
                 "loop (speed.py), and the unscaled values are kept as 'unscaled'"),
    }


def _exit_on_sigterm(signum, _frame):
    # unwinds through the ``with`` blocks: kills a running set-up probe,
    # stops a running workload child and removes the work directory
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description="flbreuil benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(H.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.workload == "all":
        return run_all(args)
    try:
        flb = H.import_flbreuil()
        golden = H.load_golden()
    except (H.SourceMissing, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    name = args.workload
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=str(H.ROOT)) as workdir:
        res = run_workload(flb, H.WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace), golden, workdir)
    samples = res["meta"].get("samples", {})
    for metric, m in res["metrics"].items():
        n = f"  (n={samples[metric]})" if metric in samples else ""
        print(f"{name:12s} {metric:40s} {m['value']:>16.6f} {m['unit']}{n}")

    meta = run_metadata(args.seed)
    meta["workloads"] = {name: res["meta"]}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: v for k, v in res["metrics"].items() if k not in dict(REPORTED_ONLY)},
    }))
    return 0 if res["correct"] else 1


def run_all(args) -> int:
    """Run every workload in a child interpreter, in turn, and merge the
    results; metric names get the workload as a prefix."""
    meta = run_metadata(args.seed)
    meta["workloads"] = {}
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in H.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=str(H.ROOT)) as proc:
            try:
                lines = proc.communicate()[0].splitlines()
            except BaseException:
                proc.terminate()    # the child removes its work directory
                proc.wait()
                raise
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-2]))
        meta["workloads"].update(json.loads(lines[-2])["meta"]["workloads"])
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
