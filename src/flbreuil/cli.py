"""Command-line workbench: generate instances, apply functors, run suites.

Verbs:
  gen        build a random instance (fl | kisin-gls | breuil-from-fl |
             breuil-from-kisin) and write it as JSON
  apply      apply a functor to a stored instance (mls: FL -> S-module,
             mfl: S-module -> FL)
  section    compute the phi-equivariant section of a stored S-module
  verify     run verification suites over a seed range; the round trips
             are the suites roundtrip-fl and roundtrip-breuil
  report     summarise a JSON-lines report file as verify does

Exit codes: 0 all checks pass, 1 check failures (for ``section``, a section
whose fixed-point certificate fails, ``"exact": false``), 2 usage errors.
Reports are JSON lines (sorted keys, no timing inside the records), so a
fixed (params, seed) pair reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import campaign as CAM
from . import functors as FU
from . import kisin as KI
from . import serialize as SER
from .ambient import shared_params
from .breuil import BreuilModule
from .errors import KernelError, NotStrong
from .fl import FLModule, _random_fl, _random_jumps, fl_validate
from .kisin import KisinModule, random_gls


def _add_params(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--p", type=int, default=3, help="odd prime (p > 2)")
    ap.add_argument("--f", type=int, default=1, help="residue degree")
    ap.add_argument("--Np", type=int, default=6, help="public p-adic precision")
    ap.add_argument("--Ngamma", type=int, default=None, help="divided-power truncation")
    ap.add_argument("--r", type=int, default=None, help="Hodge range bound (default p-2)")
    ap.add_argument("--a", type=int, default=-1, help="unit a with E(u) = u + p*a")
    ap.add_argument("--headroom", type=int, default=None, help="internal extra precision")


def _amb_kwargs(args) -> dict:
    r = args.r if args.r is not None else max(args.p - 2, 1)
    kw = {"p": args.p, "r": r, "f": args.f, "N_p": args.Np, "a": args.a}
    if args.Ngamma is not None:
        kw["N_gamma"] = args.Ngamma
    if args.headroom is not None:
        kw["headroom"] = args.headroom
    return kw


def _parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise ValueError("empty seed list")
    return out


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _parse_jumps(text: str | None, d: int, rng, amb):
    if text is None:
        return _random_jumps(amb, rng, d)
    return tuple(int(x) for x in text.split(","))


def _write(docs: list, path: str | None) -> None:
    """Each document as one line of compact sorted-key JSON, to the file
    at ``path``, or to stdout without a path."""
    text = "".join(json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str) + "\n"
                   for doc in docs)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_summary(summary: dict, prefix: str, file) -> int:
    """One line per suite of ``campaign._summarise``; 1 when a record failed."""
    for suite, s in summary.items():
        status = "ok" if s["fail"] == 0 else f"FAIL seeds={s['failing_seeds']}"
        print(f"{prefix}{suite:28s} pass={s['pass']:4d} fail={s['fail']:3d}  {status}",
              file=file)
    return 0 if all(s["fail"] == 0 for s in summary.values()) else 1


def _cmd_gen(args) -> int:
    import random

    amb = shared_params(**_amb_kwargs(args))
    rng = random.Random(f"gen:{args.kind}:{args.seed}")
    jumps = _parse_jumps(args.jumps, args.d, rng, amb)
    if args.kind == "fl":
        obj = _random_fl(amb, rng, args.d, jumps)
    elif args.kind == "kisin-gls":
        obj = random_gls(amb, rng, args.d, jumps=jumps)
    elif args.kind == "breuil-from-fl":
        obj = FU.fl_to_breuil(_random_fl(amb, rng, args.d, jumps))
    else:  # breuil-from-kisin, the last choice the parser allows
        obj = KI.kisin_to_breuil(random_gls(amb, rng, args.d, jumps=jumps))
    _write([SER.to_json(obj)], args.out)
    return 0


def _load_breuil(path: str, verb: str) -> BreuilModule:
    """The S-module stored at ``path``, a Kisin module base-changed first."""
    obj = SER.load(path)
    if isinstance(obj, KisinModule):
        obj = KI.kisin_to_breuil(obj)
    if not isinstance(obj, BreuilModule):
        raise KernelError(f"{verb} expects a BreuilModule (or KisinModule) file")
    return obj


def _cmd_apply(args) -> int:
    if args.functor == "mls":
        obj = SER.load(args.infile)
        if not isinstance(obj, FLModule):
            raise KernelError("apply mls expects an FLModule file")
        if not fl_validate(obj):
            raise NotStrong("apply mls expects a strong FL module (Ftil invertible)")
        out = FU.fl_to_breuil(obj)
    else:  # mfl, the other choice the parser allows
        B = _load_breuil(args.infile, "apply mfl")
        out = FU.breuil_to_fl(B, adjoin_zero_n=args.adjoin_zero_n).M
    _write([SER.to_json(out)], args.out)
    return 0


def _cmd_section(args) -> int:
    """Write the section document of a stored S-module (a Kisin module is
    base-changed first).  The section is computed to the N_p digits the
    document holds, which are those of the section computed at full
    precision (``functors.section_compute``).  Exit 1 when the fixed-point
    certificate fails (``"exact": false``); the document is written
    either way.

    The verb does not test strong divisibility: the iteration needs only
    p^r A_0^(-1) to be integral (else ``A0NotScaledIntegral``, exit 2),
    and its fixed-point certificate holds without it.  So a module that
    ``apply mfl`` refuses as not strongly divisible can still get an
    exact section here.  ``breuil_validate`` would add 14-19% to a
    rank-4 to rank-6 section task at p = 3 and 5."""
    B = _load_breuil(args.infile, "section")
    sec = FU.section_compute(B, prec=B.amb.N_p)
    _write([SER._section_to_json(B.amb, sec)], args.out)
    return 0 if sec.exact else 1


def _cmd_verify(args) -> int:
    params = _amb_kwargs(args)
    suites = args.suite or ["all"]
    if "all" in suites:
        suites = list(CAM.SUITES)
    seeds = _parse_seeds(args.seeds)
    config = {} if args.samples is None else {
        s: {CAM._SAMPLE_KEYS[s]: args.samples} for s in suites if s in CAM._SAMPLE_KEYS}
    # the context is built before any task, so a bad one is a usage error
    # rather than one kernel-error record per task
    shared_params(**params)
    t0 = time.time()
    records = CAM._run_campaign(params, suites, seeds, config, args.jobs)
    elapsed = time.time() - t0
    _write(records, args.out)
    code = _print_summary(CAM._summarise(records), "# ", sys.stderr)
    print(f"# elapsed {elapsed:.1f}s", file=sys.stderr)
    return code


def _cmd_report(args) -> int:
    records = []
    with open(args.infile, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{args.infile}:{lineno}: not JSON ({exc})") from None
            if not (isinstance(rec, dict) and isinstance(rec.get("suite"), str)
                    and isinstance(rec.get("ok"), bool) and type(rec.get("seed")) is int):
                raise ValueError(f"{args.infile}:{lineno}: not a report record (an object "
                                 "with a string 'suite', a boolean 'ok' and an integer 'seed')")
            records.append(rec)
    if not records:
        raise ValueError(f"{args.infile}: no report records")
    return _print_summary(dict(sorted(CAM._summarise(records).items())), "", sys.stdout)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: each ``parse_args``
    fills a new namespace, so no call sees another's arguments."""
    ap = argparse.ArgumentParser(prog="flbreuil", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("kind", choices=["fl", "kisin-gls", "breuil-from-fl", "breuil-from-kisin"])
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--jumps", type=str, default=None, help="comma list, ascending")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out", type=str, default=None)
    _add_params(g)
    g.set_defaults(fn=_cmd_gen)

    a = sub.add_parser("apply", help="apply a functor to a stored instance")
    a.add_argument("functor", choices=["mls", "mfl"])
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out", type=str, default=None)
    a.add_argument("--adjoin-zero-n", action="store_true",
                   help="read a Frobenius-only module as crystalline with trivial N")
    a.set_defaults(fn=_cmd_apply)

    s = sub.add_parser("section", help="compute the phi-equivariant section")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", type=str, default=None)
    s.set_defaults(fn=_cmd_section)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", action="append",
                   choices=sorted(CAM.SUITES) + ["all"],
                   help="repeatable; default all")
    v.add_argument("--seeds", type=str, default="1..10")
    v.add_argument("--samples", type=_positive_int, default=None,
                   help="per-seed sample count override")
    v.add_argument("--out", type=str, default=None)
    v.add_argument("--jobs", type=_positive_int, default=1)
    _add_params(v)
    v.set_defaults(fn=_cmd_verify)

    rp = sub.add_parser("report", help="summarise a JSONL report")
    rp.add_argument("--in", dest="infile", required=True)
    rp.set_defaults(fn=_cmd_report)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (KernelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
