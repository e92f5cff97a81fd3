"""Regenerate ``golden.json``: the digest of every task in every pool.

    python3 perfbench/golden.py

The digests are the benchmark's record of the verdicts, so regenerate them
only when a verdict is meant to change.  A pool task that raises, or whose
checks fail, is reported and nothing is written: a golden file only ever
records passing verdicts, and it is always written afresh.
"""

from __future__ import annotations

import json
import sys
import tempfile

import harness as H


def main() -> int:
    flb = H.import_flbreuil()
    golden, bad = {}, []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=str(H.ROOT)) as workdir:
        runner = H.Runner(flb, workdir)
        for name, wl in H.WORKLOADS.items():
            tasks = wl.pool_tasks()
            for i, task in enumerate(tasks, 1):
                out = runner.run(task)
                if out.error or out.checks_failed:
                    bad.append((out.key, out.error, out.checks_failed))
                else:
                    golden[out.key] = out.digest
                print(f"{name} {i}/{len(tasks)} {out.key} {out.seconds:.3f}s",
                      file=sys.stderr, flush=True)
    if bad:
        for key, error, failed in bad:
            print(f"not passing: {key} error={error} checks_failed={failed}",
                  file=sys.stderr)
        return 1
    with open(H.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
