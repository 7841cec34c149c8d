"""Record the reference outputs that the default seed is compared against.

    python3 bench/record_reference.py

Runs the first ``run.PREGENERATED`` requests of every workload's
default-seed stream (untimed), checks them, and writes
``bench/reference/<workload>.json``: for a request that passed its checks,
the SHA-256 of its exact fields and its float fields; for one that failed,
the cause.  Re-record only when a change is
meant to alter the program's outputs, and say why.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def record(workload: str) -> dict:
    cli = run.import_program()
    sweep_dir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=run.ROOT))
    entries = []
    try:
        for request in itertools.islice(workloads.requests(workload, run.DEFAULT_SEED), run.PREGENERATED):
            outcome = run.execute(cli, request, sweep_dir)
            stdout = outcome.stdout
            if run.check(outcome, request, None).cause is None:
                entries.append({"ok": True, **checks.digest(stdout)})
            else:
                entries.append({"ok": False, "cause": outcome.cause})
    finally:
        shutil.rmtree(sweep_dir, ignore_errors=True)
    return {"workload": workload, "seed": run.DEFAULT_SEED, "requests": entries}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.BLOCKS:
        data = record(workload)
        failed = sum(not e["ok"] for e in data["requests"])
        with open(run.REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{workload}: {len(data['requests'])} requests recorded, {failed} failed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
