"""qpaths benchmark: seeded CLI traffic, measured end to end and per layer.

One process, one client thread, closed loop: each request calls
``qpaths.cli.main(argv)`` in-process with stdout and stderr captured, and
the next request starts only after the previous one finished and its
output was checked.  Every CLI invocation builds a fresh ``ZCache``, as it
does for a user, so cache fill is paid on every request.

    python3 bench/run.py --workload correlate --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seconds 18

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each request
twice, once traced and once not (alternating which goes first), and prints
the per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the run's metadata and the cause of every failure.
Only the time inside ``cli.main`` (and its output capture) is measured;
setting up, checking outputs and collecting garbage between requests are not.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import calibration
import checks
import workloads
from tracer import LayerStats, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
TRACE_DIR = ROOT / ".bench_trace"

#: Seed whose outputs are also compared with recorded reference outputs.
DEFAULT_SEED = 0
#: Requests generated during set-up, and recorded per reference file.
PREGENERATED = 1000
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 11
#: Spans written out in full, from the first traced requests.
SPAN_DUMP_LIMIT = 20_000
#: A run stops starting requests after this many seconds of real time, so
#: that it ends within three minutes whatever --seconds asks for.
WALL_CAP_S = 150.0

#: Failures whose cause is known, as (command, request mode, cause, where it
#: comes from).  Any other failure makes the run incorrect.
KNOWN_FAILURES = (
    ("correlate", "float", "ZeroDivisionError at qpoly.py:246 in evaluate",
     "ROADMAP item 4: float evaluation underflows q^(n(n+1)) to 0, so the denominator vanishes"),
)
UNATTRIBUTED = "unattributed"


@dataclass
class Outcome:
    wall: float
    cpu: float
    calibration: float  # kernel time measured just before the request
    cause: Optional[str]  # None when the request succeeded
    stdout: Optional[str]  # dropped once the output is checked
    origin: Optional[str] = None  # where a failure comes from, set by check()


# -- set-up -----------------------------------------------------------------------


def import_program():
    """(Re-)import qpaths from this checkout's src/ and return its cli module."""
    for name in [n for n in sys.modules if n == "qpaths" or n.startswith("qpaths.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("qpaths.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qpaths was imported from {cli.__file__}, not from {SRC}")
    return cli


def load_reference(workload: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["requests"]


def setup(workload: str, seed: int):
    """Import the program, generate the first requests, load the references."""
    cli = import_program()
    stream = workloads.requests(workload, seed)
    first = list(itertools.islice(stream, PREGENERATED))
    reference = load_reference(workload)
    return cli, itertools.chain(first, stream), reference


# -- running one request ----------------------------------------------------------


def describe(exc: BaseException) -> str:
    """Exception type and the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno} in {frame.name}"


def execute(cli, request: workloads.Request, sweep_dir: Path, tracer: Optional[Tracer] = None) -> Outcome:
    """Run one request.  Never raises for the program's own exceptions:
    they become the request's failure cause."""
    argv = list(request.argv)
    if request.sweep_text is not None:
        path = sweep_dir / f"sweep-{request.index}.txt"
        path.write_text(request.sweep_text, encoding="utf-8")
        argv = [str(path) if a == workloads.SWEEP_FILE else a for a in argv]
    out, err = io.StringIO(), io.StringIO()

    def invoke():
        with redirect_stdout(out), redirect_stderr(err):
            return cli.main(argv)

    gc.collect()
    kernel_s = calibration.measure()
    cause = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code = tracer.call("bench.request", invoke) if tracer else invoke()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the program's failure, recorded and counted
        code, cause = None, describe(exc)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    stdout = out.getvalue()
    if cause is None and code not in (0, None):
        first_line = (err.getvalue().strip().splitlines() or [""])[0]
        cause = f"exit {code}: {first_line}"
    return Outcome(wall, cpu, kernel_s, cause, stdout)


def check(outcome: Outcome, request: workloads.Request, reference: Optional[list[dict]]) -> Outcome:
    """Fill in the outcome's cause from the output checks and attribute it.
    The output is dropped, so that a run's memory does not grow with the
    number of requests it makes."""
    if outcome.cause is None:
        try:
            problems = checks.check_output(request, outcome.stdout)
            if reference is not None and request.index < len(reference):
                problems += checks.compare_reference(reference[request.index], outcome.stdout)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems = [f"malformed output ({type(exc).__name__}: {exc})"]
        if problems:
            outcome.cause = f"check: {problems[0]}"
    if outcome.cause is not None:
        outcome.origin = attribute(request, outcome.cause)
    outcome.stdout = None
    return outcome


# -- metrics ----------------------------------------------------------------------


def attribute(request: workloads.Request, cause: str) -> str:
    for command, mode, known_cause, origin in KNOWN_FAILURES:
        if request.argv[0] == command and request.params.get("mode") == mode and cause == known_cause:
            return origin
    return UNATTRIBUTED


def failure_table(outcomes: list[Outcome]) -> list[dict]:
    counts: dict[tuple[str, str], int] = {}
    for o in outcomes:
        if o.cause is not None:
            counts[o.cause, o.origin] = counts.get((o.cause, o.origin), 0) + 1
    return [{"cause": c, "count": k, "origin": origin} for (c, origin), k in sorted(counts.items())]


def is_correct(outcomes: list[Outcome]) -> bool:
    """True when every failure is a known, attributed defect."""
    return all(o.origin not in (None, UNATTRIBUTED) for o in outcomes if o.cause is not None)


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timings(setup_times: list[float], walls: list[float], cpus: list[float], ok: list[bool]) -> dict:
    ok_walls = [w for w, good in zip(walls, ok) if good]
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": len(ok_walls) / sum(walls),
        "latency_p50_s": percentile(ok_walls, 50),
        "latency_p90_s": percentile(ok_walls, 90),
        "cpu_s_per_request": sum(cpus) / len(cpus),
    }


def end_to_end(setups: list[tuple[float, float]], outcomes: list[Outcome]) -> tuple[dict, dict]:
    """The end-to-end metrics, with timings scaled to the reference machine
    speed (see calibration.py), and the same timings unscaled."""
    f = calibration.factors([o.calibration for o in outcomes])
    g = calibration.factors([kernel_s for _, kernel_s in setups])
    ok = [o.cause is None for o in outcomes]
    scaled = timings([t * s for (t, _), s in zip(setups, g)], [o.wall * s for o, s in zip(outcomes, f)],
                     [o.cpu * s for o, s in zip(outcomes, f)], ok)
    scaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = timings([t for t, _ in setups], [o.wall for o in outcomes], [o.cpu for o in outcomes], ok)
    raw["calibration_median_s"] = statistics.median(o.calibration for o in outcomes)
    return scaled, raw


def metadata(workload: str, seed: int, outcomes: list[Outcome]) -> dict:
    failed = sum(o.cause is not None for o in outcomes)
    ok = [o for o in outcomes if o.cause is None]
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "attempted": len(outcomes),
        "succeeded": len(outcomes) - failed,
        "failed": failed,
        "failed_fraction": failed / max(len(outcomes), 1),
        "latency_samples": len(ok),
        "failures": failure_table(outcomes),
    }


def _commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qpaths").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- runs ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        kernel_s = calibration.measure()
        t0 = time.perf_counter()
        cli, stream, reference = setup(workload, seed)
        setups.append((time.perf_counter() - t0, kernel_s))
    if seed != DEFAULT_SEED:
        reference = None
    start = time.perf_counter()
    sweep_dir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        if trace:
            outcomes, metrics = traced_loop(cli, workload, seed, stream, reference, sweep_dir, seconds, start)
            unscaled = None
        else:
            # Requests run until their scaled wall time reaches ``seconds`` and
            # a block is complete, so the same requests run whatever the
            # machine's speed at the time, and every seed runs the same cost mix.
            outcomes = []
            measured = 0.0
            for request in stream:
                outcome = check(execute(cli, request, sweep_dir), request, reference)
                outcomes.append(outcome)
                recent = [o.calibration for o in outcomes[-2 * calibration.WINDOW - 1:]]
                measured += outcome.wall * calibration.REFERENCE_S / statistics.median(recent)
                if (measured >= seconds and request.ends_block) or time.perf_counter() - start > WALL_CAP_S:
                    break
            metrics, unscaled = end_to_end(setups, outcomes)
    finally:
        shutil.rmtree(sweep_dir, ignore_errors=True)
    meta = metadata(workload, seed, outcomes)
    if unscaled:
        meta["unscaled"] = unscaled
    return {
        "meta": meta,
        "result": {
            "correct": is_correct(outcomes),
            "attempted": meta["attempted"],
            "failed": meta["failed"],
            "metrics": metrics,
        },
    }


def traced_loop(cli, workload, seed, stream, reference, sweep_dir, seconds, start):
    """Each request runs untraced and traced, alternating which goes first,
    until the two together have measured ``seconds``."""
    tracer = Tracer()
    stats = LayerStats()
    outcomes: list[Outcome] = []
    wall = {True: 0.0, False: 0.0}  # keyed by "traced"
    ok = {True: 0, False: 0}
    dump = []
    dumped_spans = 0
    for request in stream:
        for traced in ((False, True) if request.index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    outcome = execute(cli, request, sweep_dir, tracer)
                finally:
                    tracer.uninstall()
                spans, caches = tracer.take()
                stats.add_request(spans, caches, len(outcome.stdout.encode()))
                if dumped_spans < SPAN_DUMP_LIMIT:
                    dump.append({"index": request.index, "argv": list(request.argv), "spans": spans})
                    dumped_spans += len(spans)
            else:
                outcome = execute(cli, request, sweep_dir)
            outcome = check(outcome, request, reference)
            outcomes.append(outcome)
            wall[traced] += outcome.wall
            ok[traced] += outcome.cause is None
        if wall[True] + wall[False] >= seconds or time.perf_counter() - start > WALL_CAP_S:
            break
    TRACE_DIR.mkdir(exist_ok=True)
    with open(TRACE_DIR / f"{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "requests": dump}, fh)
    metrics = stats.metrics(tracer.max_coeff_bits)
    metrics["trace.throughput_rps"] = ok[True] / wall[True]
    metrics["trace.untraced_throughput_rps"] = ok[False] / wall[False]
    metrics["trace.overhead"] = wall[True] / wall[False] - 1
    return outcomes, metrics


def with_units(metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def declared_units(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process (so peak memory is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.BLOCKS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        metrics = dict(result["metrics"])
        if not trace:
            metrics["failed_fraction"] = {"value": meta["failed_fraction"], "unit": "fraction"}
        print(f"== {workload}: {meta['attempted']} attempted, {meta['failed']} failed")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        for f in meta["failures"]:
            print(f"  failure x{f['count']}: {f['cause']}  [{f['origin']}]")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in metrics.items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BLOCKS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        units = declared_units("per_layer" if args.trace else "end_to_end")
    except (ImportError, OSError) as exc:
        print(f"error: cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    report["result"]["metrics"] = with_units(report["result"]["metrics"], units)
    print(json.dumps({"meta": report["meta"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
