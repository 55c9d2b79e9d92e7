"""flatpencil benchmark: three seeded workloads, one command.

    python3 bench/run.py --workload cli-scenarios --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  One client drives the library in-process in
a closed loop: the next operation starts when the previous one has returned.
BLAS runs on ``BLAS_THREADS`` thread(s).

A run sets up (imports, generates one round of operations from the seed,
warms up each kind of operation once), then repeats the whole round for
about ``--seconds``.  Every operation is
judged: it fails if it raises, gives another verdict than the one expected,
or has a non-finite residual.

``--trace 0`` prints the end-to-end metrics; set-up is repeated in
``SETUP_SAMPLES`` fresh processes, started between rounds and spread over the
run so that they meet the same host as the rounds, and ``setup_s`` is their
median.
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics (see ``layers.py``), the tracing overhead, and the baseline
cross-check; the spans are written to ``bench/out/``.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5

#: (name, unit) of the end-to-end metrics, as in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("nodes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Record:
    label: str
    seconds: float
    nodes: int  # grid nodes verified; 0 when the operation failed
    failure: str | None


def run_round(ops, probe, tracer=None, first_id: int = 0) -> list[Record]:
    """Each operation once, in order, timed and judged."""
    from workloads import judge

    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(first_id + i)
        probe.take()
        t0 = time.perf_counter()
        try:
            result, failure = op.call(), None
        except Exception as exc:  # a raising operation is a failed operation
            result, failure = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        probed, nodes = probe.take()
        if failure is None:
            try:
                failure = judge(op.expected, op.outcome(result), probed)
            except Exception as exc:
                failure = f"unreadable result: {type(exc).__name__}: {exc}"
        records.append(Record(op.label, seconds, 0 if failure else nodes, failure))
    return records


def _time_left(start: float, rounds: int, seconds: float) -> bool:
    """Whether another round fits: it starts while at least half of an
    average round's time is left, so runs last about ``seconds``."""
    elapsed = time.perf_counter() - start
    return rounds == 0 or elapsed + 0.5 * elapsed / rounds < seconds


def measure(workload, probe, seconds: float, setup) -> tuple[list[Record], list[float]]:
    """Rounds for about ``seconds``, with ``SETUP_SAMPLES`` calls of ``setup``
    spread between them; the time spent in ``setup`` is not part of the run."""
    records: list[Record] = []
    setups: list[float] = []
    start, rounds = time.perf_counter(), 0
    while _time_left(start, rounds, seconds):
        if len(setups) * seconds <= (time.perf_counter() - start) * SETUP_SAMPLES:
            paused = time.perf_counter()
            setups.append(setup())
            start += time.perf_counter() - paused
        records += run_round(workload.ops, probe)
        rounds += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup())
    return records, setups


def measure_traced(workload, probe, seconds: float):
    """Untraced and traced rounds in turn; every round has the same inputs."""
    from tracing import Patches, Tracer

    tracer = Tracer()
    untraced: list[Record] = []
    traced: list[tuple[list[int], list[Record]]] = []
    start = time.perf_counter()
    while _time_left(start, len(traced), seconds):
        untraced += run_round(workload.ops, probe)
        first = len(traced) * len(workload.ops)
        patches = Patches()
        try:
            tracer.install(patches)
            records = run_round(workload.ops, probe, tracer, first)
        finally:
            patches.restore()
        traced.append((list(range(first, first + len(workload.ops))), records))
    return tracer, untraced, traced


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from process start to the first timed operation, in a fresh
    process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - t0
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {child.returncode})")
    return ready


def metadata() -> dict:
    """Recorded with every run, never gated."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(path.read_text().splitlines())
        for path in sorted((SRC / "flatpencil").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "src_flatpencil_lines": src_lines,
        "clients": 1,
        "loop": "closed",
    }


def _p50_ms(records: list[Record]) -> float:
    return 1e3 * statistics.median(r.seconds for r in records)


def _report_failures(records: list[Record]):
    failed = [r for r in records if r.failure]
    for r in failed[:5]:
        print(f"failed: {r.label}: {r.failure}", file=sys.stderr)
    return len(failed)


def _result(records: list[Record], metrics: dict) -> str:
    failed = _report_failures(records)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    })


def end_to_end(records: list[Record], setups: list[float]) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = sum(r.seconds for r in records)
    values = {
        "setup_s": statistics.median(setups),
        "op_ms.p50": _p50_ms(records),
        "nodes_per_s": sum(r.nodes for r in records) / timed,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(args, tracer, untraced, traced) -> dict:
    from layers import COUNTS, PER_LAYER, cross_check, round_metrics

    spans = tracer.arrays()
    rounds = [round_metrics(tracer, spans, ids) for ids, _ in traced]
    for other in rounds[1:]:
        if any(other[name] != rounds[0][name] for name in COUNTS if name in other):
            print("warning: work counts differ between traced rounds", file=sys.stderr)
    values = {
        name: rounds[0][name] if name in COUNTS
        else statistics.median(r[name] for r in rounds)
        for name in rounds[0]
    }
    traced_records = [r for _, records in traced for r in records]
    values["trace.ops"] = len(traced[0][1])
    values["trace.untraced_op_ms.p50"] = _p50_ms(untraced)
    values["trace.traced_op_ms.p50"] = _p50_ms(traced_records)
    values["trace.overhead_ms"] = values["trace.traced_op_ms.p50"] - values[
        "trace.untraced_op_ms.p50"]

    all_ids = [i for ids, _ in traced for i in ids]
    for row in cross_check(tracer, spans, all_ids):
        print(json.dumps({"crosscheck": row}))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used for setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "flatpencil" / "__init__.py").is_file():
        print(f"error: no flatpencil sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from tracing import Patches, ResidualProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload](args.seed)
    probe_patches = Patches()
    probe = ResidualProbe()
    probe.install(probe_patches)
    try:
        for warmup in workload.warmups:
            warmup()
        probe.take()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        print(json.dumps({"meta": metadata()}))
        if args.trace:
            tracer, untraced, traced = measure_traced(workload, probe, args.seconds)
            records = untraced + [r for _, rs in traced for r in rs]
            metrics = per_layer(args, tracer, untraced, traced)
        else:
            records, setups = measure(
                workload, probe, args.seconds,
                lambda: setup_sample(args.workload, args.seed))
            metrics = end_to_end(records, setups)
    finally:
        probe_patches.restore()
    print(_result(records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
