"""Benchmark of the lpadexpl CLI: one workload per process.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout; lpadexpl is imported from ``src/``.
Set-up (generating the workload's programs, writing them and a warm-up) runs
several times and reports its median.  Answers are worked out or loaded
next, outside set-up and timing.  The timed phase then calls
``lpadexpl.cli.main`` in-process, one query at a time, in whole seeded rounds
of the workload's catalogue, until ``--seconds`` have passed and enough
samples exist for p90; every answer is checked.  The last line printed is the
result: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  The line before it records the workload, seed and sample
counts, and the raw (unscaled) figures.

Times are reported in *reference* units (``ref_ms``, ``1/ref_s``, and
``setup_s``, whose unit reads ``s``): the measured time scaled by how fast
this machine runs right now.  A fixed pure-Python calibration loop,
independent of lpadexpl, runs between calls whenever 0.05 s have passed since
it last ran (twice, keeping the faster); a call's reference time is its
measured time times ``REF_CAL_S`` over the loop's time, averaging the scales
from the calibrations just before and just after the call.  On a shared
machine whose speed swings by a quarter within seconds, this keeps a run
comparable with the next one; a change to lpadexpl moves the call times and
not the loop's.  The record line carries the raw wall-clock figures too.

    python3 perfbench/run.py --frontier           # largest size within 1 s
    python3 perfbench/run.py --record-references  # rewrite references.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

#: Set-up repeats: at least the first, and until the second has passed too,
#: so that a quick set-up is timed many times; never more than the third.
SETUP_REPEATS = (5, 1.0, 50)
#: Enough samples that at least ten lie beyond p90.
MIN_SAMPLES = 110
#: Fresh interpreters per traced run, for cli.cold_ms and cli.import_ms.
FRESH_RUNS = 5

COLD_SNIPPET = (
    "import sys\n"
    "from lpadexpl.cli import entry\n"
    "sys.argv = ['lpadexpl'] + sys.argv[1:]\n"
    "entry()\n"
)
IMPORT_SNIPPET = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import lpadexpl.cli\n"
    "print(time.perf_counter() - start)\n"
)


#: The calibration loop's time on the machine the parent was measured on
#: (a shared 2-core x86 machine), so that reference times read about as milliseconds.
REF_CAL_S = 0.0055
CALIBRATE_EVERY_S = 0.05


@dataclass(frozen=True, slots=True)
class _Term:
    name: str
    args: tuple


def _calibration_loop():
    """Fixed interpreter work of the kinds lpadexpl does: dict, tuple and

    frozenset operations, frozen slotted dataclasses, hashing, recursion and
    string building."""
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    base = frozenset(range(0, 300, 3))
    size = 0
    for i in range(600):
        size += len(base | {i})
    terms = [_Term(f"p{i % 50}", (i % 7, f"c{i % 11}")) for i in range(1500)]
    index: dict[str, list[_Term]] = {}
    for term in terms:
        index.setdefault(term.name, []).append(term)

    def depth(k: int) -> int:
        return 0 if k == 0 else 1 + depth(k - 1)

    nested = sum(depth(30) for _ in range(60))
    union = frozenset().union(*(frozenset((t.args[0], j) for j in range(4)) for t in terms[:400]))
    return (
        sorted(counts.items()), size, len(set(terms)), nested, len(union), ",".join(sorted(index))
    )


class SpeedClock:
    """Converts measured seconds to reference seconds at the current speed."""

    def __init__(self):
        self.calibrate()

    def calibrate(self) -> float:
        """Time the loop twice and keep the faster, since being descheduled

        only ever adds time; return the new scale."""
        times = []
        for _ in range(2):
            start = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - start)
        self.loop_end, self.loop_s = time.perf_counter(), min(times)
        return REF_CAL_S / self.loop_s

    def scale(self) -> float:
        """Reference seconds per measured second; recalibrates when stale."""
        if time.perf_counter() - self.loop_end >= CALIBRATE_EVERY_S:
            return self.calibrate()
        return REF_CAL_S / self.loop_s


def _pin_to_one_cpu() -> set[int] | None:
    """Pin this process to one CPU and return the CPUs it had, so that the

    calibration loop always times the CPU the calls run on."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    except (AttributeError, OSError):
        return None
    return cpus


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _setup(name: str, seed: int, tiny: bool, clock: SpeedClock):
    """Set up repeatedly (``SETUP_REPEATS``) into fresh directories; keep the last.

    Returns the inputs and the median set-up time in seconds and in
    reference seconds."""
    from lpadexpl.cli import main

    least, least_s, most = (1, 0.0, 1) if tiny else SETUP_REPEATS
    times, ref_times, bench = [], [], None
    scale = clock.calibrate()
    for rep in range(most):
        if len(times) >= least and sum(times) >= least_s:
            break
        if bench is not None:
            shutil.rmtree(bench.workdir)
        workdir = OUT / f"work-{name}-{os.getpid()}-{rep}"
        start = time.perf_counter()
        workdir.mkdir(parents=True)
        bench = workloads.WORKLOADS[name](workdir, seed, tiny)
        workloads.warm(main, bench.ops)
        times.append(time.perf_counter() - start)
        after = clock.calibrate()
        ref_times.append(times[-1] * (scale + after) / 2)
        scale = after
    return bench, statistics.median(times), statistics.median(ref_times)


class Checker:
    """Judges one call's output against the workload's answers."""

    def __init__(self, recorded: bool, answers: dict[str, dict]):
        self.recorded = recorded
        self.answers = answers

    def __call__(self, op, rc, out: str) -> bool:
        reference = self.answers.get(op.key)
        if self.recorded:
            return workloads.recorded_answer(reference, rc, out)
        if rc != 0 or reference is None:
            return False
        return reference.get("sha256") == workloads.digest(out)


def _rounds(ops, rng: random.Random, seconds: float, min_samples: int):
    """Whole rounds of the catalogue, each in a seeded order, until both the

    time and the sample count are reached."""
    start = time.perf_counter()
    count = 0
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield from order
        count += len(order)
        if time.perf_counter() - start >= seconds and count >= min_samples:
            return


def _timed(main, sequence, check, clock: SpeedClock, tracer=None):
    """Run every call; return [(op, ms, reference ms, ok)] and the reference

    seconds the loop took, calibration excluded."""
    samples = []
    ref_wall = 0.0
    for op in sequence:
        before = clock.scale()
        start = time.perf_counter()
        if tracer is not None:
            tracer.query += 1
            span = tracer.begin("cli.main")
        t = time.perf_counter()
        rc, out = workloads.run_cli(main, op.argv)
        ms = 1000 * (time.perf_counter() - t)
        if tracer is not None:
            tracer.end(span)
        wall = time.perf_counter() - start
        scale = (before + clock.scale()) / 2
        samples.append((op, ms, ms * scale, check(op, rc, out)))
        ref_wall += wall * scale
    return samples, ref_wall


def _cold_ms(op, check, runs: int) -> tuple[float, list]:
    """Median wall ms of fresh interpreters running ``entry()`` on ``op``, one

    at a time, and their [(op, ms, ms, ok)] samples."""
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", COLD_SNIPPET, *op.argv],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=120,
        )
        ms = 1000 * (time.perf_counter() - start)
        samples.append((op, ms, ms, check(op, proc.returncode, proc.stdout)))
    return statistics.median(ms for _, ms, _, _ in samples), samples


def _import_ms(runs: int) -> float:
    """Median ms a fresh interpreter takes to import lpadexpl.cli."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=120, check=True,
        )
        times.append(1000 * float(proc.stdout))
    return statistics.median(times)


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    references: dict | None = None,
    tiny: bool = False,
) -> tuple[dict, dict]:
    """(run record, result object) for one workload.

    ``references`` replaces references.json; ``tiny`` shrinks every size,
    repeat and sample count to the least that exercises each path (smoke
    test)."""
    from lpadexpl.cli import main

    cpus = _pin_to_one_cpu()
    clock = SpeedClock()
    bench, raw_setup_s, setup_s = _setup(name, seed, tiny, clock)
    # Collections during the calls then traverse what the calls allocate, as
    # in a fresh CLI process, not everything set-up has left behind.
    gc.collect()
    gc.freeze()
    try:
        recorded = name in workloads.RECORDED
        if recorded:
            answers = references or json.loads(REFERENCES.read_text())
        else:
            answers = workloads.corpus_references(main, bench)
        check = Checker(recorded, answers)
        rng = random.Random(seed)
        min_samples = 1 if tiny else MIN_SAMPLES
        record = {"workload": name, "seed": seed, "catalogue": len(bench.ops),
                  "raw_setup_s": raw_setup_s}
        if trace:
            metrics, samples = _traced(main, bench, rng, seconds, check, clock, tiny, record)
        else:
            metrics, samples = _untraced(main, bench, rng, seconds, check, clock, min_samples, tiny)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        gc.unfreeze()
        shutil.rmtree(bench.workdir, ignore_errors=True)
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
    failed = sum(1 for *_, ok in samples if not ok)
    record.update(samples=len(samples), failed=failed,
                  stream=workloads.digest("\n".join(op.key for op, *_ in samples)),
                  raw_query_ms_p50=statistics.median(ms for _, ms, *_ in samples),
                  failed_ops=sorted({op.key for op, *_, ok in samples if not ok})[:20])
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def _untraced(main, bench, rng, seconds, check, clock, min_samples, tiny):
    """End-to-end metrics, set-up time aside."""
    timed, ref_wall = _timed(main, _rounds(bench.ops, rng, seconds, min_samples), check, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = sum(1 for *_, ok in timed if ok)

    def ref_ms(kind: str | None = None) -> list[float]:
        return [ref for op, _, ref, _ in timed if kind in (None, op.kind)]

    metrics = {
        "queries_per_s": (correct / ref_wall, "1/ref_s"),
        "query_ms_p50": (statistics.median(ref_ms()), "ref_ms"),
        "query_ms_p90": (_p90(ref_ms()), "ref_ms"),
        "prob_ms_p50": (statistics.median(ref_ms("prob")), "ref_ms"),
        "explain_ms_p50": (statistics.median(ref_ms("explain")), "ref_ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, timed


def _traced(main, bench, rng, seconds, check, clock, tiny, record):
    """Trace whole rounds for half the time, then replay the same calls

    untraced; the difference per call is the tracing overhead."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        sequence = _rounds(bench.ops, rng, seconds / 2, len(bench.ops))
        traced, traced_wall = _timed(main, sequence, check, clock, tracer)
    finally:
        tracer.restore()
    replay, replay_wall = _timed(main, [op for op, *_ in traced], check, clock)
    queries = len(traced)
    metrics = tracer.metrics(queries)
    metrics["trace.overhead_ms"] = (1000 * (traced_wall - replay_wall) / queries, "ref_ms/query")
    runs = 1 if tiny else FRESH_RUNS
    cold_ms, cold = _cold_ms(bench.cold, check, runs)
    metrics["cli.cold_ms"] = (cold_ms, "ms")
    metrics["cli.import_ms"] = (_import_ms(runs), "ms")
    spans = OUT / f"trace-{record['workload']}-seed{record['seed']}.jsonl"
    tracer.write(spans)
    record["spans"] = str(spans.relative_to(ROOT))
    return metrics, traced + replay + cold


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("chain", "negation", "deep", "corpus"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frontier", action="store_true",
                        help="probe each family's largest size answered within 1 s")
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json from the program as it is")
    args = parser.parse_args(argv)
    if not (SRC / "lpadexpl" / "cli.py").is_file():
        print(f"error: no lpadexpl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    OUT.mkdir(exist_ok=True)

    if args.frontier:
        import frontier

        print(json.dumps(frontier.probe(OUT, _child_env()), indent=1))
        return 0
    if args.record_references:
        from lpadexpl.cli import main as cli_main

        answers = {}
        for name in workloads.RECORDED:
            bench, *_ = _setup(name, 0, False, SpeedClock())
            try:
                answers.update(workloads.record(cli_main, bench.ops))
            finally:
                shutil.rmtree(bench.workdir)
        REFERENCES.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
