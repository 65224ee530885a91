"""The "exact answer within a second" frontier of each program family.

Every size runs in its own child interpreter, which caps its own address
space with ``resource.setrlimit`` before importing lpadexpl; the parent kills
it after a wall budget.  A blow-up is therefore recorded as ``limit`` (an
enumeration or depth limit, exit 2), ``memory`` (MemoryError, or killed by a
signal), ``recursion`` or ``timeout`` rather than as a time, and never stops
the probe.  Once a size times out or runs out of memory, the larger sizes of
that family are not run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import families
import workloads

BUDGET_S = 30
MEMORY_MB = 1024
WITHIN_S = 1.0

CHILD = """\
import contextlib, io, json, resource, sys, time
cap = int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from lpadexpl.cli import main
err = io.StringIO()
start = time.perf_counter()
try:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(sys.argv[2:])
    status = "ok" if rc == 0 else "limit" if "limit" in err.getvalue() else "error"
except MemoryError:
    status = "memory"
except RecursionError:
    status = "recursion"
except Exception as e:  # near the cap, a failed allocation can surface as another error
    status = "error " + type(e).__name__
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
if status.startswith("error") and rss > cap / 2**21:
    status = "memory"
print(json.dumps({"status": status, "seconds": seconds, "peak_rss_mb": rss,
                  "stderr": err.getvalue()[-200:]}))
"""


def _family_calls(workdir: Path):
    """(family, sizes, n -> argv) for the ROADMAP's baseline families."""

    def chain(n):
        files = workloads.write_program(workdir, f"chain{n}", families.chain(n))
        return ("prob", *files, "covid(p1)")

    def star(n):
        files = workloads.write_program(workdir, f"star{n}", families.star(n))
        return ("prob", files[0], "\\+covid(p1)", *files[1:])

    def duals(n):
        files = workloads.write_program(workdir, f"posstar{n}", families.positive_star(n))
        return ("duals", files[0], families.positive_star_explanations(n), *files[1:])

    def deep(n):
        files = workloads.write_program(workdir, f"deep{n}", families.deep(n))
        return ("prob", *files, "reach(n0)")

    return (
        ("chain prob covid(p1)", range(2, 6), chain),
        ("star prob \\+covid(p1)", range(3, 7), star),
        ("positive star duals of covid(p1)", range(6, 12), duals),
        ("deep prob reach(n0)", (40, 80, 120, 160, 200), deep),
    )


def _run(argv, env) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(MEMORY_MB), *argv],
            capture_output=True, text=True, env=env, timeout=BUDGET_S,
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "seconds": None}
    if proc.returncode < 0:
        return {"status": "memory", "seconds": None, "signal": -proc.returncode}
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"status": "error", "seconds": None, "stderr": proc.stderr[-200:]}


def probe(out_dir: Path, env: dict) -> dict:
    workdir = out_dir / "frontier"
    workdir.mkdir(parents=True, exist_ok=True)
    report = {"budget_s": BUDGET_S, "memory_mb": MEMORY_MB, "families": {}}
    try:
        for family, sizes, call in _family_calls(workdir):
            rows, frontier, blown = [], None, False
            for n in sizes:
                if blown:
                    rows.append({"n": n, "status": "not run"})
                    continue
                row = {"n": n, **_run(call(n), env)}
                rows.append(row)
                print(f"{family} n={n}: {row['status']} {row.get('seconds')}", file=sys.stderr)
                if row["status"] == "ok" and row["seconds"] <= WITHIN_S:
                    frontier = n
                blown = row["status"] in ("timeout", "memory")
            report["families"][family] = {"frontier_1s": frontier, "sizes": rows}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report
