#!/usr/bin/env python3
"""End-to-end benchmark of the unclab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the CLI from ./src without an
install.  Workloads (see workloads.py): brackets, certificates, constants.

Each job is one CLI verb in a fresh interpreter, started as
[python, -c, "from unclab.cli import main; main()", ...] with PYTHONPATH set
to src, so it needs neither the console script nor a __main__ module.  One
client runs the jobs strictly one after another (a closed loop).

--trace 0 runs whole cycles of job kinds, at least 100 jobs, and stops at the
cycle boundary nearest to S seconds; it starts no job after 1.2 S seconds.
It reports the end-to-end metrics:
  jobs_per_s   checked jobs completed per second of wall time over the run
  job_s.p50    median wall time per job, process start to exit
  job_s.p90    90th percentile of the same; 100 jobs put 10 beyond it
  setup_s      median wall time of `--help`, a CLI call that does no work
  peak_rss_mb  largest ru_maxrss of any job, read with os.wait4
A job fails when it exits non-zero, prints malformed JSON or fails the
independent check of its report (oracles.py); `failed` over `attempted`
in the result line is the failed fraction.

--trace 1 replays the first whole cycles (at least 30 jobs) of the seed, each
job once plainly and once under trace_cli.py, and reports the per-layer
metrics of layers.py.  The job count is fixed rather than timed, so work
counts are exact for a seed and totals compare across commits.

The last line of stdout is the JSON result.  All inputs are generated from
--seed into .bench_work/ in the checkout and deleted at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

CLI = [sys.executable, "-c", "from unclab.cli import main; main()"]
E2E_UNITS = {"jobs_per_s": "1/s", "job_s.p50": "s", "job_s.p90": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 9
MIN_JOBS = 100          # so that at least ten jobs lie beyond the p90
OVERRUN = 1.2           # a slow machine gets fewer jobs, not a longer run
TRACE_MIN_JOBS = 30
LP_FIRST_CALL_SAMPLES = 3
JOB_TIMEOUT_S = 150


@dataclass
class Proc:
    wall_s: float
    code: int
    stdout: bytes
    stderr: str
    maxrss_kb: int


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "UNCLAB_CAPS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], errpath: Path, env: dict) -> Proc:
    """Run one process to its end; wall time covers start to exit."""
    with open(errpath, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Proc(wall, proc.returncode, out, err.read().decode(errors="replace"),
                    usage.ru_maxrss)


def evaluate(job: workloads.Job, proc: Proc):
    """(report or None, failure reason or None) for one finished job."""
    if proc.code != 0:
        return None, f"exit {proc.code}: {proc.stderr.strip()[-300:]}"
    try:
        report = json.loads(proc.stdout)
    except ValueError as e:
        return None, f"malformed JSON: {e}"
    try:
        oracles.expect(isinstance(report, dict) and report.get("verb") == job.kind,
                       "report names another verb")
        job.check(report)
    except oracles.CheckError as e:
        return report, str(e)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
        return report, f"report has an unexpected shape: {e!r}"
    return report, None


def check_all(results) -> dict[int, str]:
    """Failure reason per failed job index, including the grid <= LP pairs."""
    reports, failures = [], {}
    for job, proc in results:
        report, why = evaluate(job, proc)
        reports.append((job, report if why is None else None))
        if why is not None:
            failures[job.index] = f"job {job.index} ({' '.join(job.args[:1])}): {why}"
    for idx in workloads.grid_le_lp(reports):
        failures.setdefault(idx, f"job {idx} (constant): LP value is below its grid twin")
    return failures


def setup_times(workdir: Path, env: dict) -> list[float]:
    """Wall times of `--help`, after one unmeasured call that writes bytecode."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        proc = spawn(CLI + ["--help"], workdir / "stderr", env)
        if proc.code != 0 or b"bracket" not in proc.stdout:
            sys.exit(f"unclab --help failed (exit {proc.code}): {proc.stderr.strip()[-300:]}")
        if i:
            times.append(proc.wall_s)
    return times


def run_e2e(stream, seconds: int, workdir: Path, env: dict):
    setup = setup_times(workdir, env)
    results = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        cycles, partial = divmod(len(results), stream.cycle)
        # Stop on the cycle boundary nearest to `seconds`: here, unless the
        # next boundary, one mean cycle away, would be closer.
        if (not partial and len(results) >= MIN_JOBS
                and elapsed + elapsed / cycles / 2 >= seconds) or elapsed >= OVERRUN * seconds:
            break
        job = next(stream)
        results.append((job, spawn(CLI + job.args, workdir / "stderr", env)))
    wall = time.perf_counter() - start
    failures = check_all(results)
    times = [proc.wall_s for _, proc in results]
    p90 = statistics.quantiles(times, n=10)[-1]
    metrics = {
        "jobs_per_s": (len(results) - len(failures)) / wall,
        "job_s.p50": statistics.median(times),
        "job_s.p90": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(proc.maxrss_kb for _, proc in results) / 1024,
    }
    notes = [f"jobs {len(results)} in {wall:.1f} s, {sum(t > p90 for t in times)} beyond p90"]
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    return results, failures, metrics, notes


def run_trace(stream, seconds: int, workdir: Path, env: dict):
    totals = layers.LayerTotals()
    results, mismatched, plain_s, traced_s = [], {}, 0.0, 0.0
    start = time.perf_counter()
    for i in range(-(-TRACE_MIN_JOBS // stream.cycle) * stream.cycle):
        if time.perf_counter() - start > 3 * seconds:
            break
        job = next(stream)
        plain = spawn(CLI + job.args, workdir / "stderr", env)
        spans = workdir / f"spans{i}.json"
        traced = spawn([sys.executable, str(HERE / "trace_cli.py"), str(spans), str(i), *job.args],
                       workdir / "stderr", env)
        results += [(job, plain), (job, traced)]
        if traced.stdout != plain.stdout:
            mismatched[job.index] = f"job {job.index}: traced report differs from the plain one"
        if spans.exists():
            totals.add_job(spans)
            spans.unlink()
        plain_s += plain.wall_s
        traced_s += traced.wall_s
    failures = {**mismatched, **check_all(results)}
    lp_first = 0.0
    if any(job.kind == "constant" and "lp" in job.args for job, _ in results):
        samples = []
        for _ in range(LP_FIRST_CALL_SAMPLES):
            proc = spawn([sys.executable, "-c", layers.LP_FIRST_CALL], workdir / "stderr", env)
            if proc.code != 0:
                failures["lp-probe"] = f"LP first-call probe failed: {proc.stderr.strip()[-300:]}"
                break
            samples.append(float(proc.stdout))
        lp_first = statistics.median(samples) if samples else 0.0
    metrics = totals.metrics(traced_s / plain_s - 1 if plain_s else 0.0, lp_first)
    notes = [f"traced {len(results) // 2} jobs: plain {plain_s:.1f} s, traced {traced_s:.1f} s"]
    return results, failures, metrics, notes


def declared_metrics(trace: bool) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind: the running job is killed and the inputs deleted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "unclab" / "cli.py").is_file():
        sys.exit(f"no unclab sources under {ROOT / 'src'}; run from a full checkout")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        stream = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        run = run_trace if args.trace else run_e2e
        results, failures, metrics, notes = run(stream, args.seconds, workdir, child_env())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    declared = declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(metrics):
        sys.exit("BENCHMARK.json and the benchmark disagree on the metric names")
    for line in notes + list(failures.values())[:20]:
        print(line)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
    attempted = len({job.index for job, _ in results})
    print(f"failed {len(failures)} of {attempted} jobs")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
