"""sqfrep benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload counting --seed 1 --seconds 50 --trace 0

Runs from any directory; the repository root is the parent of this file's
directory and the program is imported from its `src`.  Each workload, or
single job group (`count`, `count-capped`, `estimate`, `verify`), is a
fixed list of `sqfrep` CLI jobs (see workloads.py) that one client runs in
a closed loop, one job at a time, until `--seconds` have passed (at least
twice).

--trace 0 reports the end-to-end metrics: wall and CPU time of the job
list (each job's median over the passes, summed), the largest peak RSS of
any job, the median set-up time of a fresh interpreter (one before each
job, so that the samples spread over the whole run), and the share of jobs
whose output passed the gate.
--trace 1 runs each job in-process through `sqfrep.cli.main`, right
before its untraced CLI run, with spans around every call the CLI
makes into another sqfrep module (spans.py), and reports the per-layer
metrics.  BENCHMARK.json names every metric and
unit; METRICS.md says what each one means and which end-to-end metric it
should move.

Every job's stdout is checked against reference.json and its SHA-256 is
recorded.  A results file with the run manifest goes to perfbench/out/,
and the traced run's spans to a JSON-lines file beside it.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gate
from workloads import GROUPS, WORKLOADS, job_env, jobs_for, reference_key, sieve_limit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"

JOB_TIMEOUT_S = 60
MIN_PASSES = 2
SETUP_CODE = (
    "import sqfrep.cli, sqfrep.arith; sqfrep.arith.build_sieve({limit}); "
    "print(sqfrep.__file__)"
)


def spawn(argv: list[str], env: dict) -> dict:
    """Run one process to completion; wall, CPU and peak RSS from wait4."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "exit_code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "stdout": out.read(),
            "stderr": err.read().decode(errors="replace")[-2000:],
        }


def cli_env(job_env: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SQFREP_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(job_env)
    return env


def cli_argv(job) -> list[str]:
    return [sys.executable, "-m", "sqfrep.cli", *job.argv]


def run_job(job, reference: dict) -> dict:
    """Run one CLI job and gate its output."""
    res = spawn(cli_argv(job), cli_env(job.env))
    out = res.pop("stdout")
    text = out.decode(errors="replace")
    rec = {"label": job.label, **res, "stdout_sha256": hashlib.sha256(out).hexdigest()}
    want = reference.get(reference_key(job))
    if res["exit_code"] != 0:
        rec["problem"] = f"exit code {res['exit_code']}"
    elif want is None:
        rec["problem"] = "no stored reference for this job"
    else:
        try:
            rec["problem"] = gate.compare(gate.parse_stdout(text), want["parsed"])
        except ValueError as exc:
            rec["problem"] = f"unparsable output: {exc}"
        rec["bytes_match_reference"] = rec["stdout_sha256"] == want["sha256"]
    if not rec["problem"]:
        rec.pop("stderr")
    return rec


def run_pass(jobs, reference: dict, before_job=None) -> list[dict]:
    """One pass over the job list; jobs that share a reference key (the
    count at 1 and 2 threads) must print identical bytes.  `before_job`,
    if given, is called with each job before it runs."""
    recs = []
    for job in jobs:
        if before_job:
            before_job(job)
        recs.append(run_job(job, reference))
    first: dict[str, dict] = {}
    for job, rec in zip(jobs, recs):
        other = first.setdefault(reference_key(job), rec)
        if other["stdout_sha256"] != rec["stdout_sha256"] and not rec["problem"]:
            rec["problem"] = f"stdout differs from {other['label']}"
    return recs


def source_sha256(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def manifest(args, jobs) -> dict:
    import numpy
    from sqfrep.counting import window_length

    def window(job):
        with job_env(job.env):
            return window_length()

    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(SRC.rglob("*.py")),
        "benchmark_sha256": source_sha256([*BENCH_DIR.glob("*.py"), BENCH_DIR / "reference.json"]),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [
            {
                "label": job.label,
                "argv": cli_argv(job),
                "env": {"PYTHONPATH": str(SRC), **job.env},
                "window_length": window(job),
                "threads": int(job.argv[job.argv.index("--threads") + 1])
                if "--threads" in job.argv
                else 1,
            }
            for job in jobs
        ],
    }


def measure_setup(limit: int) -> float:
    """A fresh interpreter importing sqfrep and building the sieve tables."""
    res = spawn([sys.executable, "-c", SETUP_CODE.format(limit=limit)], cli_env({}))
    where = Path(res["stdout"].decode().strip())
    if res["exit_code"] != 0 or SRC not in where.parents:
        raise RuntimeError(f"set-up failed or imported sqfrep from {where}")
    return res["wall_s"]


def per_job_median(passes: list[list[dict]], key: str) -> float:
    """Sum over the job list of each job's median over passes."""
    return sum(statistics.median(p[i][key] for p in passes) for i in range(len(passes[0])))


def untraced(args, jobs, reference) -> tuple[dict, dict]:
    limit = sieve_limit(jobs)
    setup = []
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        passes.append(run_pass(jobs, reference, lambda _: setup.append(measure_setup(limit))))
    recs = [r for p in passes for r in p]
    failed = sum(1 for r in recs if r["problem"])
    metrics = {
        "wall_s": per_job_median(passes, "wall_s"),
        "cpu_s": per_job_median(passes, "cpu_s"),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in recs),
        "setup_s": statistics.median(setup),
        "correct_frac": (len(recs) - failed) / len(recs),
    }
    detail = {"setup_samples_s": setup, "passes": passes}
    return metrics, {"attempted": len(recs), "failed": failed, "problems": [], **detail}


def traced(args, jobs, reference, names, count_names, man) -> tuple[dict, dict]:
    import spans

    started = time.perf_counter()
    tracer = spans.Tracer()
    traced_cli = spans.TracedCli(tracer)
    problems = []
    passes = []
    # Each job runs in-process with spans right before its untraced CLI
    # run, so the two times that cli.unattributed_s subtracts are taken
    # close together on a host whose speed drifts.
    while tracer.repeat < MIN_PASSES or time.perf_counter() - started < args.seconds:
        outputs = []
        recs = run_pass(jobs, reference, lambda job: outputs.append(traced_cli.run(job)))
        for job, rec, (code, text, err) in zip(jobs, recs, outputs):
            if code != 0:
                problems.append(f"in-process {job.label} exited {code}: {err[-500:]}")
            elif hashlib.sha256(text.encode()).hexdigest() != rec["stdout_sha256"]:
                problems.append(f"in-process {job.label} printed other bytes than the CLI")
        passes.append(recs)
        traced_cli.probes()
        tracer.repeat += 1
    untraced_walls = [{r["label"]: r["wall_s"] for r in recs} for recs in passes]
    metrics, moved, unlisted = spans.layer_metrics(tracer.spans, untraced_walls, names)
    problems += moved
    for name in unlisted:
        print(f"note: {name} is measured but not listed in BENCHMARK.json", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    with open(spans_path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    counts = {k: v for k, v in metrics.items() if k in count_names}
    problems += counts_moved_since_last_run(results_path(args), man, counts)
    recs = [r for p in passes for r in p]
    detail = {
        "attempted": 2 * len(recs),
        "failed": sum(1 for r in recs if r["problem"]) + len(problems),
        "problems": problems,
        "passes": passes,
        "repeats": tracer.repeat,
        "self_times_s": spans.self_times([s for s in tracer.spans if s["job"] != spans.PROBE]),
        "unlisted_metrics": unlisted,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def counts_moved_since_last_run(path: Path, man: dict, counts: dict) -> list[str]:
    """Counts must match the last traced run of the same code and seed."""
    if not path.exists():
        return []
    try:
        last = json.loads(path.read_text())
    except json.JSONDecodeError:
        return []
    same_code = all(
        last["manifest"].get(k) == man[k]
        for k in ("source_sha256", "benchmark_sha256")
    )
    if not same_code:
        return []
    return [
        f"count {k} is {v}, last run had {last['metrics'].get(k)}"
        for k, v in counts.items()
        if last["metrics"].get(k) != v
    ]


def results_path(args) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "sqfrep" / "cli.py").is_file():
        print(f"no sqfrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in (*WORKLOADS, *GROUPS):
        p.error(f"unknown workload {args.workload!r}; choose from {[*WORKLOADS, *GROUPS]}")
    spec = json.loads(SPEC.read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    count_names = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}

    jobs = jobs_for(args.workload, args.seed)
    reference = gate.load_reference()
    man = manifest(args, jobs)
    if args.trace:
        values, detail = traced(args, jobs, reference, list(units), count_names, man)
    else:
        values, detail = untraced(args, jobs, reference)
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for rec in (r for p in detail["passes"] for r in p if r["problem"]):
        detail["problems"].append(f"{rec['label']}: {rec['problem']}")
    results = {"manifest": man, "metrics": values, **detail}
    results_path(args).write_text(json.dumps(results, indent=1) + "\n")

    for problem in detail["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:13s} {name:44s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not detail["problems"] and detail["failed"] == 0,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
