"""Benchmark workloads: fixed lists of `sqfrep` CLI jobs.

Four job groups (`count`, `count-capped`, `estimate`, `verify`) each stress
one part of the program and can be run alone.  BENCHMARK.json runs them in
two workloads, `counting` and `exact`: on a 2-core VM whose speed swings by
a quarter over tens of seconds, runs of under a minute gave unsteady
medians, and a full series of such runs must stay under an hour.

The seed picks only the unit residue `a` and a small downward offset of N
for the `count` subcommand jobs, and is passed as `--seed` to the `verify`
jobs.  Every other input is fixed, so the work per run does not depend on
the seed and every seed's outputs are covered by `reference.json`.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

# Sizes are scaled so that one pass over a group takes about 3 to 4 s on a
# 2-core x86 box with Python 3.11 and numpy 2.4, and one pass over a
# workload about 7 s.
COUNT_N = 120_000_000
COMPARE_N = 3_000_000
CAPPED_N = 8_000_000
ESTIMATE_N = 100_000
FAMILY_N = 20_000
N_OFFSETS = 4

# The documented floor of the window cap: 1 Ki integers per window.
CAPPED_ENV = {"SQFREP_MAX_WINDOW_BYTES": "8192"}

# Why each group and workload exists is recorded in METRICS.md.
GROUPS = ("count", "count-capped", "estimate", "verify")
WORKLOADS = {"counting": ("count", "count-capped"), "exact": ("estimate", "verify")}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `sqfrep <argv>` with extra environment."""

    label: str
    argv: tuple[str, ...]
    env: dict = field(default_factory=dict, hash=False)


@contextmanager
def job_env(env: dict):
    """Run in-process code under a job's environment, restoring it after."""
    saved = {k: os.environ.get(k) for k in (*CAPPED_ENV, *env)}
    for k in saved:
        os.environ.pop(k, None)
    os.environ.update(env)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def unit_residues(q: int) -> list[int]:
    return [a for a in range(q) if math.gcd(a, q) == 1]


def count_inputs(seed: int, q: int) -> tuple[int, int]:
    """(residue a, downward offset of N) for a `count` job mod q."""
    units = unit_residues(q)
    return units[seed % len(units)], (seed // len(units)) % N_OFFSETS


def _count_argv(n: int, q: int, a: int, *extra: str) -> tuple[str, ...]:
    return ("count", "--n", str(n), "--q", str(q), "--a", str(a), *extra)


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The jobs of a workload or of a single job group."""
    if workload in WORKLOADS:
        return [job for group in WORKLOADS[workload] for job in jobs_for(group, seed)]
    if workload == "count":
        a, off = count_inputs(seed, 7)
        n = COUNT_N - off
        return [
            Job("count-t1", _count_argv(n, 7, a, "--threads", "1")),
            Job("count-t2", _count_argv(n, 7, a, "--threads", "2")),
            Job("compare", ("compare", "--n", str(COMPARE_N), "--q-max", "12")),
        ]
    if workload == "count-capped":
        a, off = count_inputs(seed, 3)
        return [Job("count-capped", _count_argv(CAPPED_N - off, 3, a), CAPPED_ENV)]
    if workload == "estimate":
        return [
            Job("estimate-default", ("estimate", "--n", str(ESTIMATE_N))),
            Job(
                "estimate-family",
                ("estimate", "--n", str(FAMILY_N), "--q1", "12", "--q2", "3"),
            ),
        ]
    if workload == "verify":
        s = str(seed)
        return [
            Job("verify-arith", ("verify", "arith", "--q-max", "80", "--seed", s)),
            Job(
                "verify-local",
                ("verify", "local", "--q-max", "24", "--qprime", "4", "--seed", s),
            ),
            Job("verify-estimator", ("verify", "estimator", "--seed", s)),
        ]
    raise KeyError(workload)


def all_jobs(workload: str) -> list[Job]:
    """Every distinct job the workload or group can run over all seeds."""
    seeds = range(N_OFFSETS * len(unit_residues(7)))
    seen: dict[str, Job] = {}
    for seed in seeds:
        for job in jobs_for(workload, seed):
            seen.setdefault(reference_key(job), job)
    return list(seen.values())


def reference_key(job: Job) -> str:
    """Jobs that must print the same bytes share a key: thread count and
    seed never change output."""
    parts = []
    skip = False
    for arg in job.argv:
        if skip:
            skip = False
            continue
        if arg in ("--threads", "--seed"):
            skip = True
            continue
        parts.append(arg)
    env = " ".join(f"{k}={v}" for k, v in sorted(job.env.items()))
    return (env + " " if env else "") + " ".join(parts)


def sieve_limit(jobs: list[Job]) -> int:
    """Sieve limit the CLI builds for these jobs: max(20000, isqrt(N) + 1)."""
    top = 1
    for job in jobs:
        argv = list(job.argv)
        if "--n" in argv and argv[0] != "verify":
            top = max(top, int(argv[argv.index("--n") + 1]))
    return max(20_000, math.isqrt(top) + 1)
