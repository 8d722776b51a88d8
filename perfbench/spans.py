"""Traced run: each CLI job run in-process through `sqfrep.cli.main`, with a
span around every call the CLI makes into another sqfrep module.

sqfrep.cli imports its library functions by name, so while a job runs the
tracer swaps each of those names in the cli module's namespace for a
wrapper that opens a span.  The verify suites are reached through cli's
`SUITES` table and are wrapped there; `encode_csv` is cli's own output
step.  The calls traced are the ones the CLI makes, whatever they are, and
nothing under src/ is changed.

Each span holds its name (`<module>.<function>`), start, end, parent span,
job id and repeat, plus the counters read off the call's arguments and
result.  Counters marked "computed" in METRICS.md are derived from the
inputs, not measured inside the program.
"""

from __future__ import annotations

import inspect
import io
import math
import statistics
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from sqfrep import cli
from sqfrep.arith import build_sieve, factorize, primes_up_to
from sqfrep.counting import (
    DEFAULT_WINDOW,
    segmented_prime_sieve,
    segmented_squarefree_sieve,
    window_length,
)
from sqfrep.localmodel import model_diff, model_sum
from sqfrep.series import singular_series, singular_series_eulerform
from sqfrep.verify import SUITES

from workloads import CAPPED_ENV, CAPPED_N, COUNT_N, job_env

PROBE = "probe"
WINDOW_PROBE_REPEATS = 5
SERIES_PROBE_REPEATS = 3


class Tracer:
    """In-memory span store; spans are written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.job: str | None = None
        self.repeat = 0

    @contextmanager
    def span(self, name: str, **counters):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "job": self.job,
            "repeat": self.repeat,
            "start": time.perf_counter(),
            "end": None,
            **counters,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _base_prime_visits(n: int, length: int, primes) -> int:
    """Loop iterations over base primes in count_representations: the prime
    sieve of [lo, hi) and the mirror square-free sieve of [n-hi+1, n-lo+1)."""
    total = 0
    for lo in range(2, n, length):
        hi = min(lo + length, n)
        for top in (math.isqrt(hi - 1), math.isqrt(n - lo)):
            total += int(primes.searchsorted(top, side="right"))
    return total


def _primes_kept(fn, fq, cutoff: int) -> int:
    """Primes <= cutoff left in the series' bulk product (computed)."""
    excluded = {p for p, _ in fn.factors} | {p for p, _ in fq.factors}
    return len(primes_up_to(cutoff)) - sum(1 for p in excluded if p <= cutoff)


class TracedCli:
    """Runs CLI jobs through `cli.main` with spans around its library calls,
    returning the exit code and the bytes the CLI printed."""

    def __init__(self, tracer: Tracer) -> None:
        self.tr = tracer
        self.families: list[tuple] = []
        self._f = None  # the last lambda function built: tells bessel_defect(f) from (g)
        self._visits: dict[tuple, int] = {}
        self._hooks = {
            "counting.count_representations": self._on_count,
            "series.singular_series": self._on_series,
            "estimator.lambda_progression_function": self._on_lambda,
            "estimator.build_moduli_set": self._on_moduli,
            "estimator.compute_weights": self._on_weights,
            "estimator.bessel_defect": self._on_defect,
        }

    def run(self, job) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        self.tr.job = job.label
        with job_env(job.env), self._installed(), redirect_stdout(out), redirect_stderr(err):
            with self.tr.span(f"cli.{job.argv[0]}"):
                code = cli.main(list(job.argv))
        return code, out.getvalue(), err.getvalue()

    @contextmanager
    def _installed(self):
        saved = {
            name: obj
            for name, obj in vars(cli).items()
            if inspect.isfunction(obj)
            and obj.__module__.startswith("sqfrep.")
            and obj.__module__ != cli.__name__
        }
        saved["encode_csv"] = cli.encode_csv
        saved["SUITES"] = cli.SUITES
        try:
            for name, fn in saved.items():
                if name != "SUITES":
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    setattr(cli, name, self._wrap(f"{layer}.{fn.__name__}", fn))
            cli.SUITES = {
                suite: self._wrap(f"verify.{suite}", fn, self._on_suite)
                for suite, fn in saved["SUITES"].items()
            }
            yield
        finally:
            for name, obj in saved.items():
                setattr(cli, name, obj)

    def _wrap(self, name: str, fn, hook=None):
        hook = hook or self._hooks.get(name)
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.tr.span(name) as rec:
                result = fn(*args, **kwargs)
            if hook:
                hook(rec, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # counters, read after the call so that they stay out of its span

    def _on_count(self, rec, args, res) -> None:
        n, tables = args["target"], args["tables"]
        length = window_length()
        key = (n, length, len(tables.primes))
        if key not in self._visits:
            self._visits[key] = _base_prime_visits(n, length, tables.primes)
        rec.update(
            n=n,
            threads=args.get("threads", 1),
            capped=length != DEFAULT_WINDOW,
            windows=len(range(2, n, length)),
            base_prime_visits=self._visits[key],
            hits=res.unweighted,
        )

    def _on_series(self, rec, args, res) -> None:
        cutoff = args.get("prime_cutoff", cli.DEFAULT_PRIME_CUTOFF)
        rec["primes_kept"] = _primes_kept(args["n"], args["q"], cutoff)

    def _on_lambda(self, rec, args, f) -> None:
        self._f = f
        rec["f_support"] = len(f.indices)

    def _on_moduli(self, rec, args, ms) -> None:
        rec.update(
            family_size=len(ms.members),
            exceptional=len(ms.exceptional),
            degenerate=len(ms.degenerate),
            vector_entries=2 * sum(ms.members),
        )
        self.families.append((args["ctx"], ms.members))

    def _on_weights(self, rec, args, w) -> None:
        moduli = [*w.m_phi, *w.m_psi]
        rec["cross_pairs"] = len(moduli) ** 2
        rec["period_terms"] = sum(math.lcm(u, v) for u in moduli for v in moduli)

    def _on_defect(self, rec, args, res) -> None:
        rec["name"] += "_f" if args["h"] is self._f else "_g"

    def _on_suite(self, rec, args, results) -> None:
        rec["checks"] = {r.name: [r.cases, r.elapsed] for r in results}

    def probes(self) -> None:
        """Layer timings no CLI job isolates: single windows, both series
        forms, and the model vectors of every family the jobs built."""
        tr = self.tr
        tr.job = PROBE
        tables = build_sieve(20_000)
        with job_env(CAPPED_ENV):
            capped = window_length()
        for suffix, n, length in (("", COUNT_N, DEFAULT_WINDOW), ("_capped", CAPPED_N, capped)):
            for kind, sieve in (("prime", segmented_prime_sieve), ("squarefree", segmented_squarefree_sieve)):
                for _ in range(WINDOW_PROBE_REPEATS):
                    with tr.span(f"counting.{kind}_window{suffix}", lo=n - length, length=length):
                        sieve(n - length, n, tables)
        fn, fq = factorize(COUNT_N, tables), factorize(7, tables)
        for name, form in (("singular_series", singular_series), ("eulerform", singular_series_eulerform)):
            for _ in range(SERIES_PROBE_REPEATS):
                with tr.span(f"series.{name}_probe"):
                    form(fn, 1, fq)
        for ctx, members in self.families:
            with tr.span("localmodel.model_vectors", family_size=len(members)):
                for q in members:
                    fq = factorize(q, tables)
                    model_sum(ctx, fq, tables)
                    model_diff(ctx, fq, tables)
        self.families = []


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

ESTIMATOR_OPS = (
    "lambda_progression_function",
    "squarefree_mirror_function",
    "build_moduli_set",
    "compute_weights",
    "global_inner",
    "estimate_inner",
    "bessel_defect_f",
    "bessel_defect_g",
)
ESTIMATOR_METRIC = {
    "lambda_progression_function": "lambda_function",
    "squarefree_mirror_function": "mirror_function",
}
ESTIMATOR_COUNTS = (
    "f_support",
    "family_size",
    "exceptional",
    "degenerate",
    "cross_pairs",
    "period_terms",
)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: a span's duration minus its children's.  Only
    layers with spans appear: no job calls `localmodel` from the CLI."""
    child: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + _dur(s)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + _dur(s) - child.get(s["id"], 0.0)
    return out


def _repeat_values(spans: list[dict]) -> tuple[dict, dict]:
    """Timings and counts of one traced repeat."""
    jobs = [s for s in spans if s["job"] != PROBE]
    probes = [s for s in spans if s["job"] == PROBE]

    def total(name, job=None, pool=jobs):
        return sum(_dur(s) for s in pool if s["name"] == name and job in (None, s["job"]))

    def med_ms(name):
        vals = [_dur(s) for s in probes if s["name"] == name]
        return 1000 * statistics.median(vals)

    counts_spans = [s for s in jobs if s["name"] == "counting.count_representations"]
    t = {
        "counting.count_t1_s": total("counting.count_representations", "count-t1"),
        "counting.count_t2_s": total("counting.count_representations", "count-t2"),
        "counting.compare_count_s": total("counting.count_representations", "compare"),
        "counting.capped_count_s": total("counting.count_representations", "count-capped"),
        "localmodel.model_vectors_s": total("localmodel.model_vectors", pool=probes),
    }
    for kind in ("prime", "squarefree"):
        t[f"counting.{kind}_window_ms"] = med_ms(f"counting.{kind}_window")
        t[f"counting.{kind}_window_capped_ms"] = med_ms(f"counting.{kind}_window_capped")
    for name in ("singular_series", "eulerform"):
        t[f"series.{name}_s"] = med_ms(f"series.{name}_probe") / 1000
    for op in ESTIMATOR_OPS:
        t[f"estimator.{ESTIMATOR_METRIC.get(op, op)}_s"] = total(f"estimator.{op}")
    for suite in SUITES:
        t[f"verify.{suite}_s"] = total(f"verify.{suite}")
    for layer, secs in self_times(jobs).items():
        t[f"{layer}.self_s"] = secs
    for s in jobs:
        for check, (_, elapsed) in s.get("checks", {}).items():
            t[f"verify.{check}_s"] = t.get(f"verify.{check}_s", 0.0) + elapsed
    t1 = [s for s in counts_spans if s["job"] == "count-t1"]
    t["counting.sieved_per_s"] = (
        sum(s["n"] - 2 for s in t1) / t["counting.count_t1_s"] if t1 else 0.0
    )
    t["traced_list_s"] = sum(_dur(s) for s in jobs if s["parent"] is None)
    for s in jobs:
        if s["parent"] is None:
            covered = sum(_dur(c) for c in jobs if c["parent"] == s["id"])
            t[f"covered:{s['job']}"] = t.get(f"covered:{s['job']}", 0.0) + covered

    def csum(key, pool):
        return sum(s.get(key, 0) for s in pool)

    plain = [s for s in counts_spans if not s["capped"]]
    capped = [s for s in counts_spans if s["capped"]]
    series_calls = [s for s in jobs if s["name"] == "series.singular_series"]
    est = [s for s in jobs if s["name"].startswith("estimator.")]
    checks = {c: v[0] for s in jobs for c, v in s.get("checks", {}).items()}
    c = {
        "counting.windows": csum("windows", plain),
        "counting.capped_windows": csum("windows", capped),
        "counting.base_prime_visits": csum("base_prime_visits", plain),
        "counting.capped_base_prime_visits": csum("base_prime_visits", capped),
        "counting.hits": csum("hits", counts_spans),
        "counting.compare_classes": sum(1 for s in counts_spans if s["job"] == "compare"),
        "series.calls": len(series_calls),
        "series.primes_kept": csum("primes_kept", series_calls),
        "localmodel.vector_entries": csum("vector_entries", est),
        "verify.cases": sum(checks.values()),
        "verify.checks": len(checks),
    }
    for key in ESTIMATOR_COUNTS:
        c[f"estimator.{key}"] = csum(key, est)
    return t, c


def layer_metrics(spans: list[dict], untraced: list[dict[str, float]], names):
    """Per-layer metrics named in `names`: timings are medians over the
    traced repeats, counts must repeat exactly.  `untraced` holds, per
    repeat, each job label's untraced CLI wall time.  Returns (values, problems, and
    the medians of metrics the spans gave that `names` does not list, such
    as the self time of a layer the CLI starts calling directly)."""
    by_repeat: dict[int, list[dict]] = {}
    for s in spans:
        by_repeat.setdefault(s["repeat"], []).append(s)
    per_rep = [_repeat_values(by_repeat[r]) for r in sorted(by_repeat)]
    for (t, _), walls in zip(per_rep, untraced, strict=True):
        t["cli.unattributed_s"] = sum(
            wall - t.get(f"covered:{label}", 0.0) for label, wall in walls.items()
        )
        t["trace_overhead"] = t["traced_list_s"] / sum(walls.values())
    problems = [
        f"count {k} moved across repeats: {[c[k] for _, c in per_rep]}"
        for k in per_rep[0][1]
        if len({c[k] for _, c in per_rep}) != 1
    ]
    keys = set().union(*(t for t, _ in per_rep))
    med = {k: statistics.median(t.get(k, 0.0) for t, _ in per_rep) for k in keys}
    out = {k: 0.0 for k in names}
    out.update({k: v for k, v in med.items() if k in out})
    out.update(per_rep[0][1])
    builds = [_dur(s) for s in spans if s["name"] == "arith.build_sieve"]
    out["arith.build_sieve_s"] = statistics.median(builds)
    t1, t2 = med["counting.count_t1_s"], med["counting.count_t2_s"]
    out["counting.thread_speedup"] = t1 / t2 if t1 and t2 else 0.0
    internal = {"traced_list_s"} | {k for k in med if k.startswith("covered:")}
    unlisted = {k: med[k] for k in sorted(set(med) - internal - set(names))}
    return out, problems, unlisted
