"""Command-line surface: identity suites, counting, singular-series
evaluation, and estimator experiments, with versioned CSV/JSON output.

Output contract: rows are data only (no timestamps, no timings; those go
to stderr), so a fixed configuration reproduces byte-identical output.
CSV carries a `# <schema> v1 columns=name:type,...` comment; the JSON
form is an array of objects with the same field names, and the two
round-trip losslessly (floats are emitted via repr; JSON writes a
non-finite float as null).

There is no config object: each `cmd_*` function reads the argparse
namespace, and every default lives once, in `build_parser`.  Each flag's
value is checked once, by its argparse type; what depends on two flags (a
residue that is not a unit, padding without paper weights, a padding
C N^eps that is not finite) is a ValueError from the command.  Either way
the exit code is 2.

Only the `verify` subcommand imports sqfrep.verify (and with it
sqfrep.oracle): SUITES maps each suite name to a function that imports it
when called.

Start-up: nothing in sqfrep calls BLAS (every matrix product is int64), so
the CLI sets OPENBLAS_NUM_THREADS=1 before numpy loads, which spares each
process the start of an OpenBLAS thread pool.  It does so only when numpy is
not yet imported and the variable is unset; a value set by the user wins.
The program entry (`entry`) then freezes the start-up heap before main
runs, so the collection at exit skips numpy's and sqfrep's objects.
"""

from __future__ import annotations

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import json
import math
import statistics
import time

import numpy as np

from sqfrep.arith import (
    DEFAULT_SEED,
    MAX_Q1_BOUND,
    MAX_Q2_BOUND,
    MAX_Q_BOUND,
    MAX_QPRIME_BOUND,
    MAX_R_BOUND,
    CapacityError,
    build_sieve,
    factorize,
    require_unit,
)
from sqfrep.counting import (
    MAX_THREADS,
    count_classes,
    count_representations,
    segmented_prime_sieve,
    segmented_squarefree_sieve,
)
from sqfrep.estimator import (
    EXACT_MODE,
    PAPER_MODE,
    bessel_defect,
    build_moduli_set,
    compute_weights,
    estimate_inner,
    log_summary,
    mirror_summary,
    per_q_breakdown,
)
from sqfrep.localmodel import ProgressionContext
from sqfrep.series import (
    DEFAULT_PRIME_CUTOFF,
    singular_series,
    singular_series_eulerform,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

# `estimate --weights paper` pads each weight by C N^eps: C and eps when
# --padding-constant and --padding-exponent are not given
PAPER_PADDING_CONSTANT = 1e4
PAPER_PADDING_EXPONENT = 0.1


def _suite(name: str):
    """The verify suite `name`, importing sqfrep.verify (and with it
    sqfrep.oracle) only when the suite runs."""

    def run(tables, **bounds):
        from sqfrep import verify

        return verify.SUITES[name](tables, **bounds)

    return run


# suite name -> runner; `verify` is the only subcommand that loads the suites
SUITES = {name: _suite(name) for name in ("arith", "local", "estimator")}

# the largest lift length `verify estimator --n` accepts
MAX_VERIFY_LENGTH = 10**6

# `estimate --q1` and `--q2` caps: the exact weights take 2.7 s at the corner
# (40, 6) on a 2-core x86 VM, at N = 100 and 10^5, and 18 s at (8, 24)
MAX_ESTIMATE_Q1 = 40
MAX_ESTIMATE_Q2 = 6

# build_sieve above this limit would dwarf any reasonable request; larger
# targets fail with a capacity error inside the counting layer instead
MAX_SIEVE_LIMIT = 1 << 26


SCHEMAS: dict[str, list[tuple[str, str]]] = {
    "sqfrep-compare": [
        ("N", "int"),
        ("q", "int"),
        ("a", "int"),
        ("weighted", "float"),
        ("series", "float"),
        ("ratio", "float"),
        ("tail_bound", "float"),
        ("vanished", "bool"),
    ],
    "sqfrep-count": [
        ("N", "int"),
        ("q", "int"),
        ("a", "int"),
        ("weighted", "float"),
        ("unweighted", "int"),
        ("lambda_weighted", "float"),
    ],
    "sqfrep-series": [
        ("N", "int"),
        ("a", "int"),
        ("q", "int"),
        ("p_cutoff", "int"),
        ("rudimentary_value", "float"),
        ("rudimentary_tail", "float"),
        ("euler_value", "float"),
        ("euler_tail", "float"),
        ("delta", "float"),
        ("vanished", "bool"),
    ],
    "sqfrep-estimate": [
        ("N", "int"),
        ("q1_bound", "int"),
        ("q2_bound", "int"),
        ("qprime", "int"),
        ("aprime", "int"),
        ("direct", "float"),
        ("estimate", "float"),
        ("series_times_n", "float"),
        ("defect_f", "float"),
        ("defect_g", "float"),
        ("rel_error_direct", "float"),
        ("rel_error_series", "float"),
    ],
    "sqfrep-estimate-per-q": [
        ("N", "int"),
        ("q", "int"),
        ("exceptional", "bool"),
        ("degenerate", "bool"),
        ("eta_norm_sq", "float"),
        ("kappa_norm_sq", "float"),
        ("m_phi", "float"),
        ("m_psi", "float"),
        ("f_phi", "float"),
        ("phi_g", "float"),
        ("f_psi", "float"),
        ("psi_g", "float"),
        ("contribution", "float"),
        ("predicted_f_phi", "float"),
        ("predicted_phi_g", "float"),
        ("predicted_f_psi", "float"),
        ("predicted_psi_g", "float"),
    ],
    "sqfrep-selftest": [
        ("lo", "int"),
        ("hi", "int"),
        ("squarefree_mismatches", "int"),
        ("prime_mismatches", "int"),
        ("ok", "bool"),
    ],
}


def _encode_cell(value, kind: str) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    return str(int(value))


def encode_csv(schema: str, rows: list[dict]) -> str:
    cols = SCHEMAS[schema]
    lines = [
        f"# {schema} v1 columns=" + ",".join(f"{n}:{t}" for n, t in cols),
        ",".join(n for n, _ in cols),
    ]
    for row in rows:
        lines.append(",".join(_encode_cell(row[n], t) for n, t in cols))
    return "\n".join(lines) + "\n"


def _json_cell(value, kind: str):
    if kind == "bool":
        return bool(value)
    if kind == "float":
        value = float(value)
        return value if math.isfinite(value) else None
    return int(value)


def encode_json(schema: str, rows: list[dict]) -> str:
    """JSON array of rows; a non-finite float becomes null (RFC 8259 has no
    Infinity or NaN)."""
    cols = SCHEMAS[schema]
    shaped = [{n: _json_cell(r[n], t) for n, t in cols} for r in rows]
    return json.dumps(shaped, indent=2, allow_nan=False) + "\n"


def parse_csv(text: str) -> tuple[str, list[dict]]:
    """Inverse of encode_csv, driven by the schema comment."""
    lines = text.strip().split("\n")
    header = lines[0]
    if not header.startswith("# ") or " columns=" not in header:
        raise ValueError("missing schema header comment")
    schema = header[2:].split(" ", 1)[0]
    cols = [
        tuple(part.split(":")) for part in header.split("columns=", 1)[1].split(",")
    ]
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        row = {}
        for (name, kind), cell in zip(cols, cells):
            if kind == "bool":
                row[name] = cell == "true"
            elif kind == "float":
                row[name] = float(cell)
            else:
                row[name] = int(cell)
        rows.append(row)
    return schema, rows


def _emit(schema: str, rows: list[dict], args) -> None:
    text = (
        encode_csv(schema, rows)
        if args.format == "csv"
        else encode_json(schema, rows)
    )
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def _tables_for(max_target: int):
    limit = max(20_000, math.isqrt(max(max_target, 1)) + 1)
    return build_sieve(min(limit, MAX_SIEVE_LIMIT))


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    """Run the suites in order, printing each suite's lines as soon as it
    finishes, so that a suite that raises leaves the earlier verdicts."""
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    tables = build_sieve(20_000)
    failures = 0
    for name in suites:
        kwargs = {}
        if name == "arith":
            if args.q_max is not None:
                kwargs["r_bound"] = args.q_max
        elif name == "local":
            if args.q_max is not None:
                kwargs["q_bound"] = args.q_max
            if args.qprime is not None:
                kwargs["qprime_bound"] = args.qprime
            kwargs["seed"] = args.seed
        else:
            if args.q1 is not None:
                kwargs["q1_bound"] = args.q1
            if args.q2 is not None:
                kwargs["q2_bound"] = args.q2
            if args.n is not None:
                kwargs["length_bound"] = args.n
            kwargs["seed"] = args.seed
        for r in SUITES[name](tables, **kwargs):
            if r.passed:
                print(f"PASS {r.name} cases={r.cases}")
            else:
                failures += 1
                print(
                    f"FAIL {r.name} cases={r.cases} failures={r.failures}"
                    f" counterexample: {r.counterexample}"
                )
            print(f"  {r.name}: {r.elapsed:.2f}s", file=sys.stderr)
        sys.stdout.flush()
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_compare(args) -> int:
    tables = _tables_for(max(args.n))
    q_values = [args.q] if args.q is not None else list(range(1, args.q_max + 1))
    if args.a is not None:
        for q in q_values:
            require_unit(args.a, q)
    rows = []
    consistent = True
    for n in args.n:
        fn = factorize(n, tables)
        started = time.perf_counter()
        counts = count_classes(n, q_values, tables, args.threads)
        elapsed = time.perf_counter() - started
        print(
            f"count N={n} classes={len(counts)}: {elapsed:.3f}s", file=sys.stderr
        )
        for q in q_values:
            fq = factorize(q, tables)
            residues = (
                [args.a % q]
                if args.a is not None
                else [a for a in range(q) if math.gcd(a, q) == 1]
            )
            for a in residues:
                sv = singular_series(fn, a, fq, args.p_cutoff)
                res = counts[q, a]
                if sv.vanished:
                    ratio = 0.0
                    if res.weighted != 0.0 or res.unweighted != 0:
                        consistent = False
                        print(
                            f"obstructed class (N={n}, q={q}, a={a}) has "
                            f"nonzero count {res.unweighted}",
                            file=sys.stderr,
                        )
                else:
                    ratio = res.weighted / (sv.value * n)
                rows.append(
                    {
                        "N": n,
                        "q": q,
                        "a": a,
                        "weighted": res.weighted,
                        "series": sv.value,
                        "ratio": ratio,
                        "tail_bound": sv.tail_bound,
                        "vanished": sv.vanished,
                    }
                )
    _emit("sqfrep-compare", rows, args)
    errors = [abs(r["ratio"] - 1.0) for r in rows if not r["vanished"]]
    if errors:
        med = statistics.median(errors)
        print(
            f"median |ratio-1| = {med:.4f} over {len(errors)} classes "
            f"(tolerance {args.tolerance})",
            file=sys.stderr,
        )
        if med > args.tolerance:
            return EXIT_VERIFY
    return EXIT_OK if consistent else EXIT_VERIFY


def _weighting(args) -> dict:
    """compute_weights keywords for --weights.  The padding flags are None
    unless given, and only the paper form reads them."""
    constant, exponent = args.padding_constant, args.padding_exponent
    if args.weights == "exact":
        if constant is not None or exponent is not None:
            raise ValueError(
                "--padding-constant and --padding-exponent need --weights paper"
            )
        return {"mode": EXACT_MODE}
    return {
        "mode": PAPER_MODE,
        "padding_constant": PAPER_PADDING_CONSTANT if constant is None else constant,
        "padding_exponent": PAPER_PADDING_EXPONENT if exponent is None else exponent,
    }


def cmd_estimate(args) -> int:
    weighting = _weighting(args)
    tables = _tables_for(max(args.n))
    fqp = factorize(args.qprime, tables)
    rows = []
    per_q_rows = []
    breached = False
    for n in args.n:
        ctx = ProgressionContext(n, args.aprime, args.qprime)
        ms = build_moduli_set(args.q1, args.q2, ctx, tables)
        f = log_summary(ctx, ms.members, tables)
        g = mirror_summary(n, ms.members, tables)
        try:
            w = compute_weights(ms, **weighting)
        except ValueError as exc:
            # what compute_weights rejects here is a paper padding C N^eps
            # that is not finite
            raise ValueError(
                f"--padding-constant / --padding-exponent at N={n}: {exc}"
            ) from exc
        # [f|g] is the von Mangoldt-weighted count; below 3 there is no n
        # with both f(n) and g(n) nonzero
        direct = (
            count_representations(n, ctx.residue, ctx.modulus, tables).lambda_weighted
            if n >= 3
            else 0.0
        )
        approx = float(estimate_inner(f, g, ms, w))
        sv = singular_series(factorize(n, tables), args.aprime, fqp, args.p_cutoff)
        series_n = sv.value * n
        defect_f = float(bessel_defect(f, ms, w))
        defect_g = float(bessel_defect(g, ms, w))
        if sv.vanished:
            # obstructed context: nothing to compare against, as in compare
            rel_direct = rel_series = 0.0
            print(
                f"N={n}: obstructed context (qprime={args.qprime}, "
                f"aprime={args.aprime})",
                file=sys.stderr,
            )
            if direct != 0:
                breached = True
                print(
                    f"obstructed context at N={n} has nonzero direct product "
                    f"{direct!r}",
                    file=sys.stderr,
                )
        else:
            rel_direct = abs(approx / direct - 1.0) if direct else math.inf
            rel_series = abs(approx / series_n - 1.0)
        rows.append(
            {
                "N": n,
                "q1_bound": args.q1,
                "q2_bound": args.q2,
                "qprime": args.qprime,
                "aprime": args.aprime,
                "direct": direct,
                "estimate": approx,
                "series_times_n": series_n,
                "defect_f": defect_f,
                "defect_g": defect_g,
                "rel_error_direct": rel_direct,
                "rel_error_series": rel_series,
            }
        )
        if args.weights == "exact" and (defect_f < 0 or defect_g < 0):
            breached = True
            print(f"negative defect at N={n}", file=sys.stderr)
        if rel_direct > args.tolerance or rel_series > args.tolerance:
            breached = True
            print(
                f"N={n}: estimate off by {rel_direct:.3f} (direct) / "
                f"{rel_series:.3f} (series), tolerance {args.tolerance}",
                file=sys.stderr,
            )
        if args.per_q:
            for row in per_q_breakdown(f, g, ms, w, tables):
                per_q_rows.append({"N": n, **row})
    if args.per_q:
        _emit("sqfrep-estimate-per-q", per_q_rows, args)
        for row in rows:
            print(
                f"N={row['N']}: direct={row['direct']!r} "
                f"estimate={row['estimate']!r}",
                file=sys.stderr,
            )
    else:
        _emit("sqfrep-estimate", rows, args)
    return EXIT_VERIFY if breached else EXIT_OK


def cmd_series(args) -> int:
    tables = _tables_for(max(args.n))
    fq = factorize(args.q, tables)
    rows = []
    for n in args.n:
        fn = factorize(n, tables)
        rud = singular_series(fn, args.a, fq, args.p_cutoff)
        eul = singular_series_eulerform(fn, args.a, fq, args.p_cutoff)
        rows.append(
            {
                "N": n,
                "a": args.a % fq.value,
                "q": fq.value,
                "p_cutoff": args.p_cutoff,
                "rudimentary_value": rud.value,
                "rudimentary_tail": rud.tail_bound,
                "euler_value": eul.value,
                "euler_tail": eul.tail_bound,
                "delta": abs(rud.value - eul.value),
                "vanished": rud.vanished,
            }
        )
    _emit("sqfrep-series", rows, args)
    return EXIT_OK


def cmd_count(args) -> int:
    tables = _tables_for(max(args.n))
    rows = []
    for n in args.n:
        started = time.perf_counter()
        res = count_representations(n, args.a, args.q, tables, args.threads)
        elapsed = time.perf_counter() - started
        print(f"count N={n}: {elapsed:.3f}s", file=sys.stderr)
        rows.append(
            {
                "N": n,
                "q": args.q,
                "a": args.a % args.q,
                "weighted": res.weighted,
                "unweighted": res.unweighted,
                "lambda_weighted": res.lambda_weighted,
            }
        )
    _emit("sqfrep-count", rows, args)
    return EXIT_OK


def _trial_division(lo: int, hi: int, primes: np.ndarray):
    """Square-free and prime flags of [lo, hi) by trial division against
    primes, sharing no code with the sieves it checks: n is square-free when
    no p^2 divides it, and prime when n >= 2 and no p <= sqrt(n) divides it.

    primes must include every prime up to sqrt(hi - 1).  Each p with p^2 up
    to the width is tried on every value.  A larger p^2 divides at most one
    value, the one at offset (-lo) mod p^2, and a larger p is tried only on
    the values no smaller prime has divided.
    """
    n = np.arange(lo, hi, dtype=np.int64)
    primes = primes[primes * primes < hi]
    squares = primes * primes
    whole = squares <= hi - lo
    squarefree = ~(n[:, None] % squares[whole] == 0).any(axis=1)
    offsets = (-lo) % squares[~whole]
    squarefree[offsets[offsets < hi - lo]] = False

    def divided(values, ps):
        column = values[:, None]
        return ((column % ps == 0) & (ps * ps <= column)).any(axis=1)

    left = np.flatnonzero((n >= 2) & ~divided(n, primes[whole]))
    rest = primes[~whole]
    for start in range(0, len(rest), 512):
        left = left[~divided(n[left], rest[start : start + 512])]
    prime = np.zeros(hi - lo, dtype=bool)
    prime[left] = True
    return squarefree, prime


def cmd_sieve_selftest(args) -> int:
    tables = build_sieve(20_000)
    top = tables.limit**2
    width = 4096
    rng = np.random.default_rng(args.seed)
    starts = [0, top - width]
    starts += sorted(int(x) for x in rng.integers(1, top - width, size=6))
    rows = []
    ok_all = True
    for lo in starts:
        hi = lo + width
        want_sf, want_pr = _trial_division(lo, hi, tables.primes)
        sf = segmented_squarefree_sieve(lo, hi, tables)
        pr = segmented_prime_sieve(lo, hi, tables)
        sf_bad = int(np.count_nonzero(sf != want_sf))
        pr_bad = int(np.count_nonzero(pr != want_pr))
        ok = sf_bad == 0 and pr_bad == 0
        ok_all = ok_all and ok
        rows.append(
            {
                "lo": lo,
                "hi": hi,
                "squarefree_mismatches": sf_bad,
                "prime_mismatches": pr_bad,
                "ok": ok,
            }
        )
    _emit("sqfrep-selftest", rows, args)
    return EXIT_OK if ok_all else EXIT_VERIFY


# ---------------------------------------------------------------------------
# wiring


def positive_int(text: str) -> int:
    """argparse type for every bound flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def bounded_int(top: int):
    """argparse type for a capped bound: an integer in [1, top]."""

    def parse(text: str) -> int:
        value = positive_int(text)
        if value > top:
            raise argparse.ArgumentTypeError(f"{text} is above the cap {top}")
        return value

    # argparse names the type in its message for a value that is no integer
    parse.__name__ = "int"
    return parse


def non_negative_int(text: str) -> int:
    """argparse type for --seed: an integer of at least 0, as numpy's
    default_rng takes."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative integer")
    return value


def prime_cutoff(text: str) -> int:
    """argparse type for --p-cutoff: an integer of at least 2."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"{text} is not an integer of at least 2")
    return value


def positive_float(text: str) -> float:
    """argparse type for tolerances and --padding-constant: a finite float
    above 0 (a nan tolerance would make every gate pass)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite number")
    return value


def finite_float(text: str) -> float:
    """argparse type for --padding-exponent: any finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return value


def _add_output_flags(sub, default_format: str = "csv") -> None:
    sub.add_argument("--format", choices=["csv", "json"], default=default_format)
    sub.add_argument("--out", default=None, help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sqfrep",
        description=(
            "Count N = p + square-free with p in a progression, evaluate the "
            "matching singular series, and run the exact verification suites."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run exact identity suites")
    v.set_defaults(run=cmd_verify)
    v.add_argument("suite", choices=[*SUITES, "all"])
    v.add_argument("--q-max", type=bounded_int(min(MAX_R_BOUND, MAX_Q_BOUND)),
                   default=None,
                   help="primary sweep bound (r for arith, q for local)")
    v.add_argument("--qprime", type=bounded_int(MAX_QPRIME_BOUND), default=None)
    v.add_argument("--q1", type=bounded_int(MAX_Q1_BOUND), default=None)
    v.add_argument("--q2", type=bounded_int(MAX_Q2_BOUND), default=None)
    v.add_argument("--n", type=bounded_int(MAX_VERIFY_LENGTH), default=None,
                   help="lift length for the estimator suite, at most "
                   f"{MAX_VERIFY_LENGTH}")
    v.add_argument("--seed", type=non_negative_int, default=DEFAULT_SEED)

    c = sub.add_parser(
        "compare", help="count vs singular-series prediction per progression"
    )
    c.set_defaults(run=cmd_compare)
    c.add_argument("--n", action="append", type=positive_int, required=True)
    # count_classes holds tables of O(q) entries: compare takes the paper's
    # small moduli only, and `count --q` any modulus
    c.add_argument("--q-max", type=bounded_int(MAX_Q_BOUND), default=12)
    c.add_argument("--q", type=bounded_int(MAX_Q_BOUND), default=None,
                   help=f"single modulus, at most {MAX_Q_BOUND}")
    c.add_argument("--a", type=int, default=None, help="single residue class")
    c.add_argument("--p-cutoff", type=prime_cutoff, default=DEFAULT_PRIME_CUTOFF)
    c.add_argument("--threads", type=bounded_int(MAX_THREADS), default=1)
    c.add_argument("--tolerance", type=positive_float, default=0.05,
                   help="gate on the median |ratio - 1| (default %(default)s)")
    _add_output_flags(c)

    e = sub.add_parser("estimate", help="bilinear estimator experiment")
    e.set_defaults(run=cmd_estimate)
    e.add_argument("--n", action="append", type=positive_int, required=True)
    e.add_argument("--qprime", type=positive_int, default=1)
    e.add_argument("--aprime", type=int, default=0)
    e.add_argument("--q1", type=bounded_int(MAX_ESTIMATE_Q1), default=8)
    e.add_argument("--q2", type=bounded_int(MAX_ESTIMATE_Q2), default=2)
    e.add_argument("--weights", choices=["exact", "paper"], default="exact")
    e.add_argument("--padding-constant", type=positive_float, default=None,
                   help="paper-form additive padding scale, --weights paper "
                   f"only (default {PAPER_PADDING_CONSTANT:g})")
    e.add_argument("--padding-exponent", type=finite_float, default=None,
                   help="paper-form padding exponent of N, --weights paper "
                   f"only (default {PAPER_PADDING_EXPONENT:g})")
    e.add_argument("--p-cutoff", type=prime_cutoff, default=DEFAULT_PRIME_CUTOFF)
    e.add_argument("--tolerance", type=positive_float, default=0.15,
                   help="gate on both relative errors (default %(default)s)")
    e.add_argument("--per-q", action="store_true",
                   help="emit the per-modulus breakdown table instead")
    _add_output_flags(e)

    s = sub.add_parser("series", help="both singular-series forms")
    s.set_defaults(run=cmd_series)
    s.add_argument("--n", action="append", type=positive_int, required=True)
    s.add_argument("--q", type=positive_int, default=1)
    s.add_argument("--a", type=int, default=0)
    s.add_argument("--p-cutoff", type=prime_cutoff, default=DEFAULT_PRIME_CUTOFF)
    _add_output_flags(s, default_format="json")

    n = sub.add_parser("count", help="representation counts by segmented sieve")
    n.set_defaults(run=cmd_count)
    n.add_argument("--n", action="append", type=positive_int, required=True)
    n.add_argument("--q", type=positive_int, default=1)
    n.add_argument("--a", type=int, default=0)
    n.add_argument("--threads", type=bounded_int(MAX_THREADS), default=1)
    _add_output_flags(n)

    t = sub.add_parser(
        "sieve-selftest", help="segmented sieves vs direct factorization"
    )
    t.set_defaults(run=cmd_sieve_selftest)
    t.add_argument("--seed", type=non_negative_int, default=DEFAULT_SEED)
    _add_output_flags(t)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.run(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> int:
    """The program entry of `python -m sqfrep.cli` and the `sqfrep` console
    script: freeze the start-up heap, then run main.

    gc.freeze() moves every object alive after the imports (the modules,
    functions and constants of numpy and sqfrep) to the permanent
    generation, which no collection visits, the interpreter's collection at
    exit included.  main itself never freezes, since tests and in-process
    benchmarks call it."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
