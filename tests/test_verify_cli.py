"""Verification suites plus the command-line surface: exit codes, schema
round-trips, determinism, and the corrupted-fixture drill."""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np

from sqfrep import cli
from sqfrep.arith import (
    MAX_Q1_BOUND,
    MAX_Q2_BOUND,
    MAX_Q_BOUND,
    MAX_QPRIME_BOUND,
    MAX_R_BOUND,
    MAX_SEED,
    ramanujan_table,
    star_scale,
)
from sqfrep.cli import (
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    MAX_ESTIMATE_Q1,
    MAX_ESTIMATE_Q2,
    MAX_PRIME_CUTOFF,
    MAX_VERIFY_LENGTH,
    SCHEMAS,
    build_parser,
    encode_csv,
    encode_json,
    main,
    parse_csv,
)
from sqfrep.counting import (
    LOG_SCALE,
    MAX_THREADS,
    CountResult,
    count_representations,
    exact_class_sums,
    log_class_sums,
)
from sqfrep.oracle import scaled_star_rows
from sqfrep.verify import (
    CheckResult,
    run_arith_suite,
    run_estimator_suite,
    run_local_suite,
)
from oracles import squarefree_count_in_ap


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestSuites:
    def test_arith_suite_reduced_bounds(self, tables):
        results = run_arith_suite(tables, r_bound=40)
        assert results
        for r in results:
            assert r.passed, f"{r.name}: {r.counterexample}"
            assert r.cases > 0

    def test_local_suite_reduced_bounds(self, tables):
        results = run_local_suite(tables, q_bound=36, qprime_bound=6)
        names = {r.name for r in results}
        assert "squarefree-density-star-closed-form" in names
        assert "adjoint-identity" in names
        for r in results:
            assert r.passed, f"{r.name}: {r.counterexample}"

    def test_estimator_suite_reduced_bounds(self, tables):
        results = run_estimator_suite(tables, q1_bound=3, q2_bound=1, length_bound=400)
        for r in results:
            assert r.passed, f"{r.name}: {r.counterexample}"

    @pytest.mark.parametrize(
        "suite, keyword, cap",
        [
            (run_arith_suite, "r_bound", MAX_R_BOUND),
            (run_local_suite, "q_bound", MAX_Q_BOUND),
            (run_local_suite, "qprime_bound", MAX_QPRIME_BOUND),
            (run_estimator_suite, "q1_bound", MAX_Q1_BOUND),
            (run_estimator_suite, "q2_bound", MAX_Q2_BOUND),
        ],
    )
    @pytest.mark.parametrize("past", ["below", "above"])
    def test_suites_reject_bounds_past_their_caps(
        self, tables, suite, keyword, cap, past
    ):
        # the parser rejects these flags first, so only a library call
        # reaches the suites' own guards
        value = 0 if past == "below" else cap + 1
        want = rf"^{keyword} must lie in \[1, {cap}\], got {value}$"
        with pytest.raises(ValueError, match=want):
            suite(tables, **{keyword: value})


# Case counts printed by the three verify jobs of the benchmark; they pin
# the sweep ranges, which a vectorised check must cover case for case.
CASES_ARITH_80 = {
    "ramanujan-closed-form": 24080,
    "ramanujan-magnitude": 24080,
    "ramanujan-divisor-sum": 24080,
    "ramanujan-multiplicativity": 198465,
    "ramanujan-exponential-oracle": 8080,
    "divisor-detection": 3190,
    "ramanujan-orthogonality": 44200,
}
CASES_LOCAL_24_4 = {
    "squarefree-density-star-closed-form": 252,
    "density-periodicity": 252,
    "prime-density-multiplicativity": 124878,
    "prime-density-star-closed-form": 1512,
    "mirror-norm-identity": 84,
    "prime-norm-identity": 126,
    "model-norm-identities": 84,
    "model-norm-sandwich": 168,
    "mirror-prime-cross-product": 84,
    "prime-model-twist-closed-form": 126,
    "prime-model-twist-exponential": 84,
    "double-moebius-identity": 441,
    "adjoint-identity": 100,
}
CASES_ESTIMATOR = {
    "almost-orthogonality": 100,
    "bessel-defect-nonnegative": 20,
    "estimate-symmetry-bilinearity": 10,
    "exceptional-membership": 32,
}


class TestCaseCounts:
    @pytest.mark.parametrize(
        "argv, want",
        [
            (["verify", "arith", "--q-max", "80"], CASES_ARITH_80),
            (["verify", "local", "--q-max", "24", "--qprime", "4"], CASES_LOCAL_24_4),
            (["verify", "estimator", "--seed", "1"], CASES_ESTIMATOR),
        ],
    )
    def test_pinned_counts(self, argv, want, capsys):
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        got = {}
        for line in lines:
            status, name, cases = line.split(" ")
            assert status == "PASS"
            got[name] = int(cases.removeprefix("cases="))
        assert list(got) == list(want)
        assert got == want


def _small_local_suite(tables):
    return {
        r.name: r
        for r in run_local_suite(tables, q_bound=24, qprime_bound=6)
    }


class TestMutations:
    """Faults planted in what the vectorised checks read must be caught by
    the checks that own them."""

    def test_ramanujan_sign_flip_at_prime_power(self, tables, monkeypatch):
        def flipped(r):
            row = ramanujan_table(r)
            return -row if r.value == 9 else row

        monkeypatch.setattr("sqfrep.verify.ramanujan_table", flipped)
        results = run_arith_suite(tables, r_bound=20)
        by_name = {r.name: r for r in results}
        for name in ("ramanujan-closed-form", "ramanujan-divisor-sum"):
            assert not by_name[name].passed, name
            assert by_name[name].counterexample.startswith("r=9 "), name

    def test_shifted_star_row_fails_both_twist_checks(self, tables, monkeypatch):
        def shifted(contexts, q, periods=1):
            num, den = scaled_star_rows(contexts, q, periods)
            return np.roll(num, 1, axis=1), den

        monkeypatch.setattr("sqfrep.verify.scaled_star_rows", shifted)
        by_name = _small_local_suite(tables)
        for name in ("prime-model-twist-closed-form", "prime-model-twist-exponential"):
            assert not by_name[name].passed, name
            assert by_name[name].failures > 0

    def test_off_by_one_collect_fails_adjoint(self, tables, monkeypatch):
        def off_by_one(numerators, values, moduli):
            return [
                (counts, sums[-1:] + sums[:-1])
                for counts, sums in exact_class_sums(numerators, values, moduli)
            ]

        monkeypatch.setattr("sqfrep.verify.exact_class_sums", off_by_one)
        adjoint = _small_local_suite(tables)["adjoint-identity"]
        assert not adjoint.passed
        assert adjoint.counterexample.startswith("q=")

    def test_flipped_mobius_entry_fails_divisor_detection(self, tables):
        mobius = tables.mobius.copy()
        mobius[6] = -mobius[6]
        flipped = dataclasses.replace(tables, mobius=mobius)
        by_name = {r.name: r for r in run_arith_suite(flipped, r_bound=20)}
        detection = by_name.pop("divisor-detection")
        assert detection.failures == 379
        assert detection.counterexample == "a=6 d=1: -2"
        # no other arithmetic check reads the table
        assert all(r.passed for r in by_name.values())

    def test_untouched_small_suite_passes(self, tables):
        for r in _small_local_suite(tables).values():
            assert r.passed, r.name


class TestCorruptedFixture:
    """Flipping the sign of the star-vector scale must be caught, by the
    suite and through the CLI, with the broken check named."""

    def test_sign_flip_fails_named_check(self, tables, monkeypatch):
        monkeypatch.setattr(
            "sqfrep.verify.star_scale", lambda f: -star_scale(f)
        )
        results = run_local_suite(tables, q_bound=20, qprime_bound=4)
        by_name = {r.name: r for r in results}
        broken = by_name["squarefree-density-star-closed-form"]
        assert not broken.passed
        assert broken.failures > 0
        assert broken.counterexample

    def test_cli_reports_failure_and_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sqfrep.verify.star_scale", lambda f: -star_scale(f)
        )
        rc = main(["verify", "local", "--q-max", "20", "--qprime", "4"])
        out = capsys.readouterr().out
        assert rc == EXIT_VERIFY
        assert "FAIL squarefree-density-star-closed-form" in out
        assert "counterexample" in out

    def test_cli_passes_when_untouched(self, capsys):
        rc = main(["verify", "estimator", "--q1", "3", "--q2", "1", "--n", "300"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.strip()
        for line in out.strip().split("\n"):
            assert line.startswith("PASS ")
            assert "cases=" in line


class TestVerifyStreaming:
    """Each suite's lines are printed when that suite finishes, so a suite
    that raises leaves the earlier verdicts on stdout."""

    @staticmethod
    def _suite(name, failures=0):
        def run(tables, **kwargs):
            example = "n=1" if failures else None
            return [CheckResult(f"{name}-check", 3, failures, example, 0.0)]

        return run

    @staticmethod
    def _broken(tables, **kwargs):
        raise ValueError("suite broke")

    def test_earlier_suites_survive_a_raising_suite(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sqfrep.cli.SUITES",
            {
                "arith": self._suite("a"),
                "local": self._suite("b", failures=2),
                "estimator": self._broken,
            },
        )
        rc = main(["verify", "all"])
        captured = capsys.readouterr()
        assert rc == EXIT_USAGE
        assert captured.out == (
            "PASS a-check cases=3\n"
            "FAIL b-check cases=3 failures=2 counterexample: n=1\n"
        )
        assert "suite broke" in captured.err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_invalid_value(self, capsys):
        for argv in (
            ["count", "--n", "0"],
            ["compare", "--n", "1000", "--q-max", "0"],
            ["estimate", "--n", "1000", "--q1", "0"],
            ["verify", "arith", "--q-max", "0"],
            ["count", "--n", "1000", "--threads", "-1"],
            ["compare", "--n", "1000", "--tolerance", "0.0"],
            ["compare", "--n", "1000", "--p-cutoff", "1"],
            ["series", "--n", "1000", "--p-cutoff", "0"],
            ["estimate", "--n", "1000", "--p-cutoff", "1"],
            ["estimate", "--n", "1000", "--weights", "guesswork"],
            ["count", "--n", "1000", "--format", "xml"],
            ["estimate", "--n", "1000", "--weights", "paper", "--padding-constant", "inf"],
            ["estimate", "--n", "1000", "--weights", "paper", "--padding-constant", "0"],
            ["estimate", "--n", "1000", "--weights", "paper", "--padding-exponent", "inf"],
            ["estimate", "--n", "1000", "--weights", "paper", "--padding-exponent", "400"],
            ["verify", "all", "--q-max", "5", "--qprime", "2", "--seed", "-5"],
            ["sieve-selftest", "--seed", "-1"],
        ):
            assert main(argv) == EXIT_USAGE, argv
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "all", "--q-max", "5", "--qprime", "2", "--seed", "-5"],
            ["sieve-selftest", "--seed", "-1"],
        ],
    )
    def test_negative_seed_fails_before_any_work(self, argv, capsys):
        # numpy's default_rng used to reject it only after the arith suite
        # had printed its verdicts, in a message that named no flag
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed:" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "all", "--q-max", "5", "--qprime", "2", "--seed", str(1 << 64)],
            ["sieve-selftest", "--seed", str(1 << 64)],
        ],
    )
    def test_seed_past_the_key_fails_before_any_work(self, argv, capsys):
        # the seed keys a 64-bit stream: a larger one is capped by the parser
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: {1 << 64} is above the cap {(1 << 64) - 1}" in (
            captured.err
        )

    @pytest.mark.parametrize("command", [["verify", "all"], ["sieve-selftest"]])
    def test_seed_takes_the_cap(self, command):
        args = build_parser().parse_args([*command, "--seed", str((1 << 64) - 1)])
        assert args.seed == (1 << 64) - 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "estimator", "--n", "999999999"],
            ["verify", "estimator", "--n", "2000", "--n", "999999999"],
        ],
    )
    def test_verify_reads_the_last_n(self, argv, capsys):
        # --n is single-valued: a repeat used to be dropped, so the second
        # command ran at N = 2000 and exited 0
        assert main(argv) == EXIT_USAGE
        assert "argument --n:" in capsys.readouterr().err

    def test_verify_length_bound_names_the_flag(self, capsys):
        # the bound used to live only in the estimator suite, whose message
        # named its keyword length_bound, not the flag the user typed
        assert main(["verify", "estimator", "--n", "999999999"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --n:" in captured.err
        assert "length_bound" not in captured.err
        args = build_parser().parse_args(["verify", "estimator", "--n", "1000000"])
        assert args.n == 10**6
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "estimator", "--n", "1000001"])
        capsys.readouterr()

    @pytest.mark.parametrize(
        "suite, flag, cap, keyword",
        [
            ("arith", "--q-max", 1000, "r_bound"),
            ("local", "--qprime", 100, "qprime_bound"),
            ("estimator", "--q1", 20, "q1_bound"),
            ("estimator", "--q2", 5, "q2_bound"),
        ],
    )
    def test_verify_bounds_name_the_flag(self, suite, flag, cap, keyword, capsys):
        # each cap used to live only in its suite, whose message named the
        # library keyword, not the flag the user typed
        assert main(["verify", suite, flag, str(cap + 1)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}:" in captured.err
        assert keyword not in captured.err
        args = build_parser().parse_args(["verify", suite, flag, str(cap)])
        assert getattr(args, flag[2:].replace("-", "_")) == cap

    @pytest.mark.parametrize("flag", ["--q", "--q-max"])
    @pytest.mark.parametrize("value", ["1001", str(10**21)])
    def test_compare_moduli_are_capped(self, flag, value, capsys):
        # a modulus of 10**21 used to end in an OverflowError with exit 1,
        # the code of a breached gate, and 10**6 took 270 MB for one class
        argv = ["compare", "--n", "1000", flag, value, "--a", "1"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}:" in captured.err

    @pytest.mark.parametrize(
        "extra", [["--q1", "41"], ["--q2", "7"], ["--q1", "400"], ["--q2", "40"]]
    )
    def test_estimate_family_bounds_are_capped(self, extra, capsys):
        # --q1 8 --q2 40 and --q1 400 ran past a minute at N = 100
        assert main(["estimate", "--n", "100", *extra]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {extra[0]}: {extra[1]} is above the cap" in captured.err

    @pytest.mark.parametrize("bounds", [("40", "6"), ("30", "3"), ("12", "3")])
    def test_estimate_takes_family_bounds_up_to_the_caps(self, bounds):
        # parsed only: the corner of both caps takes about 3 s to run
        argv = ["estimate", "--n", "100", "--q1", bounds[0], "--q2", bounds[1]]
        args = cli.build_parser().parse_args(argv)
        assert (args.q1, args.q2) == tuple(map(int, bounds))

    @pytest.mark.parametrize("command", ["series", "compare", "estimate"])
    @pytest.mark.parametrize("value", [str(MAX_PRIME_CUTOFF + 1), str(10**13)])
    def test_prime_cutoff_is_capped(self, command, value, capsys, monkeypatch):
        # 10**13 used to ask numpy for a 9.09 TiB prime sieve and end in a
        # traceback with exit 1; the parser now rejects it before any sieve
        def refuse(limit):
            raise AssertionError(f"primes_up_to({limit}) ran")

        monkeypatch.setattr("sqfrep.series.primes_up_to", refuse)
        assert main([command, "--n", "1000", "--p-cutoff", value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --p-cutoff: {value} is above the cap" in captured.err

    @pytest.mark.parametrize("command", ["series", "compare", "estimate"])
    def test_prime_cutoff_takes_the_cap(self, command):
        # parsed only: series at the cap takes about 2 s
        argv = [command, "--n", "1000", "--p-cutoff", str(MAX_PRIME_CUTOFF)]
        assert build_parser().parse_args(argv).p_cutoff == MAX_PRIME_CUTOFF

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["estimate", "--n", "1000", "--qprime", "4", "--aprime", "2"],
                "--aprime 2 is not a unit mod --qprime 4",
            ),
            *(
                (
                    [command, "--n", "1000", "--q", "4", "--a", "2"],
                    "--a 2 is not a unit mod --q 4",
                )
                for command in ("count", "compare", "series")
            ),
            (
                ["compare", "--n", "1000", "--a", "2"],
                "--a 2 is not a unit mod 2 (--q-max 12)",
            ),
        ],
    )
    def test_non_unit_class_names_its_flags(self, argv, message, capsys, monkeypatch):
        # the library's "class 2 is not a unit mod 4" named neither flag;
        # the command now checks the pair before it builds any sieve
        def refuse(limit):
            raise AssertionError(f"build_sieve({limit}) ran")

        monkeypatch.setattr(cli, "build_sieve", refuse)
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"usage error: {message}"

    @pytest.mark.parametrize("command", ["count", "compare"])
    def test_threads_are_capped(self, command, capsys):
        # rejected by the parser, before a sieve or a thread is started
        argv = [command, "--n", "1000", "--threads", str(MAX_THREADS + 1)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --threads:" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "2", "--q", "1"],
            ["compare", "--n", "2", "--q-max", "2"],
            ["estimate", "--n", "2"],
        ],
    )
    def test_target_below_three_names_the_flag(self, argv, capsys):
        # the parser took 1 and 2: count and compare then failed on the
        # library's "target must be at least 3", which named no flag, and
        # estimate on its own gate, off by inf against a direct of 0
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --n: 2 is not an integer of at least 3" in captured.err

    def test_estimate_with_no_representation_fails_its_gate(self, capsys):
        # N = 3 with n = 3 mod 5 has no n <= N - 1 in the class, so direct is
        # 0: the relative error is infinite, printed as null, and the gate fails
        argv = ["estimate", "--n", "3", "--qprime", "5", "--aprime", "3"]
        assert main([*argv, "--format", "json"]) == EXIT_VERIFY
        captured = capsys.readouterr()
        (row,) = json.loads(captured.out, parse_constant=_reject_constant)
        assert row["direct"] == 0.0
        assert row["rel_error_direct"] is None
        assert "N=3: estimate off by inf (direct)" in captured.err

    def test_compare_takes_the_largest_small_modulus(self, tables, capsys):
        # one class, so its ratio is the gate's median: the exit code may be
        # either; the row must be there and exact
        assert main(["compare", "--n", "10000", "--q", "1000", "--a", "1"]) in (
            EXIT_OK,
            EXIT_VERIFY,
        )
        _, rows = parse_csv(capsys.readouterr().out)
        want = count_representations(10000, 1, 1000, tables).weighted
        assert want > 0
        assert [(r["q"], r["a"], r["weighted"]) for r in rows] == [(1000, 1, want)]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "400"])
    def test_padding_exponent_must_give_a_finite_padding(self, value, capsys):
        # inf used to pass the parser and fail the gate (exit 1); 400 made
        # C N^eps overflow inside compute_weights (a traceback, exit 1)
        argv = ["estimate", "--n", "1000", "--weights", "paper"]
        assert main([*argv, f"--padding-exponent={value}"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--padding-exponent" in err.splitlines()[-1]

    @pytest.mark.parametrize("command", ["compare", "estimate"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5"])
    def test_tolerance_must_be_positive_and_finite(self, command, value, capsys):
        # a nan tolerance makes `error > tolerance` false, so no gate could fail
        assert main([command, "--n", "1000", "--tolerance", value]) == EXIT_USAGE
        assert "--tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--padding-constant", "5"),
            ("--padding-exponent", "0.2"),
            ("--padding-constant", "1e4"),
        ],
    )
    def test_padding_needs_paper_weights(self, flag, value, capsys):
        argv = ["estimate", "--n", "2000", flag, value]
        assert main(argv) == EXIT_USAGE
        assert main([*argv, "--weights", "exact"]) == EXIT_USAGE
        assert "--weights paper" in capsys.readouterr().err

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        assert main(["count", "--n", "1000", "--out", str(target)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith("usage error: cannot write --out")
        assert not target.exists()

    def test_capacity_error(self, monkeypatch, capsys):
        # capacity is what the sieve tables cover: limit**2 for the largest
        # limit the CLI builds
        monkeypatch.setattr(cli, "MAX_SIEVE_LIMIT", 20_000)
        rc = main(["estimate", "--n", str(20_000**2 + 1)])
        err = capsys.readouterr().err
        assert rc == EXIT_CAPACITY
        assert "capacity" in err

    @pytest.mark.parametrize(
        "argv, code, key",
        [
            (["series", "--n", "10", "--q", "4294967311", "--a", "1"], EXIT_OK, "q"),
            # no prime p <= N - 1 in the class, so direct is 0 and the
            # command's own gate fails
            (
                ["estimate", "--n", "100000", "--qprime", "4294967311", "--aprime", "1"],
                EXIT_VERIFY,
                "qprime",
            ),
            # the per-q predictions take phi(q') from the CLI's factorization
            (
                [
                    "estimate", "--n", "100000", "--qprime", "4294967311",
                    "--aprime", "1", "--per-q",
                ],
                EXIT_VERIFY,
                "N",
            ),
        ],
    )
    def test_prime_modulus_past_the_target_tables(self, argv, code, key, capsys):
        # the prime 4294967311 is above 20_000**2, the reach of the tables
        # --n sized: it used to exit 3 with advice to rebuild the tables,
        # which no flag does; the modulus is now factored with tables that
        # cover it.  Every row echoes the value of the flag named by key
        assert main([*argv, "--format", "json"]) == code
        captured = capsys.readouterr()
        rows = json.loads(captured.out, parse_constant=_reject_constant)
        value = int(argv[argv.index(f"--{key.lower()}") + 1])
        assert rows and all(row[key] == value for row in rows)
        assert "capacity" not in captured.err

    def test_modulus_the_target_tables_factor_builds_no_larger_tables(
        self, monkeypatch, capsys
    ):
        # every prime factor of 10**20 is small: the tables --n needs factor
        # it, so no larger tables are built
        limits = []
        real = cli.build_sieve
        monkeypatch.setattr(
            cli, "build_sieve", lambda limit: limits.append(limit) or real(limit)
        )
        argv = ["estimate", "--n", "100000", "--qprime", str(10**20), "--aprime", "1"]
        assert main(argv) == EXIT_VERIFY
        capsys.readouterr()
        assert limits == [20_000]

    def test_target_past_int64_is_a_capacity_error(self, capsys):
        # the model vectors reduce the target mod q before the sieve bound
        # is checked, so it ends in the capacity check, not an OverflowError
        assert main(["estimate", "--n", str(1 << 63)]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capacity error" in captured.err

    def test_class_past_int64_reaches_the_tolerance_gate(self, capsys):
        argv = ["estimate", "--n", "100", "--qprime", str(10**21)]
        argv += ["--aprime", str(10**20 + 1)]
        assert main(argv) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "tolerance" in captured.err.splitlines()[-1]
        assert captured.out.startswith("# sqfrep-estimate")

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()


# The argv fuzz.  Per subcommand, each integer flag with a cap, as (flag,
# small value, cap).  A run passes every such flag at its small value, so
# no suite or sieve runs at a default bound, except one flag set to an
# edge: its cap, cap + 1, or a value argparse may reject.
_CAPPED = {
    "verify": (
        ("--q-max", 1, min(MAX_R_BOUND, MAX_Q_BOUND)),
        ("--qprime", 1, MAX_QPRIME_BOUND),
        ("--q1", 1, MAX_Q1_BOUND),
        ("--q2", 1, MAX_Q2_BOUND),
        ("--n", 10, MAX_VERIFY_LENGTH),
        ("--seed", 0, MAX_SEED),
    ),
    "compare": (
        ("--q-max", 3, MAX_Q_BOUND),
        ("--p-cutoff", 100, MAX_PRIME_CUTOFF),
        ("--threads", 1, MAX_THREADS),
    ),
    "estimate": (
        ("--q1", 2, MAX_ESTIMATE_Q1),
        ("--q2", 1, MAX_ESTIMATE_Q2),
        ("--p-cutoff", 100, MAX_PRIME_CUTOFF),
    ),
    "series": (("--p-cutoff", 100, MAX_PRIME_CUTOFF),),
    "count": (("--threads", 1, MAX_THREADS),),
    "sieve-selftest": (("--seed", 0, MAX_SEED),),
}
# values argparse rejects for --n, which has no cap: 10**20 would pass and
# build the largest sieve the CLI allows
_BAD_N = ("0", "-1", "nan", "inf", "abc")
# the verify suite that reads each verify flag
_SUITE_OF = {"--q-max": "local", "--qprime": "local", "--seed": "local"}


def _fuzz_argv(command, edge, extra):
    """argv for command with its capped flags small but edge = (flag,
    value), then the words of extra."""
    argv = [command]
    for flag, small, _ in _CAPPED[command]:
        argv += [flag, edge[1] if flag == edge[0] else str(small)]
    return [*argv, *extra]


def _every_cap():
    """argv that put each capped flag at its cap and at cap + 1, at the
    least work: N = 3, one class per modulus for compare (every unit class
    mod q <= 1000 takes 6 s), and for verify the one suite that reads the
    flag (the arith suite at --q-max 1000 alone takes 0.8 s)."""
    for command, flags in _CAPPED.items():
        for flag, _, cap in flags:
            extra = {
                "verify": [_SUITE_OF.get(flag, "estimator")],
                "compare": ["--n", "3", "--a", "1"],
                "sieve-selftest": [],
            }.get(command, ["--n", "3"])
            for value in (cap, cap + 1):
                yield _fuzz_argv(command, (flag, str(value)), extra)


@st.composite
def _drawn_argv(draw):
    """argv of a drawn subcommand: N <= 10**5 or a rejected N, and perhaps
    one capped flag at cap + 1 or a value argparse may reject (_every_cap
    runs the caps themselves)."""
    command = draw(st.sampled_from(sorted(_CAPPED)))
    flag, _, cap = draw(st.sampled_from(_CAPPED[command]))
    edge = (None, None)
    if draw(st.booleans()):
        edge = flag, draw(st.sampled_from((str(cap + 1), *_BAD_N, str(10**20))))
    if command == "verify":
        suite = draw(st.sampled_from(("arith", "local", "estimator", "all")))
        return _fuzz_argv(command, edge, [suite])
    extra = []
    if command != "sieve-selftest":
        n = st.one_of(st.integers(3, 10**5), st.integers(1, 2), st.sampled_from(_BAD_N))
        for value in draw(st.lists(n, min_size=1, max_size=2)):
            extra += ["--n", str(value)]
    if command in ("count", "series"):
        q = draw(st.integers(1, 30))
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        a = draw(st.one_of(st.sampled_from(units), st.integers(-3, 30)))
        extra += ["--q", str(q), "--a", str(a)]
    if command == "estimate":
        extra += ["--weights", draw(st.sampled_from(("exact", "paper")))]
    extra += ["--format", draw(st.sampled_from(("csv", "json")))]
    return _fuzz_argv(command, edge, extra)


def _at_every_cap(test):
    """test with one explicit example per argv of _every_cap."""
    for argv in _every_cap():
        test = example(argv=argv, window_bytes=None)(test)
    return test


class TestSafetyGates:
    """A result the mathematics rules out fails its command with exit 1,
    and the rows still print.  Each fault is planted on a name `cli` calls;
    unplanted, each command exits 0."""

    def _run(self, argv, capsys):
        code = main([*argv, "--format", "json"])
        out, err = capsys.readouterr()
        return code, json.loads(out, parse_constant=_reject_constant), err

    def test_obstructed_class_with_a_nonzero_count(self, monkeypatch, capsys):
        # 3001 ≡ 1 (mod 4): N - p is divisible by 4 for every p ≡ 1 (mod 4)
        argv = ["compare", "--n", "3001", "--q", "4"]
        assert self._run(argv, capsys)[0] == EXIT_OK
        real = cli.count_classes

        def planted(n, q_values, tables, threads):
            counts = real(n, q_values, tables, threads)
            counts[4, 1] = counts[4, 3]
            return counts

        monkeypatch.setattr(cli, "count_classes", planted)
        code, rows, err = self._run(argv, capsys)
        assert code == EXIT_VERIFY
        line = "obstructed class (N=3001, q=4, a=1) has nonzero count "
        assert any(x.startswith(line) for x in err.splitlines())
        assert [(r["a"], r["vanished"]) for r in rows] == [(1, True), (3, False)]

    def test_obstructed_context_with_a_nonzero_direct(self, monkeypatch, capsys):
        argv = ["estimate", "--n", "1001", "--qprime", "4", "--aprime", "1"]
        assert self._run(argv, capsys)[0] == EXIT_OK
        monkeypatch.setattr(
            cli, "count_representations", lambda *args: CountResult(1, LOG_SCALE, 0)
        )
        code, rows, err = self._run(argv, capsys)
        assert code == EXIT_VERIFY
        assert (
            "obstructed context at N=1001 has nonzero direct product 1.0"
            in err.splitlines()
        )
        assert [(r["N"], r["direct"]) for r in rows] == [(1001, 1.0)]

    def test_negative_defect_under_exact_weights(self, monkeypatch, capsys):
        argv = ["estimate", "--n", "3001"]
        assert self._run(argv, capsys)[0] == EXIT_OK
        monkeypatch.setattr(cli, "bessel_defect", lambda h, ms, w: Fraction(-1))
        code, rows, err = self._run(argv, capsys)
        assert code == EXIT_VERIFY
        assert "negative defect at N=3001" in err.splitlines()
        assert [(r["defect_f"], r["defect_g"]) for r in rows] == [(-1.0, -1.0)]


class TestArgvFuzz:
    """cli.main over drawn argv and window caps lets no exception escape,
    exits 0-3, prints nothing on a usage error and strict JSON when it prints
    rows."""

    @_at_every_cap
    @settings(max_examples=200)
    @given(
        argv=_drawn_argv(),
        window_bytes=st.sampled_from((None, "0", "1", "8191", "abc")),
    )
    def test_argv_keep_the_contract(self, argv, window_bytes):
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            if window_bytes is None:
                mp.delenv("SQFREP_MAX_WINDOW_BYTES", raising=False)
            else:
                mp.setenv("SQFREP_MAX_WINDOW_BYTES", window_bytes)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_CAPACITY)
        if code == EXIT_USAGE:
            assert out.getvalue() == ""
        if code in (EXIT_OK, EXIT_VERIFY) and "json" in argv:
            # rows print on a failed gate too
            json.loads(out.getvalue(), parse_constant=_reject_constant)


def _recorder(monkeypatch, owner, name):
    """Replace owner.name with a pass-through that keeps each call's
    arguments by parameter name."""
    real = getattr(owner, name)
    signature = inspect.signature(real)
    calls = []

    def record(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return calls


class TestFlagPlumbing:
    """Every flag set away from its default reaches the library call that
    reads it."""

    def test_compare(self, monkeypatch, tmp_path, capsys):
        classes = _recorder(monkeypatch, cli, "count_classes")
        series = _recorder(monkeypatch, cli, "singular_series")
        out = tmp_path / "c.json"
        rc = main(
            [
                "compare", "--n", "3001", "--n", "3002", "--q", "5", "--a", "7",
                "--p-cutoff", "13", "--threads", "2", "--tolerance", "0.5",
                "--format", "json", "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert captured.out == ""
        assert "(tolerance 0.5)" in captured.err
        assert [(c["target"], c["moduli"], c["threads"]) for c in classes] == [
            (3001, [5], 2),
            (3002, [5], 2),
        ]
        assert {(c["a"], c["q"].value, c["prime_cutoff"]) for c in series} == {
            (2, 5, 13)
        }
        rows = json.loads(out.read_text())
        assert [(r["N"], r["q"], r["a"]) for r in rows] == [(3001, 5, 2), (3002, 5, 2)]

        assert main(["compare", "--n", "3001", "--q-max", "3"]) == EXIT_OK
        capsys.readouterr()
        assert classes[-1]["moduli"] == [1, 2, 3]

    def test_estimate(self, monkeypatch, tmp_path, capsys):
        lam = _recorder(monkeypatch, cli, "log_summary")
        direct = _recorder(monkeypatch, cli, "count_representations")
        family = _recorder(monkeypatch, cli, "build_moduli_set")
        weights = _recorder(monkeypatch, cli, "paper_weights")
        series = _recorder(monkeypatch, cli, "singular_series")
        breakdown = _recorder(monkeypatch, cli, "per_q_breakdown")
        out = tmp_path / "e.json"
        rc = main(
            [
                "estimate", "--n", "3001", "--qprime", "3", "--aprime", "5",
                "--q1", "4", "--q2", "3", "--weights", "paper",
                "--padding-constant", "2.5", "--padding-exponent", "0.25",
                "--p-cutoff", "17", "--tolerance", "0.75", "--per-q",
                "--format", "json", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""
        ctx = lam[0]["ctx"]
        assert (ctx.target, ctx.residue, ctx.modulus) == (3001, 2, 3)
        assert (family[0]["q1_bound"], family[0]["q2_bound"]) == (4, 3)
        assert family[0]["ctx"] == ctx
        d = direct[0]
        assert (d["target"], d["residue"], d["modulus"]) == (3001, 2, 3)
        w = weights[0]
        assert (w["padding_constant"], w["padding_exponent"]) == (2.5, 0.25)
        sv = series[0]
        assert (sv["a"], sv["q"].value, sv["prime_cutoff"]) == (5, 3, 17)
        assert len(breakdown) == 1
        rows = json.loads(out.read_text())
        assert rows and all(r["N"] == 3001 and "contribution" in r for r in rows)

    def test_estimate_paper_defaults_and_tolerance(self, monkeypatch, capsys):
        weights = _recorder(monkeypatch, cli, "paper_weights")
        exact = _recorder(monkeypatch, cli, "compute_weights")
        rc = main(
            ["estimate", "--n", "3001", "--weights", "paper", "--tolerance", "1e-9"]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_VERIFY
        assert "tolerance 1e-09" in err
        w = weights[0]
        assert (w["padding_constant"], w["padding_exponent"]) == (1e4, 0.1)
        assert exact == []

        assert main(["estimate", "--n", "3001"]) == EXIT_OK
        capsys.readouterr()
        assert len(weights) == 1
        assert [list(c) for c in exact] == [["ms"]]

    def test_series(self, monkeypatch, tmp_path, capsys):
        rud = _recorder(monkeypatch, cli, "singular_series")
        eul = _recorder(monkeypatch, cli, "singular_series_eulerform")
        out = tmp_path / "s.csv"
        rc = main(
            [
                "series", "--n", "3001", "--q", "6", "--a", "11",
                "--p-cutoff", "19", "--format", "csv", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""
        for calls in (rud, eul):
            assert [(c["a"], c["q"].value, c["prime_cutoff"]) for c in calls] == [
                (11, 6, 19)
            ]
        schema, rows = parse_csv(out.read_text())
        assert schema == "sqfrep-series"
        assert (rows[0]["q"], rows[0]["a"], rows[0]["p_cutoff"]) == (6, 5, 19)

    def test_count(self, monkeypatch, tmp_path, capsys):
        counts = _recorder(monkeypatch, cli, "count_representations")
        out = tmp_path / "n.json"
        rc = main(
            [
                "count", "--n", "3001", "--q", "7", "--a", "-4", "--threads", "3",
                "--format", "json", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""
        c = counts[0]
        assert (c["target"], c["residue"], c["modulus"], c["threads"]) == (3001, -4, 7, 3)
        rows = json.loads(out.read_text())
        assert (rows[0]["q"], rows[0]["a"]) == (7, 3)

    def test_sieve_selftest(self, monkeypatch, tmp_path, capsys):
        seeds = _recorder(monkeypatch, cli, "Draws")
        windows = _recorder(monkeypatch, cli, "segmented_squarefree_sieve")
        out = tmp_path / "t.json"
        rc = main(["sieve-selftest", "--seed", "11", "--format", "json",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""
        assert [c["seed"] for c in seeds] == [11]
        rows = json.loads(out.read_text())
        assert [r["lo"] for r in rows] == [c["lo"] for c in windows]


class TestConfig:
    """The run settings are validated where they are parsed: each bad value
    is a usage error that names its flag."""

    @staticmethod
    def _rejected(argv, flag, capsys):
        assert main(argv) == EXIT_USAGE, argv
        assert f"argument {flag}:" in capsys.readouterr().err, argv

    def test_rejects_nonpositive_bounds(self, capsys):
        self._rejected(["estimate", "--n", "100", "--q1", "0"], "--q1", capsys)
        self._rejected(["count", "--n", "100", "--threads", "-1"], "--threads", capsys)
        self._rejected(["count", "--n", "0"], "--n", capsys)
        self._rejected(
            ["compare", "--n", "100", "--tolerance", "0.0"], "--tolerance", capsys
        )

    def test_rejects_unknown_modes(self, capsys):
        self._rejected(
            ["estimate", "--n", "100", "--weights", "guesswork"], "--weights", capsys
        )
        self._rejected(["count", "--n", "100", "--format", "xml"], "--format", capsys)


_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]
_CELLS = {
    "float": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(_EDGE_FLOATS),
        st.sampled_from([math.inf, -math.inf, math.nan]),
    ),
    # ints past 2**63, as the weighted counts at large N can be
    "int": st.one_of(
        st.integers(-(2**70), 2**70), st.sampled_from([2**63, 2**70, -(2**64)])
    ),
    "bool": st.booleans(),
}


@st.composite
def _tables(draw):
    schema = draw(st.sampled_from(sorted(SCHEMAS)))
    row = st.fixed_dictionaries({name: _CELLS[kind] for name, kind in SCHEMAS[schema]})
    return schema, draw(st.lists(row, min_size=1, max_size=4))


def _same_float(got, want) -> bool:
    """Bit for bit: float.hex keeps the sign of -0.0, and nan is nan."""
    if math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return isinstance(got, float) and got.hex() == want.hex()


class TestRoundTrip:
    @settings(max_examples=200)
    @given(_tables())
    def test_every_schema_round_trips_every_value(self, table):
        # CSV gives back every value, non-finite ones included; JSON gives
        # back every finite value and null for the rest
        schema, rows = table
        got_schema, csv_rows = parse_csv(encode_csv(schema, rows))
        json_text = encode_json(schema, rows)
        json_rows = json.loads(json_text, parse_constant=_reject_constant)
        assert got_schema == schema
        for want, via_csv, via_json in zip(rows, csv_rows, json_rows, strict=True):
            for name, kind in SCHEMAS[schema]:
                value = want[name]
                if kind != "float":
                    assert type(via_csv[name]) is type(via_json[name]) is type(value)
                    assert via_csv[name] == via_json[name] == value
                    continue
                assert _same_float(via_csv[name], value), (name, value)
                if math.isfinite(value):
                    assert _same_float(via_json[name], value), (name, value)
                else:
                    assert via_json[name] is None, (name, value)

    def test_csv_json_lossless(self, tmp_path):
        for want_schema, base in (
            ("sqfrep-compare", ["compare", "--n", "10000", "--q-max", "5"]),
            # obstructed: 4 divides both the modulus and 1001 - 1
            (
                "sqfrep-estimate",
                ["estimate", "--n", "1001", "--qprime", "4", "--aprime", "1"],
            ),
        ):
            csv_path = tmp_path / f"{want_schema}.csv"
            json_path = tmp_path / f"{want_schema}.json"
            assert main([*base, "--out", str(csv_path)]) == EXIT_OK
            assert (
                main([*base, "--format", "json", "--out", str(json_path)]) == EXIT_OK
            )
            schema, csv_rows = parse_csv(csv_path.read_text())
            json_rows = json.loads(
                json_path.read_text(), parse_constant=_reject_constant
            )
            assert schema == want_schema
            assert csv_rows == json_rows

    def test_every_cell_survives_reencoding(self, tmp_path):
        path = tmp_path / "est.csv"
        rc = main(
            ["estimate", "--n", "4000", "--q1", "4", "--q2", "1", "--out", str(path)]
        )
        assert rc == EXIT_OK
        text = path.read_text()
        schema, rows = parse_csv(text)
        assert encode_csv(schema, rows) == text
        assert json.loads(encode_json(schema, rows)) == rows
        blown = [{**rows[0], "rel_error_direct": math.inf, "defect_f": math.nan}]
        cells = json.loads(encode_json(schema, blown), parse_constant=_reject_constant)
        assert cells[0]["rel_error_direct"] is None
        assert cells[0]["defect_f"] is None

    def test_header_names_schema_and_types(self, capsys):
        assert main(["count", "--n", "500"]) == EXIT_OK
        out = capsys.readouterr().out
        head = out.split("\n", 1)[0]
        assert head.startswith("# sqfrep-count v1 columns=")
        assert "weighted:float" in head
        assert "unweighted:int" in head

    def test_parse_rejects_headerless_text(self):
        with pytest.raises(ValueError):
            parse_csv("a,b\n1,2\n")


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ["compare", "--n", "30000", "--q-max", "6"]
        assert main([*args, "--out", str(first)]) == EXIT_OK
        assert main([*args, "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_thread_count_does_not_change_rows(self, tmp_path):
        lone = tmp_path / "t1.csv"
        many = tmp_path / "t4.csv"
        assert main(
            ["count", "--n", "200000", "--q", "7", "--a", "3", "--out", str(lone)]
        ) == EXIT_OK
        assert main(
            [
                "count", "--n", "200000", "--q", "7", "--a", "3",
                "--threads", "4", "--out", str(many),
            ]
        ) == EXIT_OK
        assert lone.read_bytes() == many.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--n", "100000", "--qprime", "7", "--aprime", "3", "--per-q"],
            ["count", "--n", "200000", "--q", "7", "--a", "3"],
            ["compare", "--n", "30000", "--q-max", "6"],
        ],
    )
    def test_window_size_does_not_change_bytes(self, argv, monkeypatch, capsys):
        # a window no longer than its lane: a cap past int64 used to fail the
        # int64 guard, a traceback and exit 1
        runs = []
        for cap in (None, "8192", str(10**20)):
            if cap is None:
                monkeypatch.delenv("SQFREP_MAX_WINDOW_BYTES", raising=False)
            else:
                monkeypatch.setenv("SQFREP_MAX_WINDOW_BYTES", cap)
            runs.append((main(argv), capsys.readouterr().out))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][1].startswith("# sqfrep-")

    def test_selftest_rows_are_seed_stable(self, capsys):
        assert main(["sieve-selftest", "--seed", "7"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["sieve-selftest", "--seed", "7"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert main(["sieve-selftest", "--seed", "8"]) == EXIT_OK
        third = capsys.readouterr().out
        assert third != first
        for line in first.strip().split("\n")[2:]:
            assert line.endswith("true")


class TestRows:
    def test_count_rows_match_library(self, tables, capsys):
        assert main(["count", "--n", "3000", "--q", "5", "--a", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        _, rows = parse_csv(out)
        want = count_representations(3000, 2, 5, tables)
        assert rows[0]["weighted"] == want.weighted
        assert rows[0]["unweighted"] == want.unweighted
        assert rows[0]["lambda_weighted"] == want.lambda_weighted

    def test_compare_rows_match_library(self, tables, capsys):
        assert main(["compare", "--n", "3000", "--n", "3001", "--q-max", "6"]) == EXIT_OK
        captured = capsys.readouterr()
        _, rows = parse_csv(captured.out)
        assert len(rows) == 2 * sum(
            1 for q in range(1, 7) for a in range(q) if math.gcd(a, q) == 1
        )
        for row in rows:
            want = count_representations(row["N"], row["a"], row["q"], tables)
            assert row["weighted"] == want.weighted, row
        # one scan, and one timing line, per target
        timings = [ln for ln in captured.err.splitlines() if ln.startswith("count N=")]
        assert [ln.split()[1] for ln in timings] == ["N=3000", "N=3001"]

    def test_compare_obstructed_rows_exact(self, capsys):
        # 4 divides both the modulus and 101 - 1, so the class is obstructed
        assert main(["compare", "--n", "101", "--q", "4", "--a", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        _, rows = parse_csv(out)
        assert rows[0]["vanished"] is True
        assert rows[0]["weighted"] == 0.0
        assert rows[0]["series"] == 0.0
        assert rows[0]["ratio"] == 0.0

    def test_series_obstructed_object(self, capsys):
        assert main(
            ["series", "--n", "101", "--q", "4", "--a", "1", "--format", "json"]
        ) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["vanished"] is True
        assert rows[0]["rudimentary_value"] == 0.0
        assert rows[0]["euler_value"] == 0.0

    def test_series_forms_agree(self, capsys):
        assert main(["series", "--n", "987654", "--q", "3", "--a", "2"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        row = rows[0]
        assert row["delta"] <= row["rudimentary_tail"] + row["euler_tail"]
        assert row["rudimentary_value"] > 0

    def test_estimate_rank_one_identity(self, tables, capsys):
        # Family {1} collapses the estimate to (sum f)(sum g)/N.
        main(
            ["estimate", "--n", "2000", "--q1", "1", "--q2", "1", "--format", "json"]
        )
        rows = json.loads(capsys.readouterr().out)
        got = rows[0]["estimate"]
        ((psi,),), _ = log_class_sums(2000, 0, 1, [1], tables)
        want = psi / LOG_SCALE * squarefree_count_in_ap(2000, 0, 1, tables) / 2000
        assert got == pytest.approx(want, rel=1e-12)

    def test_estimate_defects_nonnegative_exact_mode(self, capsys):
        rc = main(["estimate", "--n", "6000", "--q1", "5", "--q2", "1"])
        out = capsys.readouterr().out
        _, rows = parse_csv(out)
        assert rows[0]["defect_f"] >= 0
        assert rows[0]["defect_g"] >= 0
        assert rc == EXIT_OK

    def test_estimate_paper_weights_run(self, capsys):
        # keep the additive padding small next to N so the gate stays shut
        rc = main(
            [
                "estimate", "--n", "6000", "--q1", "5", "--q2", "1",
                "--weights", "paper", "--padding-constant", "1.0",
                "--tolerance", "0.5",
            ]
        )
        out = capsys.readouterr().out
        _, rows = parse_csv(out)
        assert rc == EXIT_OK
        assert rows[0]["estimate"] > 0

    def test_per_q_breakdown_table(self, capsys):
        rc = main(
            ["estimate", "--n", "3000", "--q1", "4", "--q2", "1", "--per-q"]
        )
        out = capsys.readouterr().out
        schema, rows = parse_csv(out)
        assert rc == EXIT_OK
        assert schema == "sqfrep-estimate-per-q"
        assert {r["q"] for r in rows} == {1, 2, 3}
        total = sum(r["contribution"] for r in rows)
        assert total == pytest.approx(
            sum(r["f_phi"] * r["phi_g"] / r["m_phi"] for r in rows if r["m_phi"])
            + sum(r["f_psi"] * r["psi_g"] / r["m_psi"] for r in rows if r["m_psi"]),
            rel=1e-9,
        )
