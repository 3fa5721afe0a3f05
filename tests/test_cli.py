"""Command-line interface: outputs, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import sturmian
from sturmian import cli, palindromes
from sturmian.ostrowski import _ValidDigitDag
from sturmian.words import DirectiveSequence, characteristic_prefix

BASE = [sys.executable, "-m", "sturmian"]
# the child runs the package the tests import, installed or not
SRC = str(pathlib.Path(sturmian.__file__).resolve().parent.parent)
DATA = pathlib.Path(__file__).parent / "data"


def _cases(name):
    """Pinned stdout digests, exit status and stderr: an argv per case in
    the cli file, a directive, pmax and format per case in the tpr file."""
    return json.loads((DATA / name).read_text())["cases"]


TPR_DIGESTS = _cases("tpr_stdout_sha256.json")
CLI_DIGESTS = _cases("cli_stdout_sha256.json")


def run_cli(*args, env_extra=None, **popen):
    env = os.environ.copy()
    env.pop("STURM_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, **popen
    )


def run_in_process(*args):
    """(exit code, stdout, stderr) of cli.run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(args))
    return code, out.getvalue(), err.getvalue()


def assert_pinned(argv, case):
    """cli.run(argv) exits, writes stderr and hashes stdout as pinned."""
    code, out, err = run_in_process(*argv)
    assert (code, err) == (case["exit"], case.get("stderr", ""))
    data = out.encode()
    assert len(data) == case["bytes"]
    assert hashlib.sha256(data).hexdigest() == case["sha256"]


class TestGenerate:
    def test_characteristic_ab(self):
        r = run_cli(
            "generate", "characteristic", "--d", "1,(1)",
            "--length", "8", "--alphabet", "ab",
        )
        assert r.returncode == 0
        assert r.stdout == "abaababa\n"
        assert r.stderr == ""

    def test_characteristic_default_alphabet(self):
        r = run_cli("generate", "characteristic", "--d", "1,(1)", "--length", "8")
        assert r.stdout == "01001010\n"

    def test_mechanical(self):
        slope = "(3-sqrt(5))/2"
        r = run_cli(
            "generate", "mechanical", "--sigma", slope, "--rho", "0",
            "--length", "8",
        )
        assert (r.returncode, r.stdout) == (0, "00100101\n")
        r = run_cli(
            "generate", "mechanical", "--sigma", slope, "--rho", slope,
            "--length", "8",
        )
        assert r.stdout == "01001010\n"

    def test_central(self):
        r = run_cli(
            "generate", "central", "--d", "2,(2)", "--n", "2", "--j", "1",
            "--alphabet", "ab",
        )
        assert r.stdout == "aabaabaaabaabaa\n"


class TestCount:
    def test_sturmian_single(self):
        r = run_cli("count", "sturmian", "--n", "4")
        assert (r.returncode, r.stdout) == (0, "14\n")

    def test_sturmian_table_csv(self):
        r = run_cli("count", "sturmian", "--upto", "4", "--format", "csv")
        assert r.stdout == "n,total\n0,1\n1,2\n2,4\n3,8\n4,14\n"

    def test_sturmian_json(self):
        r = run_cli("count", "sturmian", "--n", "4", "--format", "json")
        assert json.loads(r.stdout) == {"schema": 1, "value": 14}

    def test_rotation_words_rational_sigma(self):
        r = run_cli("count", "rotation-words", "--sigma", "2/5", "--length", "3")
        assert r.returncode == 1
        assert "sigma" in r.stderr


@pytest.mark.parametrize("argv, flag, value", [
    (["generate", "mechanical", "--sigma", "1/0", "--rho", "0"], "--sigma", "1/0"),
    (["generate", "rotation", "--alpha", "1/3", "--rho", "0/0", "--sigma", "1/2"],
     "--rho", "0/0"),
    (["count", "rotation-words", "--sigma", "(1+sqrt(2))/0"], "--sigma", "(1+sqrt(2))/0"),
])
def test_zero_denominator_is_one_error_line(argv, flag, value):
    r = run_cli(*argv, "--length", "5")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"error: {flag}: cannot parse real value {value!r}\n"
    assert "Traceback" not in r.stderr


class TestOstrowski:
    def test_encode(self):
        r = run_cli("ostrowski", "encode", "--d", "fib", "--n", "14")
        assert (r.returncode, r.stdout) == (0, "100001\n")

    def test_decode_legal_valid(self):
        assert run_cli("ostrowski", "decode", "--d", "fib", "--digits", "1300").stdout == "14\n"
        assert run_cli("ostrowski", "legal", "--d", "fib", "--digits", "1300").stdout == "false\n"
        assert run_cli("ostrowski", "valid", "--d", "fib", "--digits", "1300").stdout == "true\n"

    def test_enumerate_sorted(self):
        r = run_cli("ostrowski", "enumerate", "--d", "fib", "--n", "14")
        assert r.stdout.split() == ["1211", "1300", "10111", "10200", "11001", "100001"]


class TestPal:
    def test_length_word(self):
        r = run_cli("pal", "length", "--word", "abaabb")
        assert (r.returncode, r.stdout) == (0, "3\n")

    def test_length_long_unbalanced_words(self):
        # all but a^k b a^k hold both aa and bb, so they go to the
        # general pass; Linux caps one argument at 131,071 symbols
        fib = characteristic_prefix(
            DirectiveSequence.parse("fib"), 131_068
        ).to_string("ab")
        rng = random.Random(20261021)
        cases = [
            ("aababb" * 21845, "43690"),
            ("a" * 65535 + "b" + "a" * 65535, "1"),
            (fib + "bbb", "7"),
            ("".join(rng.choice("ab") for _ in range(131_071)), "19915"),
        ]
        for word, expected in cases:
            r = run_cli("pal", "length", "--word", word)
            assert (r.returncode, r.stdout, r.stderr) == (0, expected + "\n", "")

    def test_length_prefix(self):
        r = run_cli("pal", "length", "--d", "fib", "--length", "10")
        assert r.stdout == "2\n"

    def test_length_default_cap(self):
        # the prefix DP is refused above the cap of `pal profile`, with
        # its message
        args = ("--d", "fib", "--length", "200001")
        r = run_cli("pal", "length", *args)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: profile length is capped at 200000, got 200001\n"
        assert r.stderr == run_cli("pal", "profile", *args).stderr

    def test_length_cap_flag(self):
        r = run_cli(
            "pal", "length", "--d", "fib", "--length", "200001", "--cap", "200001"
        )
        assert (r.returncode, r.stdout) == (0, "5\n")

    def test_length_cap_env(self):
        r = run_cli(
            "pal", "length", "--d", "fib", "--length", "11",
            env_extra={"STURM_CAP": "10"},
        )
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: profile length is capped at 10, got 11\n"
        # a literal word is not capped
        r = run_cli(
            "pal", "length", "--word", "abaabb", env_extra={"STURM_CAP": "1"}
        )
        assert (r.returncode, r.stdout) == (0, "3\n")

    def test_profile_rows(self):
        r = run_cli("pal", "profile", "--d", "fib", "--length", "100")
        assert r.stdout == "1\t1\n2\t2\n9\t3\n62\t4\n"

    def test_profile_refusal_is_a_theorem_violation(self, monkeypatch):
        # a characteristic prefix is balanced, so a refusal by the
        # balanced pass is reported, not routed round
        monkeypatch.setattr(
            palindromes, "_balanced_pal_lengths", lambda raw: None
        )
        argv = ("pal", "profile", "--d", "fib", "--length", "100")
        code, out, err = run_in_process(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_profile_row_past_a_byte(self, monkeypatch):
        # the balanced pass holds its row in bytes and moves it to a
        # list at the first palindromic length a byte cannot hold; a
        # row that holds only 0..2 takes that branch at length 9
        argv = ("pal", "profile", "--d", "fib", "--length", "20000")
        expected = run_in_process(*argv)

        class Narrow(bytearray):
            def __setitem__(self, index, value):
                if isinstance(index, int) and value > 2:
                    raise ValueError("byte must be in range(0, 3)")
                super().__setitem__(index, value)

        monkeypatch.setattr(palindromes, "bytearray", Narrow, raising=False)
        assert run_in_process(*argv) == expected
        assert expected[0] == 0 and expected[1].count("\n") == 7

    def test_starting_at(self):
        r = run_cli(
            "pal", "starting-at", "--d", "fib", "--length", "30",
            "--i", "0", "--maxlen", "30",
        )
        assert r.stdout.split() == ["1", "3", "6", "11", "19"]

    def test_rich(self):
        assert run_cli("pal", "rich", "--word", "abaabb").stdout == "7\ttrue\n"


class TestVerify:
    def test_zd_pass(self):
        r = run_cli("verify", "zd", "--d", "1,(1)", "--nmax", "30")
        assert r.returncode == 0
        assert r.stdout.rstrip("\n").splitlines()[-1] == "pass"

    def test_zd_csv_header(self):
        r = run_cli("verify", "zd", "--d", "1,(1)", "--nmax", "30", "--format", "csv")
        lines = r.stdout.splitlines()
        assert lines[0] == "gap,bound,n,digit_index,rep_a,rep_b,status"
        assert lines[-1] == "pass"

    def test_zd_default_cap(self):
        r = run_cli("verify", "zd", "--d", "fib", "--nmax", "5000")
        assert r.returncode == 0
        gap, bound, n = r.stdout.splitlines()[0].split("\t")[:3]
        assert (gap, n) == ("2", "14")

    def test_tpr(self):
        r = run_cli("verify", "tpr", "--d", "fib", "--pmax", "40")
        assert r.returncode == 0
        lines = r.stdout.rstrip("\n").splitlines()
        assert lines[-2] == "occurrences=152 fallbacks=7 failures=0"
        assert lines[-1] == "pass"

    def test_tpr_csv_rows_match_json_records(self):
        args = ("verify", "tpr", "--d", "2,(2)", "--pmax", "30")
        doc = json.loads(run_cli(*args, "--format", "json").stdout)
        lines = run_cli(*args, "--format", "csv").stdout.splitlines()
        assert lines[0] == "p1,p2,rep_p1,m,y_m,rep_p2,fallback_used,status"
        assert lines[-1] == "pass"
        rows = lines[1:-1]
        assert len(rows) == doc["occurrences"] == len(doc["records"])
        for row, rec in zip(rows, doc["records"]):
            flag = "true" if rec["fallback_used"] else "false"
            assert row == (
                f"{rec['p1']},{rec['p2']},{rec['rep_p1']},{rec['m']},"
                f"{rec['y_m']},{rec['rep_p2']},{flag},ok"
            )

    def test_tpr_cap_bounds_pmax(self):
        r = run_cli(
            "verify", "tpr", "--d", "fib", "--pmax", "51",
            env_extra={"STURM_CAP": "50"},
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: --pmax is capped at 50, got 51\n"
        r = run_cli(
            "verify", "tpr", "--d", "fib", "--pmax", "50",
            env_extra={"STURM_CAP": "50"},
        )
        assert r.returncode == 0
        assert r.stdout.splitlines()[-1] == "pass"

    def test_tpr_default_cap(self):
        r = run_cli("verify", "tpr", "--d", "fib", "--pmax", "5001")
        assert r.returncode == 1
        assert r.stderr == "error: --pmax is capped at 5000, got 5001\n"

    def test_tpr_large(self):
        r = run_cli(
            "verify", "tpr", "--d", "fib", "--pmax", "2000", "--format", "json"
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert (doc["occurrences"], doc["fallbacks"], doc["pass"]) == (
            18749, 1585, True
        )

    def test_tpr_finite_directive_within_the_word(self):
        # q_3 = 17: occurrences with p1 + p2 up to 19 extend inside it
        r = run_cli("verify", "tpr", "--d", "1,2,3", "--pmax", "10")
        assert r.returncode == 0
        assert r.stderr == ""
        lines = r.stdout.rstrip("\n").splitlines()
        assert lines[-2] == "occurrences=23 fallbacks=0 failures=0"
        assert lines[-1] == "pass"

    @pytest.mark.parametrize(
        "case", TPR_DIGESTS,
        ids=lambda c: f"{c['d']}-{c['pmax']}-{c['format']}",
    )
    def test_tpr_stdout_pinned(self, case, monkeypatch):
        monkeypatch.delenv("STURM_CAP", raising=False)
        argv = ["verify", "tpr", "--d", case["d"], "--pmax", str(case["pmax"]),
                "--format", case["format"]]
        assert_pinned(argv, case)

    def test_tpr_finite_directive_cut_extension(self):
        for pmax in ("11", "12"):
            r = run_cli("verify", "tpr", "--d", "1,2,3", "--pmax", pmax)
            assert r.returncode == 1
            assert r.stdout == ""
            assert r.stderr == (
                "error: directive sequence too short to extend (9..11]: its "
                "maximal extension reaches the end of the word at 17\n"
            )

    def test_tpr_fail_record(self, monkeypatch):
        # a run table that refuses the copy of s_3 at 34 in the
        # canonical vector of 39 = q_7 + q_3: only (39..40] starts at 39,
        # so that record, and only it, becomes FAIL in each format, and
        # the verdict is fail
        monkeypatch.delenv("STURM_CAP", raising=False)
        argv = ["verify", "tpr", "--d", "fib", "--pmax", "40", "--format"]
        clean = {fmt: run_in_process(*argv, fmt) for fmt in cli._FORMATS}
        build = _ValidDigitDag.__init__

        def corrupt(dag, d, n):
            build(dag, d, n)
            dag.runs[3][34] = 0

        monkeypatch.setattr(_ValidDigitDag, "__init__", corrupt)
        out = {fmt: run_in_process(*argv, fmt) for fmt in cli._FORMATS}
        for fmt in cli._FORMATS:
            assert out[fmt][0] == 2 and out[fmt][2] == ""
        fail_json = '{"p1": 39, "p2": 40, "status": "FAIL"}'
        lines = out["text"][1].splitlines()
        before = clean["text"][1].splitlines()
        assert lines[151] == fail_json
        assert lines[-2:] == ["occurrences=152 fallbacks=7 failures=1", "fail"]
        assert lines[:151] + lines[152:-2] == before[:151] + before[152:-2]
        rows, before = out["csv"][1].splitlines(), clean["csv"][1].splitlines()
        assert rows[152] == "39,40,,-1,-1,,false,FAIL"
        assert rows[-1] == "fail"
        assert rows[:152] + rows[153:-1] == before[:152] + before[153:-1]
        doc, before = json.loads(out["json"][1]), json.loads(clean["json"][1])
        assert f", {fail_json}]" in out["json"][1]
        assert doc["records"][151] == {"p1": 39, "p2": 40, "status": "FAIL"}
        del doc["records"][151], before["records"][151]
        assert doc == {**before, "pass": False}

    def test_h_pattern(self):
        r = run_cli("verify", "h-pattern", "--d", "fib", "--nmax", "8")
        assert r.returncode == 0
        assert r.stdout.rstrip("\n").splitlines()[-1] == "pass"

    def test_h_pattern_long_first_run(self):
        # the prefix a^200 b ... holds its factors only past symbol 200
        r = run_cli("verify", "h-pattern", "--d", "200,(1)", "--nmax", "60")
        assert r.returncode == 0
        assert r.stdout.rstrip("\n").splitlines()[-1] == "pass"

    def test_balanced_vs_formula(self):
        r = run_cli("verify", "balanced-vs-formula", "--nmax", "10")
        assert r.returncode == 0
        r = run_cli("verify", "balanced-vs-formula", "--nmax", "4", "--format", "csv")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "n,formula,oracle,status",
            "0,1,1,ok",
            "1,2,2,ok",
            "2,4,4,ok",
            "3,8,8,ok",
            "4,14,14,ok",
            "pass",
        ]

    def test_balanced_vs_formula_cap(self):
        # the cap is checked before any row is printed
        r = run_cli("verify", "balanced-vs-formula", "--nmax", "12", "--cap", "11")
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == (
            "error: balanced-word enumeration is capped at length 11, got 12\n"
        )

    def test_hard_prefix(self):
        r = run_cli("verify", "hard-prefix", "--d", "8,8,1,(1)", "--q", "1")
        assert r.returncode == 0
        first = r.stdout.splitlines()[0].split("\t")
        assert first[0] == "40"

    def test_hard_prefix_cap(self):
        # a prefix of about 2.7e19 symbols is refused before allocation
        r = run_cli("verify", "hard-prefix", "--d", "62,(62)", "--q", "10")
        assert r.returncode == 1
        assert "error:" in r.stderr
        assert r.stdout == ""


class TestErrorsAndCaps:
    def test_unknown_flag(self):
        r = run_cli("generate", "characteristic", "--d", "fib", "--length", "5", "--bogus")
        assert r.returncode == 1
        assert "--bogus" in r.stderr or "unrecognized" in r.stderr

    def test_workers_flag_removed(self):
        r = run_cli("count", "balanced", "--n", "14", "--workers", "2")
        assert r.returncode == 1
        assert r.stdout == ""
        assert "--workers" in r.stderr

    def test_missing_required(self):
        r = run_cli("generate", "characteristic", "--d", "fib")
        assert r.returncode == 1

    def test_bad_real_names_flag(self):
        r = run_cli(
            "generate", "mechanical", "--sigma", "wat", "--rho", "0",
            "--length", "4",
        )
        assert r.returncode == 1
        assert "--sigma" in r.stderr

    def test_word_and_d_conflict(self):
        r = run_cli("pal", "length", "--word", "abba", "--d", "fib")
        assert r.returncode == 1
        assert "--word" in r.stderr and "--d" in r.stderr

    def test_env_cap_blocks(self):
        r = run_cli(
            "count", "balanced", "--n", "10", env_extra={"STURM_CAP": "5"}
        )
        assert r.returncode == 1
        assert "cap" in r.stderr.lower()

    def test_flag_overrides_env_cap(self):
        r = run_cli(
            "count", "balanced", "--n", "10", "--cap", "22",
            env_extra={"STURM_CAP": "5"},
        )
        assert (r.returncode, r.stdout) == (0, "136\n")

    def test_standard_past_finite_directive(self):
        r = run_cli("generate", "standard", "--d", "1,2,3", "--n", "5")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: --n: directive sequence has only 3 digits\n"
        ok = run_cli("generate", "standard", "--d", "1,2,3", "--n", "3")
        assert ok.returncode == 0

    def test_decode_past_finite_directive(self):
        r = run_cli("ostrowski", "decode", "--d", "1,2", "--digits", "11111")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: --digits: directive sequence has only 2 digits\n"
        ok = run_cli("ostrowski", "decode", "--d", "1,2", "--digits", "11")
        assert ok.returncode == 0
        r = run_cli("ostrowski", "valid", "--d", "1,2", "--digits", "11111")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: --digits: directive sequence has only 2 digits\n"

    def _refuses_third_digit(self, verb):
        # digit 2 of 1,2 has no d_2: refused even where q_2 exists
        r = run_cli("ostrowski", verb, "--d", "1,2", "--digits", "100")
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: --digits: directive sequence has only 2 digits\n"
        # leading zeros are not digits
        return run_cli("ostrowski", verb, "--d", "1,2", "--digits", "0011")

    def test_decode_digits_contract(self):
        assert self._refuses_third_digit("decode").stdout == "3\n"

    def test_legal_digits_contract(self):
        assert self._refuses_third_digit("legal").stdout == "true\n"
        r = run_cli("ostrowski", "legal", "--d", "1,2", "--digits", "11111")
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: --digits: directive sequence has only 2 digits\n"

    def test_valid_digits_contract(self):
        assert self._refuses_third_digit("valid").stdout == "true\n"

    def test_rotation_formula_removed(self):
        r = run_cli("verify", "rotation-formula", "--sigma", "sqrt(7)/7",
                    "--lengths", "9")
        assert r.returncode == 1
        assert r.stdout == ""

    def test_balanced_default_cap(self):
        r = run_cli("count", "balanced", "--n", "89")
        assert r.returncode == 1
        assert r.stderr == (
            "error: balanced-word enumeration is capped at length 88, got 89\n"
        )
        r = run_cli("count", "balanced", "--n", "23")
        assert (r.returncode, r.stdout) == (0, "1406\n")

    def test_rotation_words_default_cap(self):
        r = run_cli("count", "rotation-words", "--sigma", "(-1+sqrt(2))", "--length", "43")
        assert r.returncode == 1
        assert r.stderr == "error: rotation-word sweep is capped at length 42, got 43\n"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's"
    )
    def test_out_of_memory_is_an_error_line(self):
        # the totient sieve of 10**8 entries does not fit in 600 MB of
        # address space
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

        r = run_cli("count", "sturmian", "--n", "100000000", preexec_fn=limit)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: out of memory\n"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's"
    )
    def test_longest_word_fits_in_200_mb(self):
        # the longest --word Linux passes, with one palindrome per
        # symbol: the balanced pass takes the first word, the general
        # pass the second, which holds both aa and bb
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

        for word in (
            "a" * 65535 + "b" + "a" * 65535,
            "a" * 65534 + "bb" + "a" * 65534,
        ):
            r = run_cli("pal", "length", "--word", word, preexec_fn=limit)
            assert (r.returncode, r.stdout, r.stderr) == (0, "1\n", "")

    def test_bad_env_cap(self):
        r = run_cli(
            "count", "balanced", "--n", "4", env_extra={"STURM_CAP": "zero"}
        )
        assert r.returncode == 1


class TestInProcess:
    def test_repeated_calls_match_a_fresh_process(self, monkeypatch):
        # the parser is built once per process; no call may leave state
        # behind for the next (a format, a default, a usage error)
        monkeypatch.delenv("STURM_CAP", raising=False)
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike
        calls = [
            ("verify", "tpr", "--d", "fib", "--pmax", "20", "--format", "json"),
            ("verify", "tpr", "--d", "fib", "--pmax", "20"),
            ("generate", "characteristic", "--d", "fib"),
            ("generate", "characteristic", "--d", "fib", "--length", "10"),
            ("count", "sturmian", "--n", "4", "--format", "csv"),
            ("count", "sturmian", "--n", "4"),
        ]
        for args in calls:
            fresh = run_cli(*args)
            expected = (fresh.returncode, fresh.stdout, fresh.stderr)
            assert run_in_process(*args) == expected, args
        assert cli._build_parser() is cli._build_parser()


class TestPinned:
    @pytest.mark.parametrize(
        "case", CLI_DIGESTS, ids=lambda c: " ".join(c["argv"])
    )
    def test_stdout_pinned(self, case, monkeypatch):
        # every verb but verify tpr, in each format: scalars of each type,
        # tables, passing and failing verifiers, refused arguments
        monkeypatch.delenv("STURM_CAP", raising=False)
        assert_pinned(case["argv"], case)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        args = ("verify", "tpr", "--d", "fib", "--pmax", "40", "--format", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_sweep_repeatable(self):
        args = ("count", "rotation-words", "--sigma", "sqrt(7)/7", "--length", "5")
        outs = {run_cli(*args).stdout for _ in range(2)}
        assert len(outs) == 1
