"""The benchmark's workloads: the program calls on `inputs`, and their checks.

Each workload is a list of operations.  An operation calls the program
once, through `sturmian.cli.run` with `--format json` where a CLI verb
exists and through a public library function otherwise, and has a check
that compares the output with `reference` (computed apart from the
program) or with a property the mathematics forces.  Calls go through
module attributes, so the tracer's replacements are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json

import inputs
import reference as ref
import sturmian.cli
import sturmian.counting
import sturmian.words


class Op:
    """One program call and the check of its output.

    `call()` returns the output: (exit code, stdout) for a CLI verb, the
    return value for a library function.  The output holds `answers`
    checked answers.  `check(output)` returns None when every answer is
    right, a reason when the output as a whole is wrong, or a list of
    (reason, known) pairs, one per wrong answer, where `known` marks the
    wrong value that a fault named in CHANGES.md predicts.
    """

    __slots__ = ("name", "call", "check", "cli", "answers")

    def __init__(self, name, call, check, cli=False, answers=1):
        self.name = name
        self.call = call
        self.check = check
        self.cli = cli
        self.answers = answers

    def failures(self, output) -> list:
        """(reason, known) for each wrong answer in `output`."""
        if isinstance(output, tuple) and output[0] == "raised":
            found = output[1]
        else:
            try:
                found = self.check(output)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                found = f"{type(exc).__name__}: {exc}"
        if isinstance(found, str):
            return [(found, False)] * self.answers
        return found or []


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sturmian.cli.run(argv + ["--format", "json"])
    return code, out.getvalue()


def _cli_op(name, argv, check, answers=1):
    return Op(name, lambda: _run_cli(argv), check, cli=True, answers=answers)


def _json(output, want_code=0):
    code, text = output
    if code != want_code:
        raise ValueError(f"exit code {code}")
    return json.loads(text)


# search ---------------------------------------------------------------


def _check_tpr(text, pmax):
    def check(output):
        doc = _json(output)
        d = ref.Directive(text)
        records = doc["records"]
        want = ref.palindrome_occurrences(ref.characteristic(d, pmax))
        got = {(r["p1"], r["p2"]) for r in records}
        if not doc["pass"] or got != want or doc["occurrences"] != len(records):
            return "occurrences differ from the centre expansion"
        if doc["fallbacks"] != sum(r["fallback_used"] for r in records):
            return "fallback count"
        for r in records:
            x, y = ref.parse_digits(r["rep_p1"]), ref.parse_digits(r["rep_p2"])
            if ref.decode(x, d) != r["p1"] or not ref.is_legal(x, d):
                return f"rep_p1 of ({r['p1']}..{r['p2']}]"
            if ref.decode(y, d) != r["p2"] or not ref.is_valid(y, d):
                return f"rep_p2 of ({r['p1']}..{r['p2']}]"
            if ref.mirror(x, r["m"], r["y_m"], d) != y:
                return f"mirror of ({r['p1']}..{r['p2']}]"
        return None

    return check


def _check_zd(text, nmax):
    def check(output):
        gap = ref.zd_max_gap(ref.Directive(text), nmax)
        code, body = output
        doc = json.loads(body)
        row = doc["rows"][0]
        passed = gap <= row["bound"]
        if row["gap"] != gap or doc["pass"] != passed or code != (0 if passed else 2):
            return f"gap {row['gap']}, reference {gap}"
        d = ref.Directive(text)
        a, b = ref.parse_digits(row["rep_a"]), ref.parse_digits(row["rep_b"])
        for rep in (a, b):
            if ref.decode(rep, d) != row["n"] or not ref.is_valid(rep, d):
                return "witness vector not a valid vector of n"
        i = row["digit_index"]
        za = ref.z_vector(a, d) + [0] * (i + 1)
        zb = ref.z_vector(b, d) + [0] * (i + 1)
        if abs(za[i] - zb[i]) != gap:
            return "witness does not attain the gap"
        return None

    return check


def _search(cases):
    ops = []
    for text, pmax, nmax in cases:
        ops.append(_cli_op(
            f"tpr {text}",
            ["verify", "tpr", "--d", text, "--pmax", str(pmax)],
            _check_tpr(text, pmax),
        ))
        ops.append(_cli_op(
            f"zd {text}",
            ["verify", "zd", "--d", text, "--nmax", str(nmax)],
            _check_zd(text, nmax),
        ))
    return ops


# profile --------------------------------------------------------------


def _check_profile(text, length):
    def check(output):
        rows = _json(output)["rows"]
        got = [(r["length"], r["pal_length"]) for r in rows]
        want = ref.pal_length_records(ref.characteristic(ref.Directive(text), length))
        return None if got == want else "records differ from the reference DP"

    return check


def _profile(cases):
    return [
        _cli_op(
            f"profile {text}",
            ["pal", "profile", "--d", text, "--length", str(n), "--cap", str(n)],
            _check_profile(text, n),
        )
        for text, n in cases
    ]


# exact ----------------------------------------------------------------


def _expect(name, want):
    """Check against `want()`, evaluated only when the check runs."""

    def check(value):
        expected = want()
        return None if value == expected else f"{name} {value!r}, expected {expected!r}"

    return check


def _expect_cli_value(name, want):
    return lambda output: _expect(name, want)(_json(output)["value"])


def _check_balanced(text, prefix: bytes):
    """The package built the prefix in set-up; it must be the
    characteristic prefix, and characteristic words are balanced."""

    def check(value):
        if prefix != ref.characteristic(ref.Directive(text), len(prefix)):
            return "the input prefix is not the characteristic prefix"
        return None if value is True else f"is_balanced {value!r}, expected True"

    return check


def _check_witness(word: bytes):
    def check(found):
        if found is None:
            return None if ref.is_balanced(word) else "no witness for an unbalanced word"
        _, u, v = found
        u, v = u.raw, v.raw
        if len(u) != len(v) or v.count(1) - u.count(1) < 2:
            return "witness counts differ by less than 2"
        if word.find(u) < 0 or word.find(v) < 0:
            return "witness is not a factor"
        return None

    return check


def _factor_failure(text, n, value, expected, count):
    """The failure of one wrong factor count; known when `text` is the
    directive of the documented fault and `value` is what it predicts."""
    known = text == inputs.KNOWN_FAULT and value == ref.doubling_count(
        ref.Directive(text), n, count
    )
    return (f"{text} n={n}: {value}, expected {expected}", known)


def _check_p(text, n):
    def check(value):
        if value == n + 1:
            return None
        return [_factor_failure(text, n, value, n + 1, ref.factor_count)]

    return check


def _check_h_pattern(text, nmax):
    """Each row's count must be 2 for odd n and 1 for even n; the verdict
    and the exit code must agree with the rows."""

    def check(output):
        code, body = output
        doc = json.loads(body)
        rows = doc["rows"]
        if [r["n"] for r in rows] != list(range(1, nmax + 1)):
            return "rows are not n = 1..nmax"
        wrong = []
        for r in rows:
            n, want = r["n"], 2 if r["n"] % 2 else 1
            if r["count"] != want:
                wrong.append(_factor_failure(
                    text, n, r["count"], want, ref.palindrome_factor_count
                ))
        if doc["pass"] != (not wrong) or code != (2 if wrong else 0):
            return "verdict or exit code disagrees with the rows"
        return wrong

    return check


def _exact(given):
    ops = [
        _cli_op(
            f"balanced {inputs.BALANCED_N}",
            ["count", "balanced", "--n", str(inputs.BALANCED_N),
             "--cap", str(inputs.BALANCED_N)],
            _expect_cli_value("count", lambda: ref.balanced_total(inputs.BALANCED_N)),
        )
    ]
    sigma = given["sigma"]
    ops.append(Op(
        f"faces {inputs.FACE_ORDER}",
        lambda: sturmian.counting.arrangement_face_count(sigma, inputs.FACE_ORDER),
        _expect("faces", lambda: ref.face_count(inputs.FACE_ORDER)),
    ))
    length = inputs.MECHANICAL_LENGTH
    for (slope, spelled), k in zip(inputs.SLOPES, given["rhos"]):
        rho = (k, inputs.RHO_DENOMINATOR)
        for flavor in ("lower", "upper"):
            ops.append(_cli_op(
                f"mechanical {spelled} {flavor}",
                ["generate", "mechanical", "--sigma", spelled,
                 "--rho", f"{rho[0]}/{rho[1]}", "--flavor", flavor,
                 "--length", str(length)],
                _expect_cli_value("word", lambda slope=slope, rho=rho, flavor=flavor: bytes(
                    v + 48 for v in ref.mechanical(slope, rho, length, flavor)
                ).decode()),
            ))
    seeded, prefix, flipped = given["seeded"], given["prefix"], given["flipped"]
    ops.append(Op(
        f"is_balanced {seeded}",
        lambda: sturmian.words.is_balanced(prefix),
        _check_balanced(seeded, prefix.raw),
    ))
    ops.append(Op(
        f"balance_witness {seeded} flipped",
        lambda: sturmian.words.balance_witness(flipped),
        _check_witness(flipped.raw),
    ))
    nmax = inputs.FACTOR_NMAX
    for text, d in given["factor"]:
        for n in range(1, nmax + 1):
            ops.append(Op(
                f"p({n}) {text}",
                lambda d=d, n=n: sturmian.words.characteristic_factor_count(d, n),
                _check_p(text, n),
            ))
        ops.append(_cli_op(
            f"h-pattern {text}",
            ["verify", "h-pattern", "--d", text, "--nmax", str(nmax)],
            _check_h_pattern(text, nmax),
            answers=nmax,
        ))
    return ops


WORKLOADS = {"search": _search, "profile": _profile, "exact": _exact}


def build(name: str, seed: int) -> list[Op]:
    """The operations of one round of workload `name` for `seed`."""
    return WORKLOADS[name](inputs.build(name, seed))
