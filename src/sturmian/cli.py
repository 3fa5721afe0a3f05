"""Command-line front end.

Verbs: generate (mechanical | rotation | characteristic | standard |
central), count (sturmian | balanced | rotation-faces | rotation-words
| palindrome-factors), ostrowski (encode | decode | legal | valid |
enumerate), pal (length | profile | rich | starting-at), verify (tpr |
zd | h-pattern | balanced-vs-formula | hard-prefix).

Exit status: 0 success, 1 usage error or cap refusal, 2 verification
failure.  Output goes to stdout in the requested format (text, csv, or
json); diagnostics go to stderr.  The environment variable STURM_CAP
overrides default enumeration caps; explicit --cap flags win over it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from .counting import (
    DEFAULT_BALANCED_CAP,
    DEFAULT_SWEEP_CAP,
    balanced_count,
    balanced_counts,
    rotation_face_count,
    rotation_word_count,
    sturmian_total,
    sturmian_totals,
)
from .errors import CapExceededError, TheoremViolationError
from .exactnum import ExactReal, parse_real
from .ostrowski import (
    DEFAULT_ENUM_CAP,
    OstrowskiRep,
    decode,
    encode,
    enumerate_legal_reps,
    enumerate_valid_reps,
    is_legal,
    is_valid,
    rep_sort_key,
)
from .palindromes import (
    DEFAULT_PROFILE_CAP,
    _check_profile_length,
    _witness_lines,
    central_word,
    construct_hard_prefix,
    distinct_palindromic_factors,
    pal_length,
    pal_length_profile,
    palindrome_factor_count,
    palindrome_factor_counts,
    palindromes_starting_at,
    zd_max_gap,
)
from .words import (
    BinaryWord,
    DirectiveSequence,
    MechanicalParams,
    characteristic_prefix,
    mechanical_word,
    rotation_word,
    standard_words,
)

__all__ = ["run", "main"]

_FORMATS = ("text", "csv", "json")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit_table(fmt: str, headers: list[str], rows: list) -> None:
    if fmt == "json":
        doc = {
            "schema": 1,
            "rows": [dict(zip(headers, row)) for row in rows],
        }
        print(json.dumps(doc, sort_keys=True))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_cell(x) for x in row])
    else:
        sys.stdout.writelines(
            "\t".join(map(_cell, row)) + "\n" for row in rows
        )


def _emit_scalar(fmt: str, value) -> None:
    if fmt == "json":
        print(json.dumps({"schema": 1, "value": value}, sort_keys=True))
    else:
        _emit_table(fmt, ["value"], [(value,)])


def _emit_verify(fmt: str, name: str, headers: list[str], rows: list) -> int:
    """Rows end in a status column, "ok" or "FAIL"; the report ends with
    the verdict (a dedicated field in json, a final line otherwise)."""
    passed = all(row[-1] == "ok" for row in rows)
    if fmt == "json":
        doc = {
            "schema": 1,
            "verify": name,
            "pass": passed,
            "rows": [dict(zip(headers, row)) for row in rows],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        _emit_table(fmt, headers, rows)
        print("pass" if passed else "fail")
    return 0 if passed else 2


def _env_cap():
    raw = os.environ.get("STURM_CAP")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"STURM_CAP must be a positive integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"STURM_CAP must be positive, got {value}")
    return value


def _resolve_cap(flag_value, default: int) -> int:
    if flag_value is not None:
        if flag_value <= 0:
            raise ValueError(f"--cap must be positive, got {flag_value}")
        return flag_value
    env = _env_cap()
    return env if env is not None else default


def _real(text: str, flag: str) -> ExactReal:
    try:
        return parse_real(text)
    except ValueError:
        raise ValueError(f"{flag}: cannot parse real value {text!r}") from None


def _directive(text: str) -> DirectiveSequence:
    try:
        return DirectiveSequence.parse(text)
    except ValueError as exc:
        raise ValueError(f"--d: {exc}") from None


def _word_argument(args) -> BinaryWord:
    """Either --word, or the characteristic prefix for --d/--length."""
    if args.word is not None:
        if args.d is not None:
            raise ValueError("--word and --d are mutually exclusive")
        try:
            return BinaryWord.from_string(args.word)
        except ValueError:
            raise ValueError(
                f"--word: expected symbols from 01 or ab, got {args.word!r}"
            ) from None
    if args.d is None:
        raise ValueError("one of --word or --d is required")
    if args.length is None:
        raise ValueError("--length is required with --d")
    return characteristic_prefix(_directive(args.d), args.length)


def _positive(value: int, flag: str) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be positive, got {value}")
    return value


def _nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")
    return value


def _cmd_generate_mechanical(args) -> int:
    params = MechanicalParams(
        sigma=_real(args.sigma, "--sigma"),
        rho=_real(args.rho, "--rho"),
        flavor=args.flavor,
    )
    word = mechanical_word(params, _positive(args.length, "--length"))
    _emit_scalar(args.format, word.to_string(args.alphabet))
    return 0


def _cmd_generate_rotation(args) -> int:
    word = rotation_word(
        _real(args.alpha, "--alpha"),
        _real(args.rho, "--rho"),
        _real(args.sigma, "--sigma"),
        _positive(args.length, "--length"),
    )
    _emit_scalar(args.format, word.to_string(args.alphabet))
    return 0


def _cmd_generate_characteristic(args) -> int:
    word = characteristic_prefix(
        _directive(args.d), _positive(args.length, "--length")
    )
    _emit_scalar(args.format, word.to_string(args.alphabet))
    return 0


def _cmd_generate_standard(args) -> int:
    if args.n < -1:
        raise ValueError(f"--n must be at least -1, got {args.n}")
    d = _directive(args.d)
    try:
        words = standard_words(d, args.n)
    except IndexError as exc:  # past the last digit of a finite directive
        raise ValueError(f"--n: {exc}") from None
    rows = [
        (idx - 1, word.to_string(args.alphabet))
        for idx, word in enumerate(words)
    ]
    _emit_table(args.format, ["index", "word"], rows)
    return 0


def _cmd_generate_central(args) -> int:
    word = central_word(_directive(args.d), args.n, args.j)
    _emit_scalar(args.format, word.to_string(args.alphabet))
    return 0


def _cmd_count_sturmian(args) -> int:
    if (args.n is None) == (args.upto is None):
        raise ValueError("exactly one of --n or --upto is required")
    if args.n is not None:
        _emit_scalar(args.format, sturmian_total(_nonnegative(args.n, "--n")))
    else:
        upto = _nonnegative(args.upto, "--upto")
        rows = list(enumerate(sturmian_totals(upto)))
        _emit_table(args.format, ["n", "total"], rows)
    return 0


def _cmd_count_balanced(args) -> int:
    cap = _resolve_cap(args.cap, DEFAULT_BALANCED_CAP)
    _emit_scalar(args.format, balanced_count(args.n, cap=cap))
    return 0


def _cmd_count_rotation_faces(args) -> int:
    _emit_scalar(args.format, rotation_face_count(_positive(args.n, "--n")))
    return 0


def _cmd_count_rotation_words(args) -> int:
    cap = _resolve_cap(args.cap, DEFAULT_SWEEP_CAP)
    value = rotation_word_count(
        _real(args.sigma, "--sigma"),
        _positive(args.length, "--length"),
        cap=cap,
    )
    _emit_scalar(args.format, value)
    return 0


def _cmd_count_palindrome_factors(args) -> int:
    value = palindrome_factor_count(
        _directive(args.d), _positive(args.n, "--n")
    )
    _emit_scalar(args.format, value)
    return 0


def _cmd_ostrowski_encode(args) -> int:
    rep = encode(_nonnegative(args.n, "--n"), _directive(args.d))
    _emit_scalar(args.format, rep.render())
    return 0


def _parse_digits(text: str, d: DirectiveSequence) -> OstrowskiRep:
    """The vector of --digits; digit i needs d_i, so a vector longer
    than a finite directive is refused."""
    try:
        rep = OstrowskiRep.parse(text, d)
    except ValueError as exc:
        raise ValueError(f"--digits: {exc}") from None
    if d.is_finite and len(rep.digits) > len(d.explicit):
        raise ValueError(
            f"--digits: directive sequence has only {len(d.explicit)} digits"
        )
    return rep


def _cmd_ostrowski_digits(args) -> int:
    """decode, legal and valid: one reading of the vector --digits."""
    read = {"decode": decode, "legal": is_legal, "valid": is_valid}[args.what]
    rep = _parse_digits(args.digits, _directive(args.d))
    _emit_scalar(args.format, read(rep))
    return 0


def _cmd_ostrowski_enumerate(args) -> int:
    d = _directive(args.d)
    cap = _resolve_cap(args.cap, DEFAULT_ENUM_CAP)
    n = _nonnegative(args.n, "--n")
    if args.legal:
        reps = enumerate_legal_reps(n, d, cap=cap)
    else:
        reps = enumerate_valid_reps(n, d, cap=cap)
    rows = [(rep.render(),) for rep in sorted(reps, key=rep_sort_key)]
    _emit_table(args.format, ["digits"], rows)
    return 0


def _cmd_pal_length(args) -> int:
    if args.word is None and args.d is not None and args.length is not None:
        cap = _resolve_cap(args.cap, DEFAULT_PROFILE_CAP)
        _check_profile_length(args.length, cap)
    _emit_scalar(args.format, pal_length(_word_argument(args)))
    return 0


def _cmd_pal_profile(args) -> int:
    cap = _resolve_cap(args.cap, DEFAULT_PROFILE_CAP)
    records = pal_length_profile(
        _directive(args.d), _positive(args.length, "--length"), cap=cap
    )
    _emit_table(args.format, ["length", "pal_length"], records)
    return 0


def _cmd_pal_rich(args) -> int:
    count, rich = distinct_palindromic_factors(_word_argument(args))
    _emit_table(args.format, ["count", "rich"], [(count, rich)])
    return 0


def _cmd_pal_starting_at(args) -> int:
    word = _word_argument(args)
    lengths = palindromes_starting_at(
        word, args.i, _positive(args.maxlen, "--maxlen")
    )
    _emit_table(args.format, ["length"], [(ell,) for ell in lengths])
    return 0


def _cmd_verify_tpr(args) -> int:
    d = _directive(args.d)
    cap = _resolve_cap(args.cap, DEFAULT_ENUM_CAP)
    pmax = _positive(args.pmax, "--pmax")
    if pmax > cap:
        raise CapExceededError(f"--pmax is capped at {cap}, got {pmax}")
    fmt = args.format
    chunks, tally = _witness_lines(d, pmax, fmt == "csv")  # or refuses
    write = sys.stdout.write
    if fmt == "json":
        # the counts lead in sorted-key order, so the chunks, each joined
        # as it comes, wait for the last record
        joined = [", ".join(lines) for lines in chunks]
        occurrences, fallbacks, failures = tally
        write(f'{{"fallbacks": {fallbacks}, "occurrences": {occurrences}, '
              f'"pass": {"false" if failures else "true"}, "records": [')
        for i, chunk in enumerate(joined):
            write(", " + chunk if i else chunk)
        write('], "schema": 1, "verify": "tpr"}\n')
    else:
        if fmt == "csv":
            write("p1,p2,rep_p1,m,y_m,rep_p2,fallback_used,status\n")
        for lines in chunks:
            write("\n".join(lines))
            write("\n")
            lines.clear()  # frees its lines before the next chunk is made
        occurrences, fallbacks, failures = tally
        if fmt == "text":
            write(f"occurrences={occurrences} fallbacks={fallbacks} "
                  f"failures={failures}\n")
        write("fail\n" if failures else "pass\n")
    return 2 if failures else 0


# the cells of a scan that found no pair of representations
_NO_GAP = {"n": -1, "digit_index": -1, "rep_a": "", "rep_b": ""}


def _cmd_verify_zd(args) -> int:
    d = _directive(args.d)
    cap = _resolve_cap(args.cap, DEFAULT_ENUM_CAP)
    gap, witness = zd_max_gap(d, _nonnegative(args.nmax, "--nmax"), cap=cap)
    headers = ["gap", "bound", "n", "digit_index", "rep_a", "rep_b", "status"]
    rec = witness.to_record() if witness is not None else _NO_GAP
    status = "ok" if gap <= args.bound else "FAIL"
    row = (gap, args.bound, rec["n"], rec["digit_index"], rec["rep_a"],
           rec["rep_b"], status)
    return _emit_verify(args.format, "zd", headers, [row])


def _cmd_verify_h_pattern(args) -> int:
    d = _directive(args.d)
    nmax = _positive(args.nmax, "--nmax")
    counts = palindrome_factor_counts(d, nmax)
    rows = []
    for n in range(1, nmax + 1):
        expected = 2 if n % 2 == 1 else 1
        got = counts[n]
        rows.append((n, got, expected, "ok" if got == expected else "FAIL"))
    headers = ["n", "count", "expected", "status"]
    return _emit_verify(args.format, "h-pattern", headers, rows)


def _cmd_verify_balanced_vs_formula(args) -> int:
    nmax = _nonnegative(args.nmax, "--nmax")
    cap = _resolve_cap(args.cap, DEFAULT_BALANCED_CAP)
    oracles = balanced_counts(nmax, cap=cap)  # refuses nmax before any sieve
    rows = []
    for n, (formula, oracle) in enumerate(zip(sturmian_totals(nmax), oracles)):
        status = "ok" if formula == oracle else "FAIL"
        rows.append((n, formula, oracle, status))
    headers = ["n", "formula", "oracle", "status"]
    return _emit_verify(args.format, "balanced-vs-formula", headers, rows)


def _cmd_verify_hard_prefix(args) -> int:
    d = _directive(args.d)
    n = construct_hard_prefix(d, _nonnegative(args.q, "--q"))
    cap = _resolve_cap(None, DEFAULT_PROFILE_CAP)
    if n > cap:
        raise CapExceededError(
            f"hard-prefix length is capped at {cap}, got {n}"
        )
    measured = pal_length(characteristic_prefix(d, n))
    rows = [(n, measured, args.q, "ok" if measured > args.q else "FAIL")]
    headers = ["prefix", "pal_length", "budget", "status"]
    return _emit_verify(args.format, "hard-prefix", headers, rows)


# Built once per process: the parser holds no state between calls, and
# building its ~90 actions costs more than most verbs' work.
@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=_FORMATS, default="text",
        help="output format (default text)",
    )
    word_out = argparse.ArgumentParser(add_help=False)
    word_out.add_argument(
        "--alphabet", choices=("01", "ab"), default="01",
        help="rendering alphabet (default 01)",
    )
    word_in = argparse.ArgumentParser(add_help=False)
    word_in.add_argument("--word", help="literal word over 01 or ab")
    word_in.add_argument("--d", help="directive sequence, e.g. 1,1,(1)")
    word_in.add_argument(
        "--length", type=int, help="characteristic prefix length for --d"
    )

    parser = _Parser(
        prog="sturmian",
        description="Sturmian words: generation, counting, numeration, "
        "palindromes, verification.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    p_gen = top.add_parser("generate", help="emit words")
    gen = p_gen.add_subparsers(dest="what", required=True)

    g = gen.add_parser("mechanical", parents=[common, word_out])
    g.add_argument("--sigma", required=True, help="slope, e.g. sqrt(7)/7")
    g.add_argument("--rho", required=True, help="intercept")
    g.add_argument("--flavor", choices=("lower", "upper"), default="lower")
    g.add_argument("--length", type=int, required=True)
    g.set_defaults(func=_cmd_generate_mechanical)

    g = gen.add_parser("rotation", parents=[common, word_out])
    g.add_argument("--alpha", required=True, help="rotation angle")
    g.add_argument("--rho", required=True, help="starting point")
    g.add_argument("--sigma", required=True, help="interval length")
    g.add_argument("--length", type=int, required=True)
    g.set_defaults(func=_cmd_generate_rotation)

    g = gen.add_parser("characteristic", parents=[common, word_out])
    g.add_argument("--d", required=True, help="directive sequence")
    g.add_argument("--length", type=int, required=True)
    g.set_defaults(func=_cmd_generate_characteristic)

    g = gen.add_parser("standard", parents=[common, word_out])
    g.add_argument("--d", required=True)
    g.add_argument("--n", type=int, required=True, help="last index")
    g.set_defaults(func=_cmd_generate_standard)

    g = gen.add_parser("central", parents=[common, word_out])
    g.add_argument("--d", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--j", type=int, default=0, help="repetition count")
    g.set_defaults(func=_cmd_generate_central)

    p_count = top.add_parser("count", help="counting formulas and oracles")
    cnt = p_count.add_subparsers(dest="what", required=True)

    c = cnt.add_parser("sturmian", parents=[common])
    c.add_argument("--n", type=int, help="single length")
    c.add_argument("--upto", type=int, help="table for 0..N")
    c.set_defaults(func=_cmd_count_sturmian)

    c = cnt.add_parser("balanced", parents=[common])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--cap", type=int)
    c.set_defaults(func=_cmd_count_balanced)

    c = cnt.add_parser("rotation-faces", parents=[common])
    c.add_argument("--n", type=int, required=True, help="arrangement order")
    c.set_defaults(func=_cmd_count_rotation_faces)

    c = cnt.add_parser("rotation-words", parents=[common])
    c.add_argument("--sigma", required=True)
    c.add_argument("--length", type=int, required=True)
    c.add_argument("--cap", type=int,
                   help=f"largest --length (default {DEFAULT_SWEEP_CAP})")
    c.set_defaults(func=_cmd_count_rotation_words)

    c = cnt.add_parser("palindrome-factors", parents=[common])
    c.add_argument("--d", required=True)
    c.add_argument("--n", type=int, required=True, help="factor length")
    c.set_defaults(func=_cmd_count_palindrome_factors)

    p_ost = top.add_parser("ostrowski", help="numeration system")
    ost = p_ost.add_subparsers(dest="what", required=True)

    o = ost.add_parser("encode", parents=[common])
    o.add_argument("--d", required=True)
    o.add_argument("--n", type=int, required=True)
    o.set_defaults(func=_cmd_ostrowski_encode)

    for verb in ("decode", "legal", "valid"):
        o = ost.add_parser(verb, parents=[common])
        o.add_argument("--d", required=True)
        o.add_argument("--digits", required=True)
        o.set_defaults(func=_cmd_ostrowski_digits)

    o = ost.add_parser("enumerate", parents=[common])
    o.add_argument("--d", required=True)
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--legal", action="store_true",
                   help="legal instead of valid representations")
    o.add_argument("--cap", type=int)
    o.set_defaults(func=_cmd_ostrowski_enumerate)

    p_pal = top.add_parser("pal", help="palindrome analysis")
    pal = p_pal.add_subparsers(dest="what", required=True)

    p = pal.add_parser("length", parents=[common, word_in])
    p.add_argument("--cap", type=int, help="bound on --length with --d")
    p.set_defaults(func=_cmd_pal_length)

    p = pal.add_parser("profile", parents=[common])
    p.add_argument("--d", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--cap", type=int)
    p.set_defaults(func=_cmd_pal_profile)

    p = pal.add_parser("rich", parents=[common, word_in])
    p.set_defaults(func=_cmd_pal_rich)

    p = pal.add_parser("starting-at", parents=[common, word_in])
    p.add_argument("--i", type=int, required=True, help="start position")
    p.add_argument("--maxlen", type=int, required=True)
    p.set_defaults(func=_cmd_pal_starting_at)

    p_ver = top.add_parser("verify", help="verification suites")
    ver = p_ver.add_subparsers(dest="what", required=True)

    v = ver.add_parser("tpr", parents=[common])
    v.add_argument("--d", required=True)
    v.add_argument("--pmax", type=int, required=True)
    v.add_argument("--cap", type=int,
                   help=f"largest --pmax (default {DEFAULT_ENUM_CAP})")
    v.set_defaults(func=_cmd_verify_tpr)

    v = ver.add_parser("zd", parents=[common])
    v.add_argument("--d", required=True)
    v.add_argument("--nmax", type=int, required=True)
    v.add_argument("--bound", type=int, default=3)
    v.add_argument("--cap", type=int)
    v.set_defaults(func=_cmd_verify_zd)

    v = ver.add_parser("h-pattern", parents=[common])
    v.add_argument("--d", required=True)
    v.add_argument("--nmax", type=int, required=True)
    v.set_defaults(func=_cmd_verify_h_pattern)

    v = ver.add_parser("balanced-vs-formula", parents=[common])
    v.add_argument("--nmax", type=int, required=True)
    v.add_argument("--cap", type=int)
    v.set_defaults(func=_cmd_verify_balanced_vs_formula)

    v = ver.add_parser("hard-prefix", parents=[common])
    v.add_argument("--d", required=True)
    v.add_argument("--q", type=int, required=True)
    v.set_defaults(func=_cmd_verify_hard_prefix)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TheoremViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(run(None))
