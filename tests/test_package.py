"""The package surface: sturmian.__all__ is the submodules' lists, the
record classes' value protocol, and what a cold import loads."""

import ast
import copy
import importlib
import pathlib
import pickle
import subprocess
import sys

import pytest

import sturmian
from sturmian import (
    ArrangementLine,
    BinaryWord,
    ContinuedFraction,
    DirectiveSequence,
    ExactReal,
    FaceSample,
    MechanicalParams,
    OccurrenceWitness,
    OstrowskiRep,
    PalindromeOccurrence,
    ZdGapWitness,
)

# the 62 names the package exported before it took them from the
# submodules, by defining module, less those in MOVED
EXPORTED = {
    "errors": ["CapExceededError", "TheoremViolationError"],
    "exactnum": [
        "ContinuedFraction", "ExactReal", "MixedRadicalError", "cf_expand",
        "cf_value", "compare", "parse_real",
    ],
    "words": [
        "BinaryWord", "DirectiveSequence", "MechanicalParams",
        "balance_witness", "characteristic_factor_count",
        "characteristic_prefix", "factor_set", "has_kth_power",
        "is_balanced", "mechanical_word", "n_partition", "rotation_word",
        "standard_words", "PalindromicTree",
    ],
    "counting": [
        "ArrangementLine", "FaceSample", "arrangement_face_count",
        "arrangement_lines", "balanced_count", "balanced_counts",
        "euler_phi", "euler_phi_sieve", "rotation_face_count",
        "rotation_word_count", "rotation_word_samples", "sturmian_total",
    ],
    "ostrowski": [
        "OstrowskiRep", "decode", "digits_to_word", "encode",
        "enumerate_legal_reps", "enumerate_valid_reps", "is_legal",
        "is_valid", "standard_lengths",
    ],
    "palindromes": [
        "OccurrenceWitness", "PalindromeOccurrence", "ZdGapWitness",
        "central_word", "construct_hard_prefix",
        "distinct_palindromic_factors", "is_palindrome",
        "maximal_palindromic_extension", "occurrence_witness",
        "occurrence_witnesses", "pal_length", "pal_length_profile",
        "palindrome_factor_count", "palindromes_starting_at", "z_vector",
        "zd_max_gap",
    ],
}
# names of those 62 that no verb, module or benchmark called, moved into
# the tests as oracles: is_canonical into test_ostrowski
MOVED = {"ostrowski": ["is_canonical"]}
SUBMODULES = [*EXPORTED, "cli"]


def test_no_duplicates():
    assert len(sturmian.__all__) == len(set(sturmian.__all__))


def test_keeps_every_earlier_name():
    names = [name for names in EXPORTED.values() for name in names]
    moved = [name for names in MOVED.values() for name in names]
    assert len(names) + len(moved) + 1 == 62
    assert set(names) | {"__version__"} <= set(sturmian.__all__)
    assert not set(moved) & set(sturmian.__all__)
    for module, names in MOVED.items():
        mod = importlib.import_module(f"sturmian.{module}")
        assert not any(hasattr(mod, name) for name in names)


@pytest.mark.parametrize("module", list(EXPORTED))
def test_same_object_as_the_defining_module(module):
    mod = importlib.import_module(f"sturmian.{module}")
    for name in EXPORTED[module]:
        assert getattr(sturmian, name) is getattr(mod, name), name


def test_caps_and_sort_key_exported():
    for name in ("DEFAULT_RECURRENCE_CAP", "DEFAULT_STABILIZE_CAP",
                 "DEFAULT_BALANCED_CAP", "DEFAULT_SWEEP_CAP",
                 "DEFAULT_ENUM_CAP", "DEFAULT_PROFILE_CAP", "rep_sort_key"):
        assert name in sturmian.__all__


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_lists_resolve(module):
    # bench/tracer.py walks these lists, so an unknown name would stop it
    mod = importlib.import_module(f"sturmian.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_package_list_is_the_submodule_lists():
    expected = {"__version__"}
    for module in EXPORTED:
        expected |= set(importlib.import_module(f"sturmian.{module}").__all__)
    assert set(sturmian.__all__) == expected
    for name in sturmian.__all__:
        assert hasattr(sturmian, name), name


FIB = DirectiveSequence((1,), (1,))
SIGMA = ExactReal(3, -1, 2, 5)
REP = OstrowskiRep(FIB, (0, 1))


def _rep_fib(digits):
    """The repr of OstrowskiRep(FIB, digits), digits given as text."""
    return f"OstrowskiRep(d=DirectiveSequence(explicit=(1,), periodic=(1,)), digits={digits})"


# each record class: its field names and values in order, and its repr
RECORDS = {
    "ContinuedFraction": (
        ContinuedFraction, {"quotients": (0, 2), "periodic": (1,)},
        "ContinuedFraction(quotients=(0, 2), periodic=(1,))",
    ),
    "DirectiveSequence": (
        DirectiveSequence, {"explicit": (1, 2), "periodic": (3,)},
        "DirectiveSequence(explicit=(1, 2), periodic=(3,))",
    ),
    "MechanicalParams": (
        MechanicalParams,
        {"sigma": SIGMA, "rho": ExactReal(0), "flavor": "upper"},
        "MechanicalParams(sigma=ExactReal(3, -1, 2, 5), "
        "rho=ExactReal(0, 0, 1, 0), flavor='upper')",
    ),
    "ArrangementLine": (
        ArrangementLine, {"coeff": 2, "level": ExactReal(1) - SIGMA, "kind": "shifted"},
        "ArrangementLine(coeff=2, level=ExactReal(-1, 1, 2, 5), kind='shifted')",
    ),
    "FaceSample": (
        FaceSample,
        {"alpha": ExactReal(1, 0, 3, 0), "rho": ExactReal(1, 0, 2, 0),
         "word": BinaryWord.from_string("0101")},
        "FaceSample(alpha=ExactReal(1, 0, 3, 0), rho=ExactReal(1, 0, 2, 0), "
        "word=BinaryWord('0101'))",
    ),
    "OstrowskiRep": (OstrowskiRep, {"d": FIB, "digits": (0, 1)}, _rep_fib("(0, 1)")),
    "PalindromeOccurrence": (
        PalindromeOccurrence, {"d": FIB, "p1": 2, "p2": 5},
        "PalindromeOccurrence(d=DirectiveSequence(explicit=(1,), "
        "periodic=(1,)), p1=2, p2=5)",
    ),
    "OccurrenceWitness": (
        OccurrenceWitness,
        {"p1": 2, "p2": 5, "rep_p1": REP, "m": 1, "y_m": 1,
         "rep_p2": OstrowskiRep(FIB, (1, 0, 1)), "fallback_used": False},
        f"OccurrenceWitness(p1=2, p2=5, rep_p1={_rep_fib('(0, 1)')}, m=1, y_m=1, "
        f"rep_p2={_rep_fib('(1, 0, 1)')}, fallback_used=False)",
    ),
    "ZdGapWitness": (
        ZdGapWitness,
        {"n": 7, "digit_index": 1, "rep_a": REP, "rep_b": OstrowskiRep(FIB, (0, 0, 1))},
        f"ZdGapWitness(n=7, digit_index=1, rep_a={_rep_fib('(0, 1)')}, "
        f"rep_b={_rep_fib('(0, 0, 1)')})",
    ),
}


def _sample(name):
    cls, fields, _ = RECORDS[name]
    return cls(*fields.values())


@pytest.mark.parametrize("name", RECORDS)
class TestRecord:
    def test_fields_and_keywords(self, name):
        cls, fields, _ = RECORDS[name]
        x = _sample(name)
        assert tuple(getattr(x, f) for f in fields) == tuple(fields.values())
        assert cls(**fields) == x

    def test_equality_and_hash(self, name):
        cls, fields, _ = RECORDS[name]
        x, y = _sample(name), _sample(name)
        assert x == y and not x != y
        assert hash(x) == hash(y) == hash(tuple(fields.values()))
        assert x != tuple(fields.values())
        assert x.__eq__(object()) is NotImplemented
        for other in RECORDS:
            if other != name:
                assert x != _sample(other)
                assert x.__eq__(_sample(other)) is NotImplemented

    def test_repr(self, name):
        assert repr(_sample(name)) == RECORDS[name][2]

    def test_match_args(self, name):
        cls, fields, _ = RECORDS[name]
        assert cls.__match_args__ == tuple(fields)

    def test_frozen(self, name):
        x = _sample(name)
        for field in [*RECORDS[name][1], "extra"]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(x, field, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(x, field)
        assert x == _sample(name)

    def test_copy_and_pickle(self, name):
        x = _sample(name)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x)
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_same_values_in_another_record_class_differ():
    cf, ds = ContinuedFraction((1,), (1,)), DirectiveSequence((1,), (1,))
    assert hash(cf) == hash(ds)
    assert cf != ds and ds != cf


def test_defaults():
    assert ContinuedFraction((1,)).periodic == ()
    assert DirectiveSequence((1, 2)).periodic == ()
    assert MechanicalParams(SIGMA, ExactReal(0)).flavor == "lower"
    assert MechanicalParams(sigma=SIGMA, rho=ExactReal(0)) == MechanicalParams(
        SIGMA, ExactReal(0), "lower"
    )


def test_conversions():
    cf = ContinuedFraction([0, 2], [True])
    assert (cf.quotients, cf.periodic) == ((0, 2), (1,))
    assert type(cf.periodic[0]) is int
    assert DirectiveSequence([1, 2], [3]) == DirectiveSequence((1, 2), (3,))
    # trailing zero digits (leading zeros when rendered) are dropped
    assert OstrowskiRep(FIB, [0, 1, 0, 0]).digits == (0, 1)
    assert OstrowskiRep(FIB, (0, 0)) == OstrowskiRep(FIB, ())


def test_match_statement():
    match REP:
        case OstrowskiRep(d, digits):
            assert (d, digits) == (FIB, (0, 1))
        case _:
            pytest.fail("OstrowskiRep did not match positionally")


@pytest.mark.parametrize("build, message", [
    (lambda: ContinuedFraction(()), "a continued fraction needs at least a0"),
    (lambda: ContinuedFraction((-1,)), "a0 must be nonnegative"),
    (lambda: ContinuedFraction((1, 0)), "partial quotients must be positive"),
    (lambda: ContinuedFraction((1, 2), (0,)), "partial quotients must be positive"),
    (lambda: ContinuedFraction((0, 1)),
     "canonical finite expansions end with a quotient >= 2"),
    (lambda: DirectiveSequence(()), "a directive sequence needs at least one digit"),
    (lambda: DirectiveSequence((-1,)), "d_0 must be nonnegative"),
    (lambda: DirectiveSequence((1, 0)), "digits after d_0 must be positive"),
    (lambda: DirectiveSequence((), (2, 0)), "digits after d_0 must be positive"),
    (lambda: MechanicalParams(SIGMA, ExactReal(0), "middle"),
     "flavor must be 'lower' or 'upper'"),
    (lambda: MechanicalParams(ExactReal(0), ExactReal(0)),
     "sigma must lie in (0,1), got 0"),
    (lambda: MechanicalParams(SIGMA, ExactReal(1)), "rho must lie in [0,1), got 1"),
    (lambda: OstrowskiRep(FIB, (1, -1)), "digits must be nonnegative"),
    (lambda: PalindromeOccurrence(FIB, 3, 2), "positions must satisfy 0 <= p1 <= p2"),
    (lambda: PalindromeOccurrence(FIB, -1, 2), "positions must satisfy 0 <= p1 <= p2"),
])
def test_validation_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_warm_directive_sequence_is_still_its_digits():
    warm = DirectiveSequence.parse("fib")
    warm.q(30)
    warm._characteristic(1000)
    cold = DirectiveSequence((1,), (1,))
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    for y in (copy.copy(warm), copy.deepcopy(warm), pickle.loads(pickle.dumps(warm))):
        assert y == cold and y.q(30) == warm.q(30)
        assert y._characteristic(1000) == warm._characteristic(1000)


def test_cold_import_loads_no_dataclasses():
    # a fresh interpreter, since pytest itself has loaded dataclasses
    src = str(pathlib.Path(sturmian.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import sturmian.cli; print(sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    added = set(ast.literal_eval(done.stdout))
    assert not {"dataclasses", "inspect"} & added
    # bench/tracer.py reads one -X importtime line per layer
    layers = {"exactnum", "words", "counting", "ostrowski", "palindromes", "cli"}
    assert {f"sturmian.{layer}" for layer in layers} <= added
