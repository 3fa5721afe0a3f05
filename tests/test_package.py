"""The package surface: sturmian.__all__ is the submodules' lists."""

import importlib

import pytest

import sturmian

# the 62 names the package exported before it took them from the
# submodules, by defining module
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
        "enumerate_legal_reps", "enumerate_valid_reps", "is_canonical",
        "is_legal", "is_valid", "standard_lengths",
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
SUBMODULES = [*EXPORTED, "cli"]


def test_no_duplicates():
    assert len(sturmian.__all__) == len(set(sturmian.__all__))


def test_keeps_every_earlier_name():
    names = [name for names in EXPORTED.values() for name in names]
    assert len(names) + 1 == 62
    assert set(names) | {"__version__"} <= set(sturmian.__all__)


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
