"""Sturmian words: exact generation, counting, numeration, palindromes.

The package works over exact quadratic-field arithmetic end to end, so
every reported count, word, and witness is exact rather than floating
point.  Submodules:

  exactnum     numbers (a + b sqrt(d))/c and continued fractions
  words        mechanical/rotation/characteristic/standard words
  counting     complexity formulas plus brute-force oracles
  ostrowski    the numeration system of a directive sequence
  palindromes  palindromic structure, witnesses, palindromic length
  cli          command-line front end
"""

from .errors import CapExceededError, TheoremViolationError
from .exactnum import (
    ContinuedFraction,
    ExactReal,
    MixedRadicalError,
    cf_expand,
    cf_value,
    compare,
    parse_real,
)
from .words import (
    BinaryWord,
    DirectiveSequence,
    MechanicalParams,
    balance_witness,
    characteristic_factor_count,
    characteristic_prefix,
    factor_set,
    has_kth_power,
    is_balanced,
    mechanical_word,
    n_partition,
    rotation_word,
    standard_words,
)
from .counting import (
    ArrangementLine,
    FaceSample,
    arrangement_face_count,
    arrangement_lines,
    balanced_count,
    balanced_counts,
    euler_phi,
    euler_phi_sieve,
    rotation_face_count,
    rotation_word_count,
    rotation_word_samples,
    sturmian_total,
)
from .ostrowski import (
    OstrowskiRep,
    decode,
    digits_to_word,
    encode,
    enumerate_legal_reps,
    enumerate_valid_reps,
    is_canonical,
    is_legal,
    is_valid,
    standard_lengths,
)
from .palindromes import (
    OccurrenceWitness,
    PalindromeOccurrence,
    PalindromicTree,
    ZdGapWitness,
    central_word,
    construct_hard_prefix,
    distinct_palindromic_factors,
    is_palindrome,
    maximal_palindromic_extension,
    occurrence_witness,
    occurrence_witnesses,
    pal_length,
    pal_length_profile,
    palindrome_factor_count,
    palindromes_starting_at,
    z_vector,
    zd_max_gap,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "TheoremViolationError",
    "ContinuedFraction",
    "ExactReal",
    "MixedRadicalError",
    "cf_expand",
    "cf_value",
    "compare",
    "parse_real",
    "BinaryWord",
    "DirectiveSequence",
    "MechanicalParams",
    "balance_witness",
    "characteristic_factor_count",
    "characteristic_prefix",
    "factor_set",
    "has_kth_power",
    "is_balanced",
    "mechanical_word",
    "n_partition",
    "rotation_word",
    "standard_words",
    "ArrangementLine",
    "FaceSample",
    "arrangement_face_count",
    "arrangement_lines",
    "balanced_count",
    "balanced_counts",
    "euler_phi",
    "euler_phi_sieve",
    "rotation_face_count",
    "rotation_word_count",
    "rotation_word_samples",
    "sturmian_total",
    "OstrowskiRep",
    "decode",
    "digits_to_word",
    "encode",
    "enumerate_legal_reps",
    "enumerate_valid_reps",
    "is_canonical",
    "is_legal",
    "is_valid",
    "standard_lengths",
    "OccurrenceWitness",
    "PalindromeOccurrence",
    "PalindromicTree",
    "ZdGapWitness",
    "central_word",
    "construct_hard_prefix",
    "distinct_palindromic_factors",
    "is_palindrome",
    "maximal_palindromic_extension",
    "occurrence_witness",
    "occurrence_witnesses",
    "pal_length",
    "pal_length_profile",
    "palindrome_factor_count",
    "palindromes_starting_at",
    "z_vector",
    "zd_max_gap",
    "__version__",
]
