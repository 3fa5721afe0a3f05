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

The package exports every name in each submodule's ``__all__``, cli's
aside.
"""

from . import errors, exactnum, words, counting, ostrowski, palindromes
from .errors import *
from .exactnum import *
from .words import *
from .counting import *
from .ostrowski import *
from .palindromes import *

__version__ = "0.1.0"

# PalindromicTree is public in both words and palindromes
__all__ = [
    *dict.fromkeys(
        name
        for mod in (errors, exactnum, words, counting, ostrowski, palindromes)
        for name in mod.__all__
    ),
    "__version__",
]
