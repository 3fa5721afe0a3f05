"""Per-layer tracing of the `sturmian` package, installed from outside.

A layer is one module of the package.  `Tracer.install()` wraps every
public function of each layer (the names in its `__all__`) and the
`ExactReal.floor` method.  The modules import one another by name, so
each wrapper replaces every binding of the original in every
`sturmian.*` namespace, e.g. `encode` inside `palindromes` and
`compare` inside `words` and `counting`.  `uninstall()` puts the
originals back.  Hot per-symbol methods (`DirectiveSequence.digit`,
`PalindromicTree.add`) stay unwrapped: a span per symbol would cost
more than the work it measures.

A span's self time is its duration minus the time of the traced spans
it encloses.
"""

from __future__ import annotations

import inspect
import re
import statistics
import subprocess
import sys
import time

LAYERS = ("exactnum", "words", "counting", "ostrowski", "palindromes", "cli")

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("words.prefix_calls", "count", "lower"),
    ("words.prefix_symbols", "count", "lower"),
    ("words.prefix_s", "s", "lower"),
    ("words.factor_count_s", "s", "lower"),
    ("words.balance_s", "s", "lower"),
    ("words.self_s", "s", "lower"),
    ("ostrowski.encode_calls", "count", "lower"),
    ("ostrowski.decode_calls", "count", "lower"),
    ("ostrowski.is_valid_calls", "count", "lower"),
    ("ostrowski.legal_enum_calls", "count", "lower"),
    ("ostrowski.legal_enum_s", "s", "lower"),
    ("ostrowski.valid_enum_calls", "count", "lower"),
    ("ostrowski.valid_reps", "count", "lower"),
    ("ostrowski.valid_enum_s", "s", "lower"),
    ("ostrowski.self_s", "s", "lower"),
    ("palindromes.witness_calls", "count", "lower"),
    ("palindromes.witness_fallbacks", "count", "lower"),
    ("palindromes.witness_constructive_ratio", "ratio", "higher"),
    ("palindromes.witness_s", "s", "lower"),
    ("palindromes.witness_fallback_s", "s", "lower"),
    ("palindromes.zd_s", "s", "lower"),
    ("palindromes.factor_count_s", "s", "lower"),
    ("palindromes.profile_s", "s", "lower"),
    ("palindromes.profile_symbols_per_s", "1/s", "higher"),
    ("palindromes.self_s", "s", "lower"),
    ("counting.balanced_s", "s", "lower"),
    ("counting.faces_s", "s", "lower"),
    ("counting.self_s", "s", "lower"),
    ("exactnum.floor_calls", "count", "lower"),
    ("exactnum.compare_calls", "count", "lower"),
    ("exactnum.self_s", "s", "lower"),
    *((f"{layer}.import_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_s", "s", "lower"),
]


class _Span:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Spans and counters for one traced round."""

    def __init__(self):
        self.spans: dict[str, _Span] = {}
        self.counts: dict[str, float] = {
            "prefix_symbols": 0, "valid_reps": 0, "witness_fallbacks": 0,
            "witness_fallback_s": 0.0, "profile_symbols": 0,
        }
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn, observe=None):
        span = self.spans.setdefault(key, _Span())
        opened = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            opened.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = opened.pop()
                if opened:
                    opened[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self += elapsed - child
            if observe is not None:
                observe(args, result, elapsed)
            return result

        return traced

    def _observers(self):
        counts = self.counts

        def prefix(args, result, elapsed):
            counts["prefix_symbols"] += len(result)

        def valid(args, result, elapsed):
            counts["valid_reps"] += len(result)

        def witness(args, result, elapsed):
            if result.fallback_used:
                counts["witness_fallbacks"] += 1
                counts["witness_fallback_s"] += elapsed

        def profile(args, result, elapsed):
            counts["profile_symbols"] += args[1]

        return {
            "words.characteristic_prefix": prefix,
            "ostrowski.enumerate_valid_reps": valid,
            "palindromes.occurrence_witness": witness,
            "palindromes.pal_length_profile": profile,
        }

    def install(self) -> None:
        namespaces = [
            mod for name, mod in sys.modules.items()
            if name == "sturmian" or name.startswith("sturmian.")
        ]
        observers = self._observers()
        for layer in LAYERS:
            module = sys.modules[f"sturmian.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                traced = self._wrap(key, fn, observers.get(key))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, attr, fn))
                            setattr(ns, attr, traced)
        real = sys.modules["sturmian.exactnum"].ExactReal
        self._undo.append((real, "floor", real.floor))
        real.floor = self._wrap("exactnum.floor", real.floor)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _total(self, *keys) -> float:
        return sum(self.spans[k].total for k in keys if k in self.spans)

    def _calls(self, key) -> int:
        span = self.spans.get(key)
        return span.calls if span else 0

    def _self(self, layer) -> float:
        return sum(s.self for k, s in self.spans.items() if k.startswith(layer + "."))

    def layer_metrics(self) -> dict[str, float]:
        """Every traced metric of METRICS except cli.stdout_bytes,
        the import times and the overhead, which the caller measures."""
        witness_calls = self._calls("palindromes.occurrence_witness")
        fallbacks = self.counts["witness_fallbacks"]
        profile_s = self._total("palindromes.pal_length_profile")
        return {
            "cli.self_s": self.spans["cli.run"].self if "cli.run" in self.spans else 0.0,
            "words.prefix_calls": self._calls("words.characteristic_prefix"),
            "words.prefix_symbols": self.counts["prefix_symbols"],
            "words.prefix_s": self._total("words.characteristic_prefix"),
            "words.factor_count_s": self._total("words.characteristic_factor_count"),
            "words.balance_s": self._total("words.is_balanced", "words.balance_witness"),
            "words.self_s": self._self("words"),
            "ostrowski.encode_calls": self._calls("ostrowski.encode"),
            "ostrowski.decode_calls": self._calls("ostrowski.decode"),
            "ostrowski.is_valid_calls": self._calls("ostrowski.is_valid"),
            "ostrowski.legal_enum_calls": self._calls("ostrowski.enumerate_legal_reps"),
            "ostrowski.legal_enum_s": self._total("ostrowski.enumerate_legal_reps"),
            "ostrowski.valid_enum_calls": self._calls("ostrowski.enumerate_valid_reps"),
            "ostrowski.valid_reps": self.counts["valid_reps"],
            "ostrowski.valid_enum_s": self._total("ostrowski.enumerate_valid_reps"),
            "ostrowski.self_s": self._self("ostrowski"),
            "palindromes.witness_calls": witness_calls,
            "palindromes.witness_fallbacks": fallbacks,
            "palindromes.witness_constructive_ratio": (
                (witness_calls - fallbacks) / witness_calls if witness_calls else 0.0
            ),
            "palindromes.witness_s": self._total("palindromes.occurrence_witness"),
            "palindromes.witness_fallback_s": self.counts["witness_fallback_s"],
            "palindromes.zd_s": self._total("palindromes.zd_max_gap"),
            "palindromes.factor_count_s": self._total("palindromes.palindrome_factor_count"),
            "palindromes.profile_s": profile_s,
            "palindromes.profile_symbols_per_s": (
                self.counts["profile_symbols"] / profile_s if profile_s else 0.0
            ),
            "palindromes.self_s": self._self("palindromes"),
            "counting.balanced_s": self._total("counting.balanced_count"),
            "counting.faces_s": self._total(
                "counting.arrangement_face_count", "counting.rotation_face_count"
            ),
            "counting.self_s": self._self("counting"),
            "exactnum.floor_calls": self._calls("exactnum.floor"),
            "exactnum.compare_calls": self._calls("exactnum.compare"),
            "exactnum.self_s": self._self("exactnum"),
        }


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)")


def import_times(root, runs: int = 3) -> dict[str, float]:
    """Cumulative import time of each layer, in seconds, from
    `python -X importtime` in fresh interpreters (median of `runs`)."""
    # The package first, so the line of sturmian.cli counts only what
    # the CLI itself adds.
    code = "import sys; sys.path.insert(0, 'src'); import sturmian, sturmian.cli"
    samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            cwd=root, capture_output=True, text=True, check=True,
        )
        for match in _IMPORT_LINE.finditer(done.stderr):
            layer = match.group(2).removeprefix("sturmian.")
            if layer in samples:
                samples[layer].append(int(match.group(1)) / 1e6)
    return {f"{layer}.import_s": statistics.median(v) for layer, v in samples.items()}
