"""Span recorder that wraps tepperlab's functions from outside the package.

Each wrapped call records one span: name, start, end (``perf_counter_ns``)
and the index of the enclosing span, or -1 at the top.  Spans stay in memory;
the caller folds them into per-name totals and writes them out when the run
ends.  A span's self time is its duration minus the durations of its direct
children.

Several tepperlab modules import functions by name (``from .exact import
binomial``), so patching only the defining module would miss those calls.
``install`` therefore replaces the function in every loaded ``tepperlab``
module that holds it.  ``Polynomial`` methods are replaced on the class.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute); "Class.method" wraps on the class.
WRAPPED = (
    ("poly.construct", "tepperlab.poly", "Polynomial.__post_init__"),
    ("poly.shift", "tepperlab.poly", "Polynomial.shift"),
    ("poly.evaluate", "tepperlab.poly", "Polynomial.evaluate"),
    ("poly.arith", "tepperlab.poly", "Polynomial.scale"),
    ("poly.arith", "tepperlab.poly", "Polynomial.__add__"),
    ("poly.arith", "tepperlab.poly", "Polynomial.__neg__"),
    ("poly.arith", "tepperlab.poly", "Polynomial.__sub__"),
    ("exact.binomial", "tepperlab.exact", "binomial"),
    ("exact.pascal_row", "tepperlab.exact", "pascal_row"),
    ("diffcalc.symbolic", "tepperlab.diffcalc", "alternating_sum_symbolic"),
    ("diffcalc.iterated", "tepperlab.diffcalc", "iterated_difference"),
    ("diffcalc.numeric", "tepperlab.diffcalc", "alternating_sum_numeric"),
    ("parser.parse", "tepperlab.parser", "parse_polynomial"),
    ("parser.render", "tepperlab.parser", "render_polynomial"),
    ("identities.verify", "tepperlab.identities", "verify_tepper"),
    ("identities.verify", "tepperlab.identities", "verify_lemma"),
    ("identities.verify", "tepperlab.identities", "verify_generalized"),
    ("identities.verify", "tepperlab.identities", "verify_conjecture"),
    ("identities.verify", "tepperlab.identities", "verify_via_expansion"),
    ("identities.verify", "tepperlab.identities", "classify_power_sum"),
    ("identities.sweep", "tepperlab.identities", "sweep_conjecture"),
    ("occupancy.closed_form", "tepperlab.occupancy", "exact_occupancy_count"),
    ("occupancy.oracle", "tepperlab.occupancy", "brute_force_occupancy"),
    ("occupancy.power_sum", "tepperlab.occupancy", "alternating_power_sum"),
    ("numtheory.naive_route", "tepperlab.numtheory", "factorial_mod_naive"),
    ("numtheory.tepper_route", "tepperlab.numtheory", "factorial_mod_tepper"),
    ("numtheory.fermat_route", "tepperlab.numtheory", "factorial_mod_fermat_route"),
    ("numtheory.wilson", "tepperlab.numtheory", "wilson_primality"),
    ("cli.build_parser", "tepperlab.cli", "build_parser"),
    ("cli.main", "tepperlab.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in WRAPPED))

# The benchmark's own span around each item; its self time is the checks
# plus library code that no wrapper covers.
ITEM_SPAN = "bench.item"


def _oracle_assignments(params, *_args, **_kwargs) -> int:
    return params.wagons**params.passengers


# Work counters, recorded when the wrapped call returns normally.
COUNTERS = {"occupancy.oracle": ("occupancy.oracle.assignments", _oracle_assignments)}


class Tracer:
    """Records spans while installed; ``take`` hands them over and resets."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                self.counters[counter[0]] += counter[1](*args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry of WRAPPED in every module that binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == "tepperlab" or key.startswith("tepperlab.")]
        for name, module_name, attribute in WRAPPED:
            owner = sys.modules[module_name]
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, original, self._wrap(name, original))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def take(self) -> tuple[list, dict[str, int]]:
        """The spans and counters recorded so far; both start empty again."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, counters = self.spans, dict(self.counters)
        self.spans = []
        self.counters.clear()
        return spans, counters


def fold(spans: list) -> dict[str, tuple[int, int]]:
    """Per span name: (calls, self time in ns)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for (name, start, end, _), children in zip(spans, child_ns):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start - children
    return {name: (calls, self_ns) for name, (calls, self_ns) in totals.items()}


def write_spans(spans: list, path) -> None:
    """One JSON object per line; a span's line number (from 0) is its index."""
    with open(path, "w") as out:
        for name, start, end, parent in spans:
            out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
