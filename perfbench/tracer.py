"""Span tracing of knotsurgery's public functions, installed from outside.

``install()`` replaces each public function of the six modules, every
module-level alias of it, and the LaurentPoly / report / certificate methods
with a wrapper that records a span: name, parent span, start, end and at
most one exact count.  Nothing under src/ changes.  Spans stay in memory
until ``dump`` writes them; ``aggregate`` turns span files into per-layer
numbers, where a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

MODULES = ("laurent", "knots", "fox", "surgery", "family", "cli")

# span name -> (module, owner class or None, attribute names, count kind)
_FUNCTIONS = {
    "knots.alexander_torus": ("knots", None, ("alexander_torus",), None),
    "knots.alexander_expr": ("knots", None, ("alexander_expr",), None),
    "knots.parse_knot_expr": ("knots", None, ("parse_knot_expr",), None),
    "knots.genus_torus": ("knots", None, ("genus_torus",), None),
    "knots.format_knot_expr": ("knots", None, ("format_knot_expr",), None),
    "fox.alexander_fox_oracle": ("fox", None, ("alexander_fox_oracle",), None),
    "surgery.torres_specialize": ("surgery", None, ("torres_specialize",), None),
    "surgery.sw_prefactor": ("surgery", None, ("sw_prefactor",), None),
    "surgery.sw_link_surgery": ("surgery", None, ("sw_link_surgery",), None),
    "surgery.sw_specialized": ("surgery", None, ("sw_specialized",), None),
    "surgery.basic_class_lower_bound": ("surgery", None, ("basic_class_lower_bound",), None),
    "family.analyze_family": ("family", None, ("analyze_family",), None),
    "family.certify_unbounded": ("family", None, ("certify_unbounded",), None),
    "family.verify_certificate": ("family", None, ("verify_certificate",), "rejects"),
    "family.report_emit": ("family", "FamilyReport", ("to_json", "to_csv", "to_text"), None),
    "family.certificate_io": ("family", "UnboundednessCertificate", ("to_json", "from_json"), None),
    "cli.main": ("cli", None, ("main",), None),
    "laurent.init": ("laurent", "LaurentPoly", ("__init__",), "terms"),
    "laurent.add": ("laurent", "LaurentPoly", ("__add__", "__radd__"), None),
    "laurent.mul": ("laurent", "LaurentPoly", ("__mul__", "__rmul__"), "pairs"),
    "laurent.pow": ("laurent", "LaurentPoly", ("__pow__",), None),
    "laurent.exact_divide": ("laurent", "LaurentPoly", ("exact_divide",), "terms_out"),
    "laurent.symmetrize": ("laurent", "LaurentPoly", ("symmetrize",), None),
    "laurent.substitute": ("laurent", "LaurentPoly", ("substitute",), None),
    "laurent.evaluate_at_one": ("laurent", "LaurentPoly", ("evaluate_at_one",), None),
    "laurent.equal_up_to_units": ("laurent", "LaurentPoly", ("equal_up_to_units",), None),
    "laurent.str": ("laurent", "LaurentPoly", ("__str__",), "chars_out"),
    "laurent.to_json_dict": ("laurent", "LaurentPoly", ("to_json_dict",), None),
    "laurent.parse": ("laurent", "LaurentPoly", ("parse",), "chars_in"),
}


def _count(kind, args, result) -> int:
    # exact work counts; each depends only on the inputs, never on timing
    if kind == "terms":
        return len(args[0]._terms)
    if kind == "pairs":
        other = args[1]
        width = len(other._terms) if hasattr(other, "_terms") else int(other != 0)
        return len(args[0]._terms) * width
    if kind == "terms_out":
        return len(result._terms)
    if kind == "chars_out":
        return len(result)
    if kind == "chars_in":
        return len(args[1])
    if kind == "rejects":
        return int(result is False)
    return 0


class Recorder:
    """Spans in call order: [name index, parent index, start, end, count]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, kind=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if kind is not None and result is not NotImplemented:
                span[4] = _count(kind, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle, separators=(",", ":"))


def install(recorder: Recorder) -> None:
    """Wrap the public surface of every knotsurgery module in place."""
    modules = {m: importlib.import_module(f"knotsurgery.{m}") for m in MODULES}
    namespaces = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "knotsurgery"]
    for name, (module, owner, attrs, kind) in _FUNCTIONS.items():
        if owner is None:
            original = getattr(modules[module], attrs[0])
            traced = recorder.wrap(name, original, kind)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, traced)
            continue
        cls = getattr(modules[module], owner)
        wrapped = {}
        for attr in attrs:
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if fn not in wrapped:
                wrapped[fn] = recorder.wrap(name, fn, kind)
            traced = wrapped[fn]
            setattr(cls, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)


def self_times(spans: list[list]) -> tuple[list[float], float]:
    """Self time of each span, and the summed duration of the root spans."""
    child = [0.0] * len(spans)
    roots = 0.0
    for _, parent, start, end, _ in spans:
        if parent < 0:
            roots += end - start
        else:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(spans)], roots


def aggregate(files: list[tuple[str, float]]) -> tuple[dict, list[str]]:
    """Sum span files into {name: [calls, self seconds, count]} plus check errors.

    Each file comes with a factor for its self times (the op's host-speed
    scale).  Each file's self times must add up to its root spans' duration.
    """
    totals: dict[str, list] = {}
    errors = []
    for path, scale in files:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        names, spans = data["names"], data["spans"]
        selfs, roots = self_times(spans)
        if abs(sum(selfs) - roots) > 1e-6 * max(roots, 1.0):
            errors.append(f"{path}: self times sum to {sum(selfs)} s, root spans to {roots} s")
        for span, self_s in zip(spans, selfs):
            entry = totals.setdefault(names[span[0]], [0, 0.0, 0])
            entry[0] += 1
            entry[1] += self_s * scale
            entry[2] += span[4]
    return totals, errors
