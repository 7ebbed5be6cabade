"""Run-time span tracing of the vmrt layers, installed from outside the package.

Each traced name is looked up when tracing starts.  Its function is
replaced by a wrapper in every `vmrt` module (and class) that holds the
same object, because `lines` and `variation` import several kernels by
name and a patch of the defining module alone would miss those calls.
A name that no longer resolves is reported as an absent layer.

A span is (name, start, end, parent span index, operation id).  Spans
stay in memory until the run ends.  Counts are taken at the same
boundaries, from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from fractions import Fraction


def _bits(c) -> int:
    c = Fraction(c)
    return max(c.numerator.bit_length(), c.denominator.bit_length())


# -- span naming and counting ------------------------------------------------


def _restrict_name(args, kwargs):
    direction = args[2] if len(args) > 2 else kwargs.get("direction")
    return "unipoly.restrict_to_line." + ("symbolic" if direction is None else "numeric")


def _count_mul(args, kwargs, result, add):
    if result is NotImplemented:
        return
    a, b = args[0], args[1]
    other = len(b.terms) if hasattr(b, "terms") else 1
    add("poly.SparsePoly.mul.term_products", len(a.terms) * other)


def _count_restrict(args, kwargs, result, add):
    add("unipoly.restrict_to_line.terms_in", len(args[0].terms))


def _count_equations(args, kwargs, result, add):
    add("lines.vmrt_equations.out_terms", sum(len(eq.terms) for eq in result.equations))


def _count_squarefree(args, kwargs, result, add):
    add("unipoly.squarefree_factorization.in_bits_max", max(map(_bits, args[0].coeffs), default=0), max)


def _count_resultant(args, kwargs, result, add):
    add("unipoly.resultant.out_bits_max", max(map(_bits, result.terms.values()), default=0), max)


def _count_rank(args, kwargs, result, add):
    mat = args[0]
    add("linalg.QMatrix.rank.cells", mat.rows * mat.cols)
    bits = max((_bits(x) for row in mat.data for x in row), default=0)
    add("linalg.QMatrix.rank.entry_bits_max", bits, max)


def _count_completed(args, kwargs, result, add):
    add("lines.count_vmrt_points.completed", 1)


def _count_invertible(args, kwargs, result, add):
    add("lines.count_vmrt_points.coord_change_attempts", 1)


# (module, attribute path, span name or namer, counter).  The attribute
# path is resolved at run time.  `rand_invertible` belongs to input
# sampling, but `count_vmrt_points` calls it once per coordinate change.
LAYERS = (
    ("vmrt.poly", "SparsePoly.__mul__", "poly.SparsePoly.mul", _count_mul),
    ("vmrt.poly", "SparsePoly.evaluate", "poly.SparsePoly.evaluate", None),
    ("vmrt.poly", "SparsePoly.compose", "poly.SparsePoly.compose", None),
    ("vmrt.poly", "parse_poly", "poly.parse_poly", None),
    ("vmrt.poly", "format_poly", "poly.format_poly", None),
    ("vmrt.poly", "expand_line_substitution", "poly.expand_line_substitution", None),
    ("vmrt.unipoly", "restrict_to_line", _restrict_name, _count_restrict),
    ("vmrt.unipoly", "squarefree_factorization", "unipoly.squarefree_factorization", _count_squarefree),
    ("vmrt.unipoly", "is_perfect_square", "unipoly.is_perfect_square", None),
    ("vmrt.unipoly", "resultant", "unipoly.resultant", _count_resultant),
    ("vmrt.eco", "certify", "eco.certify", None),
    ("vmrt.lines", "eco_witness", "lines.eco_witness", None),
    ("vmrt.lines", "line_certificate", "lines.line_certificate", None),
    ("vmrt.lines", "is_eco_line", "lines.is_eco_line", None),
    ("vmrt.lines", "build_converse", "lines.build_converse", None),
    ("vmrt.lines", "vmrt_equations", "lines.vmrt_equations", _count_equations),
    ("vmrt.lines", "recenter", "lines.recenter", None),
    ("vmrt.lines", "count_vmrt_points", "lines.count_vmrt_points", _count_completed),
    ("vmrt.sampling", "rand_invertible", "sampling.rand_invertible", _count_invertible),
    ("vmrt.jets", "restrict_to_line_jets", "jets.restrict_to_line_jets", None),
    ("vmrt.linalg", "QMatrix.rank", "linalg.QMatrix.rank", _count_rank),
    ("vmrt.variation", "dmu_formula", "variation.dmu_formula", None),
    ("vmrt.variation", "dmu_jet", "variation.dmu_jet", None),
    ("vmrt.variation", "variation_report", "variation.variation_report", None),
)

# Span names reported per layer; restrict_to_line has one name per flavour.
SPAN_NAMES = tuple(
    name
    for _, _, namer, _ in LAYERS
    for name in (
        ("unipoly.restrict_to_line.numeric", "unipoly.restrict_to_line.symbolic")
        if callable(namer)
        else (namer,)
    )
)

COUNT_NAMES = (
    "poly.SparsePoly.mul.term_products",
    "unipoly.restrict_to_line.terms_in",
    "lines.vmrt_equations.out_terms",
    "unipoly.squarefree_factorization.in_bits_max",
    "unipoly.resultant.out_bits_max",
    "linalg.QMatrix.rank.cells",
    "linalg.QMatrix.rank.entry_bits_max",
    "lines.count_vmrt_points.coord_change_attempts",
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a dotted path, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Span recorder; `install` patches the layers, `uninstall` restores them."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.count_errors: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _add(self, name: str, value: int, combine=None) -> None:
        if combine is None or name not in self.counts:
            self.counts[name] = self.counts.get(name, 0) + value
        else:
            self.counts[name] = combine(self.counts[name], value)

    def _wrap(self, fn, namer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if callable(namer) else namer
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            outermost = tracer._active.get(name, 0) == 0
            tracer._active[name] = tracer._active.get(name, 0) + 1
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                tracer.spans[index] = (name, start, end, parent, tracer.op, outermost)
            if counter is not None:
                try:
                    counter(args, kwargs, result, tracer._add)
                except (AttributeError, TypeError, ValueError):
                    # the layer changed shape; its count is reported missing
                    tracer.count_errors.add(name)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items() if key == "vmrt" or key.startswith("vmrt.")]
        for module_name, path, namer, counter in LAYERS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, fn = found
            wrapper = self._wrap(fn, namer, counter)
            holders = [owner] + modules if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, fn = self._patches.pop()
            setattr(holder, key, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries -----------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds).

        Busy time counts only the outermost span of a name, so a layer that
        re-enters itself is not counted twice.  Self time is a span's
        duration minus the time its direct children cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _, outermost) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            if outermost:
                row[1] += end - start
            row[2] += end - start - child_time[i]
        return {name: tuple(row) for name, row in out.items()}
