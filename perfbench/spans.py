"""Layer spans for excalg, recorded from outside the package.

``Recorder.instrument()`` replaces the public functions and methods of every
excalg module with wrappers, and rebinds the ``from .x import f`` aliases
that other excalg modules hold, so calls made inside the package are seen
too.  A wrapper opens a span when a call crosses into its module from
another layer (or from the benchmark); calls that stay inside one layer
open none, because their time already belongs to that layer.  Spans nest
on a stack, and a layer's self time is the time inside its spans minus the
part covered by child spans.

Named counters and timers sit on a few entry points (products, system
sizes, Jacobi checks, the stages of ``vinberg_build``); they count every
call, nested or not.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = (
    "scalar",
    "linalg",
    "intlin",
    "forms",
    "composition",
    "threeform",
    "liealg",
    "jordan",
    "magicsquare",
    "rootdata",
    "clifford",
    "cli",
)

# Constructors that do real work (elimination, table and invariant checks)
# open spans like public functions.  Other dunder methods (the arithmetic
# of Scalar, Matrix, AlgElement, ...) do not: a span per operator would
# multiply the run time, so operator time stays with the calling layer.
SPANNED_DUNDERS = {
    ("linalg", "Subspace", "__init__"),
    ("linalg", "Matrix", "__matmul__"),
    ("liealg", "SCAlgebra", "__init__"),
    ("composition", "CompAlgebra", "__init__"),
    ("jordan", "JordanAlgebra", "__init__"),
}

# Coercions and zero tests cost less than a span and run inside every
# arithmetic loop; they are counted with the caller's time.
UNSPANNED = {
    ("scalar", None, "sc"),
    ("scalar", "Scalar", "of"),
    ("scalar", "Scalar", "is_zero"),
    ("scalar", "Scalar", "is_rational"),
}

SQUARE_BUILDS = {("r", "o"): "f4", ("c", "o"): "e6", ("h", "o"): "e7", ("o", "o"): "e8"}

COUNTERS = (
    "scalar.constructed",
    "composition.products",
    "jordan.products",
    "linalg.cells",
    "intlin.cells",
    "intlin.errors",
    "liealg.jacobi_triples",
    "magicsquare.calibration_rounds",
)
TIMERS = (
    "liealg.jacobi_s",
    "liealg.killing_s",
    "liealg.derivations_s",
    "magicsquare.triality_s",
    "magicsquare.equivariant_s",
) + tuple(f"magicsquare.{name}_s" for name in SQUARE_BUILDS.values())

def _matrix_cells(m, *_args, **_kwargs):
    return m.rows * m.cols


def _subspace_cells(_self, ambient, spanning):
    return ambient * len(spanning)


def _int_cells(rows, ncols):
    return len(rows) * ncols


class Recorder:
    """Span stack, per-layer totals, named counters and timers."""

    def __init__(self, keep_spans=False):
        self.keep_spans = keep_spans  # keep every closed span, for check_nesting
        self.clock = time.perf_counter
        self.stack = []  # frames: [layer, name, start, child_time, id, parent_id]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.timers = dict.fromkeys(TIMERS, 0.0)
        self.spans = []
        self.next_id = 0
        self.request = None
        self.active_build = None
        self.epoch = self.clock()
        self._depths = {}

    # -- spans ----------------------------------------------------------

    def _close(self, frame, end):
        dur = end - frame[2]
        layer = frame[0]
        self.self_s[layer] += dur - frame[3]
        self.inclusive_s[layer] += dur
        self.calls[layer] += 1
        stack = self.stack
        if stack:
            stack[-1][3] += dur
        if self.keep_spans:
            self.spans.append(
                {
                    "id": frame[4],
                    "parent": frame[5],
                    "layer": layer,
                    "name": frame[1],
                    "start": frame[2] - self.epoch,
                    "end": end - self.epoch,
                    "request": self.request,
                }
            )

    def _spanned(self, layer, name, fn):
        stack = self.stack
        clock = self.clock
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            self.next_id += 1
            parent = stack[-1][4] if stack else None
            frame = [layer, name, clock(), 0.0, self.next_id, parent]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)

        return wrapper

    # -- counters and timers --------------------------------------------

    def _counted(self, key, fn, amount=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1 if amount is None else amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, key, fn):
        """Inclusive time of the outermost call among those sharing key."""
        timers = self.timers
        clock = self.clock
        depth = self._depths.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] = 0
                timers[key] += clock() - start

        return wrapper

    def _errors(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[key] += 1
                raise

        return wrapper

    def _jacobi(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            counts["liealg.jacobi_triples"] += report.checked
            if self.active_build is not None:
                counts["magicsquare.calibration_rounds"] += 1
            return report

        return wrapper

    def _build(self, fn):
        timers = self.timers
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(key_a, key_b, *args, **kwargs):
            outer = self.active_build
            self.active_build = (key_a, key_b)
            start = clock()
            try:
                return fn(key_a, key_b, *args, **kwargs)
            finally:
                self.active_build = outer
                name = SQUARE_BUILDS.get((key_a, key_b))
                if name is not None and outer is None:
                    timers[f"magicsquare.{name}_s"] += clock() - start

        return wrapper

    def _hooks(self, layer, owner, name, fn):
        """Counters and timers for one callable, outermost first."""
        q = name if owner is None else f"{owner}.{name}"
        if layer == "composition" and q == "CompAlgebra.mul_coords":
            fn = self._counted("composition.products", fn)
        elif layer == "jordan" and q == "JordanAlgebra.product_coords":
            fn = self._counted("jordan.products", fn)
        elif layer == "linalg" and q in ("rref", "rank", "kernel", "solve", "Matrix.det", "Matrix.inverse"):
            fn = self._counted("linalg.cells", fn, _matrix_cells)
        elif layer == "linalg" and q == "Subspace.__init__":
            fn = self._counted("linalg.cells", fn, _subspace_cells)
        elif layer == "intlin":
            if q in ("int_kernel", "int_rank_lower_bound"):
                fn = self._counted("intlin.cells", fn, _int_cells)
            fn = self._errors("intlin.errors", fn)
        elif layer == "liealg" and q == "jacobi_check":
            fn = self._timed("liealg.jacobi_s", self._jacobi(fn))
        elif layer == "liealg" and q in ("killing_nondegenerate", "killing_gram_int"):
            fn = self._timed("liealg.killing_s", fn)
        elif layer == "liealg" and q == "derivations":
            fn = self._timed("liealg.derivations_s", fn)
        elif layer == "magicsquare" and q == "triality_algebra":
            fn = self._timed("magicsquare.triality_s", fn)
        elif layer == "magicsquare" and q == "equivariant_pair_maps":
            fn = self._timed("magicsquare.equivariant_s", fn)
        elif layer == "magicsquare" and q == "vinberg_build":
            fn = self._build(fn)
        return fn

    # -- installation -----------------------------------------------------

    def _wrap(self, layer, owner, name, fn):
        q = name if owner is None else f"{owner}.{name}"
        if (layer, owner, name) not in UNSPANNED:
            fn = self._spanned(layer, f"{layer}.{q}", fn)
        return self._hooks(layer, owner, name, fn)

    def instrument(self):
        """Wrap every layer of the imported excalg package in place."""
        modules = {layer: importlib.import_module(f"excalg.{layer}") for layer in LAYERS}
        replaced = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    replaced[id(obj)] = (obj, self._wrap(layer, None, name, obj))
        # Rebind the definitions and every alias (``from .linalg import
        # solve``) in all loaded excalg modules, the package included.
        loaded = [m for n, m in sys.modules.items() if n == "excalg" or n.startswith("excalg.")]
        for mod in loaded:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        self._install_scalar_counter(modules["scalar"].Scalar)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            dunder = name.startswith("__")
            if dunder and (layer, cls.__name__, name) not in SPANNED_DUNDERS:
                continue
            if not dunder and name.startswith("_"):
                continue
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(layer, cls.__name__, name, attr.__func__)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, cls.__name__, name, attr.__func__)))
            elif callable(attr) and not isinstance(attr, type):
                setattr(cls, name, self._wrap(layer, cls.__name__, name, attr))

    def _install_scalar_counter(self, scalar_cls):
        counts = self.counts
        original = scalar_cls.__init__

        def __init__(self, *args):
            counts["scalar.constructed"] += 1
            original(self, *args)

        scalar_cls.__init__ = __init__

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer totals plus counters and timers, as plain JSON."""
        if self.stack:
            raise RuntimeError("summary taken with spans still open")
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counts)
        out.update(self.timers)
        return {"layers": out, "inclusive_s": dict(self.inclusive_s), "spans": self.spans}


def check_nesting(spans) -> list:
    """Problems with a list of raw spans: every parent must be listed,
    enclose its child in time and belong to another layer."""
    problems = []
    by_id = {}
    for s in spans:
        if not (isinstance(s.get("id"), int) and s.get("layer") in LAYERS):
            problems.append(f"malformed span {s!r}")
            continue
        if not s["start"] <= s["end"]:
            problems.append(f"span {s['id']} ends before it starts")
        by_id[s["id"]] = s
    for s in by_id.values():
        if s["parent"] is None:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            problems.append(f"span {s['id']} has no parent {s['parent']}")
            continue
        if not (p["start"] <= s["start"] and s["end"] <= p["end"]):
            problems.append(f"span {s['id']} is not inside its parent {p['id']}")
        if p["layer"] == s["layer"]:
            problems.append(f"span {s['id']} nests in a span of its own layer")
    return problems
