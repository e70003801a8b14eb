"""In-memory span tracing of the ``commutant`` layers, installed from outside.

:class:`Tracer` wraps every public function and public method of each layer
module.  ``from .tensor import as_tensor`` binds a name locally, so each
wrapper is bound into every ``commutant.*`` namespace that holds the original.
O(1) methods get a counter instead of a span, so that per-entry loops stay
countable without timing each entry.

Spans are kept in memory as ``[layer, name, start_ns, end_ns, parent, request,
size]`` and written out by :meth:`Tracer.write` when the run ends.  A span's
self time is its duration minus the time covered by its child spans; children
of one span never overlap because the benchmark has one client thread.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "permutation",
    "linalg",
    "veckron",
    "tensor",
    "commutation_matrix",
    "commutation_tensor",
    "cp",
    "preserver",
    "serialize",
    "verify",
    "cli",
)

#: O(1) callables: counted in ``<layer>.calls`` but given no span
COUNTED = {
    "Permutation.__call__",
    "DenseTensor.__init__",
    "as_tensor",
    "as_matrix",
    "format_float",
    "SuiteResult.record",
    "FaultInjector.corrupt",
}
#: dunder methods that carry work worth a span or a count
DUNDERS = {"__call__", "__init__"}
#: constructors whose ``linalg.inv`` call is an invertibility gate whose
#: result is discarded
GATES = {"rank_preserver", "sym_preserver", "matrix_preserver"}

# span record fields
LAYER, NAME, START, END, PARENT, REQUEST, SIZE = range(7)


def _k_entries(name, args):
    """p*q of the commutation matrix a K-layer call works on."""
    if name in ("build_commutation", "build_commutation_rank1", "det_commutation"):
        return args[0] * args[1]
    if name == "trace_commutation":
        return args[0] * args[0]
    if name in ("apply", "transpose_matrix", "CommutationMatrix.dense"):
        return args[0].p * args[0].q
    if name == "conjugate_kron":
        return len(args[0]) * len(args[1])
    return 0


def _entries(value) -> int:
    arr = getattr(value, "array", value)
    return int(getattr(arr, "size", 0))


def _size_probe(layer, name):
    """What a span records in its ``size`` field, if anything: entries
    handled, bytes written, or (negated) bytes parsed."""
    if layer == "commutation_matrix":
        return lambda args, result: _k_entries(name, args)
    if layer == "preserver" and name == "is_rank1_tensor":
        return lambda args, result: _entries(args[0])
    if layer == "serialize":
        if name.endswith("_to_json") or name in ("matrix_to_text", "canonical_json"):
            return lambda args, result: len(result)
        if name.endswith(("_from_json", "_from_text")):
            return lambda args, result: -len(args[0])
    if layer == "verify" and name == "run_suites":
        return lambda args, result: sum(r.checks for r in result)
    return None


class Tracer:
    """Wraps the layers of an imported ``commutant`` and records spans.

    Set :attr:`request` before each request so that its spans share an id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._error_type = None

    # ------------------------------------------------------------ wrappers

    def _span(self, layer, name, fn, size_of=None):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter_ns
        error_type = self._error_type

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [layer, name, 0, 0, parent, self.request, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if parent < 0 or spans[parent][LAYER] != layer:
                    errors[layer] += 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if size_of is not None:
                rec[SIZE] = size_of(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, layer, name, fn):
        counts = self.counts
        key = (layer, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, layer, name, fn):
        if name in COUNTED or inspect.isgeneratorfunction(fn):
            return self._counter(layer, name, fn)
        return self._span(layer, name, fn, _size_probe(layer, name))

    # ------------------------------------------------------------ install

    def install(self, package: str = "commutant") -> None:
        """Wrap every layer of ``package``; undo with :meth:`uninstall`."""
        root = importlib.import_module(package)
        self._error_type = root.CommutantError
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        prefix = package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(prefix)):
                continue
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[name] = hit[1]
                    self._undo.append((namespace, name, value))

    def _install_class(self, layer, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(layer, name, raw.__func__))
            elif inspect.isfunction(raw):
                if attr == "__init__" and name not in COUNTED and _is_dataclass_init(cls):
                    continue
                new = self._wrap(layer, name, raw)
            else:
                continue
            type.__setattr__(cls, attr, new)
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            if isinstance(target, dict):
                target[name] = original
            else:
                type.__setattr__(target, name, original)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls``, ``.self_ms``, ``.errors`` plus the derived ratios."""
        calls = Counter()
        self_ns = Counter()
        own = self.self_ns()
        k_entries = cert_ns = cert_entries = 0
        bytes_out = bytes_in = checks = 0
        inv_calls = gate_calls = 0
        spans = self.spans
        for i, rec in enumerate(spans):
            layer, name, parent = rec[LAYER], rec[NAME], rec[PARENT]
            calls[layer] += 1
            self_ns[layer] += own[i]
            outer = parent < 0 or spans[parent][LAYER] != layer
            if layer == "commutation_matrix" and outer:
                k_entries += rec[SIZE]
            elif layer == "preserver" and name == "is_rank1_tensor":
                cert_ns += rec[END] - rec[START]
                cert_entries += rec[SIZE]
            elif layer == "serialize" and outer:
                if rec[SIZE] >= 0:
                    bytes_out += rec[SIZE]
                else:
                    bytes_in -= rec[SIZE]
            elif layer == "verify" and name == "run_suites":
                checks += rec[SIZE]
            elif layer == "linalg" and name == "inv":
                inv_calls += 1
                gate_calls += parent >= 0 and spans[parent][NAME] in GATES
        for (layer, _), n in self.counts.items():
            calls[layer] += n

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ms"] = self_ns[layer] / 1e6
            out[f"{layer}.errors"] = self.errors[layer]
        out["commutation_matrix.ns_per_entry"] = ratio(
            self_ns["commutation_matrix"], k_entries
        )
        out["preserver.cert_ns_per_entry"] = ratio(cert_ns, cert_entries)
        out["linalg.gate_share"] = ratio(gate_calls, inv_calls)
        out["serialize.bytes_out"] = bytes_out
        out["serialize.ns_per_byte"] = ratio(self_ns["serialize"], bytes_out + bytes_in)
        out["verify.checks"] = checks
        out["verify.us_per_check"] = ratio(self_ns["verify"] / 1e3, checks)
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one per span."""
        own = self.self_ns()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tname\tstart_ns\tend_ns\tself_ns\tparent\trequest\tsize\n")
            for rec, s in zip(self.spans, own):
                fh.write(
                    f"{rec[LAYER]}\t{rec[NAME]}\t{rec[START]}\t{rec[END]}\t{s}\t"
                    f"{rec[PARENT]}\t{rec[REQUEST]}\t{rec[SIZE]}\n"
                )
            for (layer, name), n in sorted(self.counts.items()):
                fh.write(f"# count\t{layer}\t{name}\t{n}\n")


def _is_dataclass_init(cls) -> bool:
    """Generated dataclass ``__init__``s only store fields: not worth a span."""
    return "__dataclass_fields__" in vars(cls)
