"""Outside-in span tracing of the starkzz layers.

The tracer never edits the package.  It replaces module attributes from
outside: each layer's public entry points (under every name a calling
module imported them by) and the numpy/scipy kernels the layers call.
Every call through a wrapper records one span (name, layer, start, end,
parent, attributes) in memory; `write` dumps them at the end of a run.

A kernel span takes the layer of the module that called it (`pulse.eigh`
is a `numpy.linalg.eigh` call made from `starkzz.pulse`); a kernel called
from inside numpy/scipy (SuperLU under `eigsh`) takes its parent's layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("config", "operators", "spectrum", "perturbation", "pulse",
          "calibrate", "cli")

#: Public entry points wrapped per layer: attribute path -> span name.
ENTRY_POINTS = {
    "config": {"load_preset": "load_preset", "load_config": "load_config",
               "apply_override": "apply_override", "to_system": "to_system"},
    "operators": {f"build_{kind}": "build" for kind in (
        "static_hamiltonian", "static_hamiltonian_sparse",
        "rwa_hamiltonian", "rwa_hamiltonian_sparse")},
    "spectrum": {name: name for name in (
        "labeled_spectrum", "pair_rates", "driven_pair_rates",
        "undriven_reference", "static_spectrum", "targeted_label_energies",
        "effective_j", "zz_vs_parameter")} | {"fit_bare_transmons": "fit_bare"},
    "perturbation": {name: name for name in (
        "static_zz", "sizzle_zz", "sizzle_zz_induced", "single_drive_stark",
        "dressed_single_qubit_terms", "two_level_zz", "zx_with_cancellation",
        "zx_first_order")},
    "pulse": {"OperatingFrame.__init__": "frame", "propagate": "propagate",
              "extract_pauli_rates": "tomography"},
    "calibrate": {name: name for name in (
        "find_cancellation_phase", "find_cancellation_amplitude",
        "chain_cancellation", "calibrate_cnot", "calibrate_cz",
        "cnot_gate_result", "cz_gate_result", "driven_zz_rate")},
    "cli": {"main": "main"},
}

#: numpy/scipy kernels: (module, attribute) -> kernel name.
KERNELS = {
    ("numpy.linalg", "eigh"): "eigh",
    ("scipy.linalg", "eigh"): "eigh",
    ("scipy.sparse.linalg", "eigsh"): "eigsh",
    ("scipy.sparse.linalg._eigen.arpack.arpack", "splu"): "splu",
    ("scipy.optimize", "least_squares"): "fit",
    ("scipy.optimize", "root"): "root",
    ("scipy.optimize", "brentq"): "brentq",
}
KERNEL_NAMES = frozenset(KERNELS.values())


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "attrs")

    def __init__(self, name, layer, start, end, parent, attrs=None):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs


# ---------------------------------------------------------------------------
# attribute hooks: (attrs, args, kwargs, result) -> None


def _matrix_dim(attrs, args, kwargs, result):
    attrs["dim"] = int(result.shape[0])


def _arg_dim(attrs, args, kwargs, result):
    matrix = args[0] if args else kwargs.get("a", kwargs.get("A"))
    attrs["dim"] = int(matrix.shape[0])


def _nfev(attrs, args, kwargs, result):
    attrs["nfev"] = int(result.nfev)


def _simulated_ns(attrs, args, kwargs, result):
    attrs["simulated_ns"] = float(result.duration)


def _pair_overlap(attrs, args, kwargs, result):
    spec = args[0]
    q0 = args[1] if len(args) > 1 else kwargs.get("q0", 0)
    q1 = args[2] if len(args) > 2 else kwargs.get("q1", 1)
    overlaps = []
    for b0, b1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        label = [0] * len(spec.dims)
        label[q0], label[q1] = b0, b1
        overlaps.append(spec.overlap(tuple(label)))
    attrs["min_overlap"] = float(min(overlaps))


def _targeted_overlap(attrs, args, kwargs, result):
    attrs["min_overlap"] = float(min(overlap for _, overlap in result.values()))


def _frame_overlap(attrs, args, kwargs, result):
    frame = args[0]
    if len(frame.dims) >= 2:
        comp = frame.computational_indices(0, 1)
        attrs["min_overlap"] = float(min(abs(frame.basis[k, k]) ** 2 for k in comp))


HOOKS = {
    "operators.build": _matrix_dim,
    "pulse.propagate": _simulated_ns,
    "pulse.frame": _frame_overlap,
    "spectrum.pair_rates": _pair_overlap,
    "spectrum.targeted_label_energies": _targeted_overlap,
    "eigh": _arg_dim,
    "fit": _nfev,
    "root": _nfev,
}


class Tracer:
    """Span recorder for one traced run; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return self.spans[index]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _entry_wrapper(self, fn, layer, short):
        name = f"{layer}.{short}"
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                span.attrs = {}
                hook(span.attrs, args, kwargs, result)
            return result

        return wrapper

    def _kernel_wrapper(self, fn, kernel):
        hook = HOOKS.get(kernel)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("starkzz."):
                layer = caller[len("starkzz."):]
            elif tracer._stack:
                layer = tracer.spans[tracer._stack[-1]].layer
            else:
                layer = "other"
            if kernel == "brentq":
                args, evals = _counting_objective(args, kwargs)
            span = tracer._open(f"{layer}.{kernel}", layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if kernel == "brentq":
                span.attrs = {"evals": evals[0]}
            elif hook is not None:
                span.attrs = {}
                hook(span.attrs, args, kwargs, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every entry point and kernel."""
        modules = {layer: importlib.import_module(f"starkzz.{layer}")
                   for layer in LAYERS}
        for layer, points in ENTRY_POINTS.items():
            home = modules[layer]
            for path, short in points.items():
                if "." in path:  # a method, patched on its class
                    cls_name, method = path.split(".")
                    cls = getattr(home, cls_name)
                    original = getattr(cls, method)
                    self._patch(cls, method,
                                self._entry_wrapper(original, layer, short))
                    continue
                original = getattr(home, path)
                wrapper = self._entry_wrapper(original, layer, short)
                # Rebind the name in every module that imported it.
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for (module_name, attr), kernel in KERNELS.items():
            module = importlib.import_module(module_name)
            self._patch(module, attr,
                        self._kernel_wrapper(getattr(module, attr), kernel))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": rows}, fh)


def span_costs(calls: int = 20000, rounds: int = 5) -> dict[str, float]:
    """Seconds one wrapper adds to a call, for entry points and for kernels.

    Measured in this process on a no-op, wrapped by a throwaway tracer, as
    the best of `rounds` loops of `calls` calls minus the bare call.  The
    kernel figure includes the dimension hook every `eigh` span runs.
    """
    import numpy

    def noop(*args, **kwargs):
        return None

    matrix = numpy.zeros((2, 2))
    tracer = Tracer()
    entry = tracer._entry_wrapper(noop, "cli", "noop")
    kernel = tracer._kernel_wrapper(noop, "eigh")

    def best(fn):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                fn(matrix)
            times.append(time.perf_counter() - start)
            tracer.spans.clear()
        return min(times) / calls

    bare = best(noop)
    return {"entry": max(best(entry) - bare, 0.0),
            "kernel": max(best(kernel) - bare, 0.0)}


def _counting_objective(args, kwargs):
    """Replace brentq's objective with one that counts its evaluations."""
    evals = [0]
    f = args[0] if args else kwargs.pop("f")

    def counted(*a, **k):
        evals[0] += 1
        return f(*a, **k)

    return (counted,) + tuple(args[1:]), evals


# ---------------------------------------------------------------------------
# analysis


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        covered = covered_length(((spans[k].start, spans[k].end) for k in kids),
                                 span.start, span.end)
        out.append((span.end - span.start) - covered)
    return out


def _has_ancestor(spans, index, layer) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].layer == layer:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one traced run (see README.md)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def total(name):
        return sum(spans[i].end - spans[i].start for i in idx(name))

    def self_sum(name):
        return sum(selfs[i] for i in idx(name))

    def attr_sum(name, key):
        return sum((spans[i].attrs or {}).get(key, 0) for i in idx(name))

    def attr_max(name, key):
        return max([(spans[i].attrs or {}).get(key, 0) for i in idx(name)],
                   default=0)

    def outermost(layer):
        return [i for i, s in enumerate(spans) if s.layer == layer
                and (s.parent < 0 or spans[s.parent].layer != layer)]

    def layer_self(layer):
        return sum(selfs[i] for i, s in enumerate(spans) if s.layer == layer
                   and s.name.rsplit(".", 1)[1] not in KERNEL_NAMES)

    build = outermost("operators")
    perturbation = outermost("perturbation")
    overlaps = [s.attrs["min_overlap"] for s in spans
                if s.attrs and "min_overlap" in s.attrs]
    kernel_spans = sum(s.name.rsplit(".", 1)[1] in KERNEL_NAMES for s in spans)
    return {
        "config.to_system.calls": calls("config.to_system"),
        "config.to_system.self_s": self_sum("config.to_system"),
        "operators.build.calls": len(build),
        "operators.build.self_s": self_sum("operators.build"),
        "operators.build.dim_max": attr_max("operators.build", "dim"),
        "spectrum.fit_bare.calls": calls("spectrum.fit_bare"),
        "spectrum.fit_bare.s": total("spectrum.fit_bare"),
        "spectrum.fit_bare.nfev": attr_sum("spectrum.root", "nfev"),
        "spectrum.labeled_spectrum.calls": calls("spectrum.labeled_spectrum"),
        "spectrum.labeled_spectrum.self_s": self_sum("spectrum.labeled_spectrum"),
        "spectrum.eigh.calls": calls("spectrum.eigh"),
        "spectrum.eigh.s": total("spectrum.eigh"),
        "spectrum.eigh.dim_max": attr_max("spectrum.eigh", "dim"),
        "spectrum.eigsh.calls": calls("spectrum.eigsh"),
        "spectrum.eigsh.s": total("spectrum.eigsh"),
        "spectrum.splu.calls": calls("spectrum.splu"),
        "spectrum.splu.s": total("spectrum.splu"),
        "spectrum.min_label_overlap": min(overlaps, default=1.0),
        "perturbation.calls": len(perturbation),
        "perturbation.s": sum(spans[i].end - spans[i].start for i in perturbation),
        "pulse.frame.calls": calls("pulse.frame"),
        "pulse.frame.s": total("pulse.frame"),
        "pulse.propagate.calls": calls("pulse.propagate"),
        "pulse.propagate.self_s": self_sum("pulse.propagate"),
        "pulse.propagate.simulated_ns": attr_sum("pulse.propagate", "simulated_ns"),
        "pulse.tomography.calls": calls("pulse.tomography"),
        "pulse.tomography.self_s": self_sum("pulse.tomography"),
        "pulse.eigh.calls": calls("pulse.eigh"),
        "pulse.eigh.s": total("pulse.eigh"),
        "pulse.fit.nfev": attr_sum("pulse.fit", "nfev"),
        "pulse.fit.s": total("pulse.fit"),
        "calibrate.fit.nfev": attr_sum("calibrate.fit", "nfev"),
        "calibrate.fit.s": total("calibrate.fit"),
        "calibrate.propagate_calls": sum(
            1 for i in idx("pulse.propagate") if _has_ancestor(spans, i, "calibrate")),
        "calibrate.driven_zz_rate.calls": calls("calibrate.driven_zz_rate"),
        "calibrate.driven_zz_rate.s": total("calibrate.driven_zz_rate"),
        "calibrate.root_evals": attr_sum("calibrate.brentq", "evals"),
        "calibrate.self_s": layer_self("calibrate"),
        "cli.self_s": layer_self("cli"),
        "trace.spans": len(spans),
        "trace.kernel_spans": kernel_spans,
        # Time the wrappers catch below the roots (`cli.main`): whatever no
        # wrapper catches lands in the roots' self time instead.
        "trace.below_root_s": sum(t for t, s in zip(selfs, spans) if s.parent >= 0),
    }
