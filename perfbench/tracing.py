"""Span tracing of the slabresonance layers, installed from outside the package.

Every public function of ``lattice``, ``scattering``, ``modes``, ``expansion``
and ``anomaly`` is wrapped, plus ``cli.main`` (the command bodies are its own
work, so they stay inside its self time).  Modules bind each other's functions
with ``from .x import f``, so a wrapper is installed on every module attribute
that holds the same function object, and ``uninstall`` puts every original
back.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types

PACKAGE = "slabresonance"
LAYERS = ("lattice", "scattering", "modes", "expansion", "anomaly", "cli")
MARK = "__perfbench_span__"

# span fields: name, start, end, parent index (-1 at the top), failed, size
NAME, START, END, PARENT, FAILED, SIZE = range(6)

# work-unit counts a ratio needs that the span alone does not carry
SIZES = {"modes.trace_branch": lambda args, kwargs: len(args[1])}


def package_modules() -> list[types.ModuleType]:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def traced_functions() -> dict[str, types.FunctionType]:
    """Layer-qualified name -> function for every function the tracer wraps."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        if layer == "cli":
            out["cli.main"] = mod.main
            continue
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{name}"] = obj
    return out


def wrapped_bindings() -> list[str]:
    """Package attributes that still hold a tracer wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in package_modules()
            for attr, obj in vars(mod).items() if hasattr(obj, MARK)]


class Tracer:
    """Records one span per call of each wrapped function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, False,
                   size(args, kwargs) if size else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        originals = {id(fn): (name, fn) for name, fn in traced_functions().items()}
        wrappers = {}
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is None:
                    continue
                name, fn = hit
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, fn)
                self._bindings.append((mod, attr, fn))
                setattr(mod, attr, wrappers[name])

    def uninstall(self):
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, fn)
        self._bindings = []

    def take(self) -> list[list]:
        """Spans recorded so far; the tracer starts a fresh list."""
        out = self.spans[:]
        self.spans.clear()
        return out


def write_spans(path, spans):
    """One JSON object per span and line, gzip-compressed."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                 "end": s[END], "parent": s[PARENT],
                                 "failed": s[FAILED]}) + "\n")


def function_stats(spans) -> dict[str, dict]:
    """calls, self_s and failed per function name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = {}
    for i, s in enumerate(spans):
        st = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "failed": 0})
        st["calls"] += 1
        st["self_s"] += s[END] - s[START] - child[i]
        st["failed"] += s[FAILED]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def derived_counts(spans, curves: int) -> dict[str, float]:
    """Ratios measured where the work happens, each over its stated base.

    ``curves`` is the number of comparison curves the pass's ``analyze``
    commands wrote, the base of ``anomaly.exact_transmission.per_curve``.
    """
    calls: dict[str, int] = {}
    in_triple = [False] * len(spans)
    matrices_in_triple = eig_under_root = roots_under_trace = kappas = 0
    for i, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        calls[name] = calls.get(name, 0) + 1
        parent_name = spans[parent][NAME] if parent >= 0 else None
        in_triple[i] = (name == "scattering.coefficient_triple"
                        or (parent >= 0 and in_triple[parent]))
        if name == "lattice.interaction_matrix" and in_triple[i]:
            matrices_in_triple += 1
        elif name == "scattering.eigen_branch" and parent_name == "modes.omega_root":
            eig_under_root += 1
        elif name == "modes.omega_root" and parent_name == "modes.trace_branch":
            roots_under_trace += 1
        elif name == "modes.trace_branch":
            kappas += s[SIZE]
    return {
        "lattice.order_arrays.per_solve": _ratio(
            calls.get("lattice.order_arrays", 0),
            calls.get("scattering.solve_scattering", 0)),
        "scattering.coefficient_triple.matrices_per_call": _ratio(
            matrices_in_triple, calls.get("scattering.coefficient_triple", 0)),
        "modes.omega_root.eig_per_root": _ratio(
            eig_under_root, calls.get("modes.omega_root", 0)),
        "modes.trace_branch.roots_per_kappa": _ratio(roots_under_trace, kappas),
        "anomaly.exact_transmission.per_curve": _ratio(
            calls.get("anomaly.exact_transmission", 0), curves),
    }
