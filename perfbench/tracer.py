"""Spans around the public functions of every gausscat module.

gausscat's modules bind each other's functions with ``from .x import y``,
so replacing a function in its defining module is not enough: ``rebind``
replaces it in every gausscat namespace that holds it (``verify``, ``cli``,
the package itself, ...).  A function that a later version deletes is
simply not found, and its metrics are absent.

Spans are (name, start, end, parent) tuples kept in memory; a function's
self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

from metrics import MODULES


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _denominator(args, kwargs):
    return _arg(args, kwargs, 0, "f").N


def _frac_fourier_points(args, kwargs):
    ws = _arg(args, kwargs, 0, "ws")
    out_grid = args[2] if len(args) > 2 else kwargs.get("out_grid")
    return (out_grid or ws.grid).points


# Work items per call, for us_per_item.  Functions not listed count one
# item per call (the Fock residuals: one residual per call).
ITEMS = {
    "gauss_sums.closed_coefficients": _denominator,
    "gauss_sums.direct_coefficients": _denominator,
    "superposition.build_descriptor": _denominator,
    "superposition.coefficients_by_inverse_dft": _denominator,
    "superposition.verify_forward_dft": _denominator,
    "superposition.descriptor_to_json":
        lambda a, k: len(_arg(a, k, 0, "desc").components),
    "wavefunc.hermite_basis":
        lambda a, k: (_arg(a, k, 0, "n_max") + 1) * np.size(_arg(a, k, 1, "x")),
    "wavefunc.mehler_kernel":
        lambda a, k: np.broadcast(_arg(a, k, 0, "x"), _arg(a, k, 1, "y")).size,
    "wavefunc.frac_fourier": _frac_fourier_points,
}


def public_functions():
    """(module.function, function) for every public, non-generator function
    defined in one of MODULES."""
    for short in MODULES:
        mod = importlib.import_module(f"gausscat.{short}")
        for name, obj in sorted(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)):
                yield f"{short}.{name}", obj


def rebind(original, replacement, undo: list) -> None:
    """Replace ``original`` by ``replacement`` in every gausscat namespace."""
    for modname, mod in list(sys.modules.items()):
        if modname != "gausscat" and not modname.startswith("gausscat."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def restore(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)
    undo.clear()


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []      # (name, start, end, parent index, items)
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for key, fn in list(public_functions()):
            rebind(fn, self._wrap(key, fn), self._undo)

    def uninstall(self) -> None:
        restore(self._undo)

    def _wrap(self, key, fn):
        spans, stack = self.spans, self._stack
        items_of = ITEMS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = 1
            if items_of is not None:
                try:
                    items = items_of(args, kwargs)
                except (IndexError, KeyError, AttributeError, TypeError, ValueError):
                    items = None       # signature changed: no per-item figure
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (key, start, end, parent, items)

        return traced

    def summary(self) -> dict[str, dict]:
        """Per function: calls, self_s, incl_s and items (None if unknown)."""
        child = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (key, start, end, _, items) in enumerate(self.spans):
            s = out.setdefault(key, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "items": 0})
            s["calls"] += 1
            s["self_s"] += end - start - child[i]
            s["incl_s"] += end - start
            s["items"] = None if items is None or s["items"] is None else s["items"] + items
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for key, start, end, parent, _ in self.spans:
                fh.write(f"{key}\t{start:.9f}\t{end:.9f}\t{parent}\n")
