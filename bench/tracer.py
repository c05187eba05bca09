"""Per-layer spans recorded from outside the package.

``install`` replaces every function defined in a layer module with a
wrapper, on that module and on every other misere module (and the package
namespace) that holds a reference to it.  Calls inside one layer take a
fast path; a call that enters a different layer opens a span.  A layer's
self time is the duration of its spans minus the time covered by the
spans they caused.  Totals live in memory and are read once at the end.
"""

import importlib
import inspect
from time import perf_counter

LAYERS = ("core", "notation", "outcomes", "ordering", "canonical", "lab", "cli")

# Functions whose every call is counted, not only calls that cross a layer
# boundary: (layer, function) -> counter name.
COUNTED = {
    ("core", "mk_game"): "mk_game_calls",
    ("lab", "enumerate_dead_left_ends"): "dead_end_enumerations",
}


class Tracer:
    def __init__(self):
        self.current = None
        self.child_s = 0.0
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTED.values(), 0)
        self.counts["chars_printed"] = 0

    def wrap(self, fn, layer, counter=None):
        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += 1
            if self.current == layer:
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            outer, outer_child = self.current, self.child_s
            self.current, self.child_s = layer, 0.0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.self_s[layer] += dur - self.child_s
                self.current, self.child_s = outer, outer_child + dur

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def wrap_printer(self, fn):
        def print_game(*args, **kwargs):
            s = fn(*args, **kwargs)
            self.counts["chars_printed"] += len(s)
            return s

        return print_game


def install():
    """Import every layer, wrap its functions and return the tracer."""
    tracer = Tracer()
    modules = {layer: importlib.import_module("misere." + layer)
               for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                fn = obj
                if (layer, name) == ("notation", "print_game"):
                    fn = tracer.wrap_printer(fn)
                replaced[obj] = tracer.wrap(fn, layer, COUNTED.get((layer, name)))
    for mod in [importlib.import_module("misere")] + list(modules.values()):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])
    return tracer
