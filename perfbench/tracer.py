"""Spans around syzkit's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper,
in every syzkit module namespace that bound it, so calls between modules
are seen as well.  A span is (name, start, end, parent index); spans stay in
memory and are written once, at the end of the run.  Self time is a span's
duration minus the durations of its direct children.  The hooks that take
counts after a call run in a span of their own, named HOOK, beside the
call's span, so their cost is charged to no layer.
"""

import functools
import sys
import time

LAYERS = ("lattice", "intlinalg", "minkowski", "algebra", "mirror",
          "transition", "tropical", "svg", "cli")

HOOK = "trace.hook"

# Methods that carry a layer's work but are not module-level functions.
METHODS = {
    "algebra": {"LaurentPolynomial": ("__mul__", "__eq__", "specialize", "prepend_variable",
                                      "to_json_dict")},
    "minkowski": {"MinkowskiDecomposition": ("__post_init__", "to_json_dict")},
}

# Constant-time vector arithmetic, called inside every geometric loop: a span
# per call would cost more than the call, so its time stays with the caller.
UNTRACED = {"vec_add", "vec_sub", "vec_neg", "dot", "cross", "lattice_length", "primitive"}

# Span names the per-layer metrics use, where they differ from module.function.
ALIASES = {
    "minkowski.enumerate_decompositions": "minkowski.enumerate",
    "minkowski.MinkowskiDecomposition.__post_init__": "minkowski.decomposition_init",
    "algebra.LaurentPolynomial.__mul__": "algebra.mul",
    "algebra.LaurentPolynomial.__eq__": "algebra.eq",
    "algebra.LaurentPolynomial.specialize": "algebra.specialize",
    "transition.match_transition": "transition.match",
}


def _public_functions(module):
    for name, value in vars(module).items():
        if (not name.startswith("_") and name not in UNTRACED
                and callable(value) and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__):
            yield name, value


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patched = []
        self.on = False

    def bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def note_max(self, key, value):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                # The hook's own span keeps its cost out of the caller's self time.
                begin = clock()
                after(self, args, result)
                spans.append((HOOK, begin, clock(), parent))
            return result

        return wrapper

    def install(self, package, hooks):
        """Wrap the public functions of every imported syzkit module and the
        methods in METHODS.  ``hooks`` maps a span name to ``after(tracer, args, result)``,
        which adds counts once the call has returned."""
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS
                   if f"{package.__name__}.{layer}" in sys.modules}
        wrappers = {}
        for layer, module in modules.items():
            for fname, fn in _public_functions(module):
                span = ALIASES.get(f"{layer}.{fname}", f"{layer}.{fname}")
                wrappers[id(fn)] = self._wrap(span, fn, hooks.get(span))
        for owner in [package, *modules.values()]:
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers and callable(value):
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, wrappers[id(value)])
        for layer, classes in METHODS.items():
            if layer not in modules:
                continue
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    full = f"{layer}.{cls_name}.{meth}"
                    span = ALIASES.get(full, full)
                    self._patched.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(span, fn, hooks.get(span)))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans):
    """Per span name: (calls, total self seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start - inner))
    return out
