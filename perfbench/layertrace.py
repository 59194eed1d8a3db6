"""Call counts and self time for the public functions of each degenpoly layer.

The wrappers live here, outside the package.  install() swaps every
reference to a traced function that the package holds: module globals
(so `from .poly import lambda_falling` in families is covered), class
attributes (including aliases such as `__rmul__ = __mul__`) and the
function tables kept in module-level dicts (the CLI's family table, the
GF builder pairs).  It then asks the garbage collector whether anything
in the package still refers to an unwrapped original and fails if so.

Self time is a call's duration minus the time spent in traced calls it
made, so the self times of all traced functions add up to the traced
part of the wall time without double counting.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
import types

# (module, attribute path, how to split the key).  Split "ring" keys a
# Series method by the coefficient ring it works in: the receiver's
# ring, or for compose the inner series' ring, where the result lives.
TARGETS = [
    ("poly", "LambdaPoly.__mul__", None),
    ("poly", "LambdaPoly.__add__", None),
    ("poly", "XPoly.__mul__", None),
    ("poly", "XPoly.eval_x", None),
    ("poly", "lambda_falling", None),
    ("series", "Series.__mul__", "ring"),
    ("series", "Series.reciprocal", "ring"),
    ("series", "Series.compose", "inner_ring"),
    ("series", "Series.exp", "ring"),
    ("ratfunc", "substitute_mobius", None),
    ("ratfunc", "RationalFn.expand", None),
    ("families", "stirling", None),
    ("families", "triangular_table", None),
    ("families", "falling_factorial", None),
    ("families", "falling_factorial_lambda", None),
    ("families", "bell_deg", None),
    ("families", "bell_poly", None),
    ("families", "bell_partial_deg", None),
    ("families", "bell_second_deg", None),
    ("families", "geometric_deg", None),
    ("families", "geometric", None),
    ("families", "geometric_r", None),
    ("families", "bernoulli_deg", None),
    ("families", "bernoulli_number", None),
    ("families", "bernoulli_poly", None),
    ("families", "eulerian_poly", None),
    ("families", "bell_deg_gf", None),
    ("families", "bell_partial_deg_gf", None),
    ("families", "geometric_deg_gf", None),
    ("families", "bernoulli_deg_gf", None),
    ("identities", "run_check", "check_id"),
    ("render", "value_to_json", None),
    ("cli", "main", None),
    ("rational", "as_rational", None),
]

_SPLITS = {
    "ring": lambda args: args[0].ring.name,
    "inner_ring": lambda args: args[1].ring.name,
    "check_id": lambda args: args[0],
}


class Tracer:
    """Per-key [calls, self seconds, total seconds], kept in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._open: list[float] = []  # traced-child time of each open call

    def wrap(self, fn, stem: str, split):
        stats, open_calls, clock = self.stats, self._open, time.perf_counter
        keyer = _SPLITS[split] if split else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = f"{stem}.{keyer(args)}" if keyer else stem
            open_calls.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = open_calls.pop()
                if open_calls:
                    open_calls[-1] += dt
                s = stats.get(key)
                if s is None:
                    s = stats[key] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dt - child
                s[2] += dt

        return traced


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "degenpoly" or name.startswith("degenpoly."))]


def _swap(namespace: dict, swap: dict, setter):
    for name, val in list(namespace.items()):
        if id(val) in swap:
            setter(name, swap[id(val)])
        elif isinstance(val, dict) and not name.startswith("__"):
            for k, v in list(val.items()):
                if id(v) in swap:
                    val[k] = swap[id(v)]
                elif isinstance(v, tuple) and any(id(e) in swap for e in v):
                    val[k] = tuple(swap.get(id(e), e) for e in v)


def install(tracer: Tracer):
    """Wrap every target at every site in the package."""
    importlib.import_module("degenpoly.cli")  # pulls in every layer
    originals, swap = [], {}
    for mod, path, split in TARGETS:
        obj = importlib.import_module(f"degenpoly.{mod}")
        for part in path.split("."):
            obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
        originals.append(obj)
        swap[id(obj)] = tracer.wrap(obj, f"{mod}.{path}", split)

    for m in _package_modules():
        _swap(vars(m), swap, lambda name, w, m=m: setattr(m, name, w))
        for val in list(vars(m).values()):
            if isinstance(val, type) and val.__module__ == m.__name__:
                _swap(dict(vars(val)), swap, lambda name, w, cls=val: setattr(cls, name, w))

    wrapper_dicts = {id(w.__dict__) for w in swap.values()}
    gc.collect()
    for orig in originals:
        for ref in gc.get_referrers(orig):
            # the wrapper's closure cell and __wrapped__, this frame, our list
            if isinstance(ref, (types.FrameType, types.CellType)) or ref is originals:
                continue
            if isinstance(ref, dict) and id(ref) in wrapper_dicts:
                continue
            raise RuntimeError(f"untraced reference to {orig.__qualname__}: {type(ref).__name__}")
