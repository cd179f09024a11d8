"""Per-layer tracing installed from outside the library.

Each public entry point listed in ENTRY_POINTS is replaced by a wrapper
that counts calls and accumulates self time (its own duration minus the
time spent in wrapped callees). Modules import names directly
(`from .walls import crosses`), so a wrapper is installed by replacing the
original function object, found by identity, in every `cubemorse.*`
namespace; methods are patched on their class. `install` then fails if
any original object is still bound anywhere it can find, so a layer
cannot silently drop out of the trace.

Entry points marked as span sources also record one span per call
(name, start, end, parent span, query id); the hot leaves only
accumulate, so memory stays bounded on queries that make a million calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

MODULES = ("raag", "walls", "runpaths", "boundary", "constructions", "cli")

# (module, attribute, metric name, records spans)
ENTRY_POINTS = (
    ("raag", "normal_form", "raag.normal_form", False),
    ("raag", "distance", "raag.distance", False),
    ("raag", "GroupElement.__mul__", "raag.mul", False),
    ("raag", "GroupElement.inverse", "raag.inverse", False),
    ("raag", "GroupElement.append_run", "raag.append_run", False),
    ("walls", "Wall.__post_init__", "walls.Wall", False),
    ("walls", "wall_of_edge", "walls.wall_of_edge", False),
    ("walls", "crosses", "walls.crosses", False),
    ("walls", "side", "walls.side", False),
    ("walls", "strongly_separated", "walls.strongly_separated", False),
    ("walls", "wall_distance", "walls.wall_distance", False),
    ("walls", "walls_separating_point_from_wall", "walls.walls_separating_point_from_wall", False),
    ("walls", "ball", "walls.ball", False),
    ("runpaths", "walk_wall_count", "runpaths.walk_wall_count", False),
    ("runpaths", "certify_quasigeodesic_runs", "runpaths.certify_quasigeodesic_runs", True),
    ("boundary", "ray_walls", "boundary.ray_walls", True),
    ("boundary", "bracket_product", "boundary.bracket_product", True),
    ("boundary", "gromov_product", "boundary.gromov_product", True),
    ("boundary", "cross_ratio_cr", "boundary.cross_ratio_cr", True),
    ("boundary", "find_separated_chain", "boundary.find_separated_chain", True),
    ("boundary", "refine_to_single_wall", "boundary.refine_to_single_wall", True),
    ("constructions", "build_gamma", "constructions.build_gamma", True),
    ("constructions", "build_beta", "constructions.build_beta", True),
    ("constructions", "gamma_crosses", "constructions.gamma_crosses", False),
    ("constructions", "verify_separation", "constructions.verify_separation", True),
    ("constructions", "certify_quasigeodesic", "constructions.certify_quasigeodesic", True),
    ("constructions", "runpath_prefix", "constructions.runpath_prefix", True),
    ("constructions", "check_divergence_dichotomy", "constructions.check_divergence_dichotomy", True),
    ("constructions", "check_contracting", "constructions.check_contracting", True),
    ("cli", "run", "cli.run", True),
)

# calls counted separately when they happen inside the named caller
WITHIN = {
    "walls.crosses": "boundary.bracket_product",
    "walls.wall_distance": "boundary.bracket_product",
}


class Tracer:
    """Counters, self times and spans for one traced repetition."""

    def __init__(self) -> None:
        self.active = False
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.within: dict = defaultdict(int)
        self.open: dict = defaultdict(int)
        self.evaluations = 0
        self.pairs_tested = 0
        self.ray_keys: set = set()
        self.spans: list = []
        self.query = None
        self._stack: list = []  # [child seconds, span id] per open wrapped call
        self._next_span = 1

    def wrap(self, fn, name: str, spans: bool):
        clock = time.perf_counter
        stack = self._stack
        outer = WITHIN.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if outer is not None and tracer.open[outer]:
                tracer.within[name] += 1
            sid = parent = 0
            if spans:
                parent = next((f[1] for f in reversed(stack) if f[1]), 0)
                sid = tracer._next_span
                tracer._next_span += 1
                tracer.open[name] += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if spans:
                    tracer.open[name] -= 1
                    tracer.spans.append((sid, name, t0, t1, parent, tracer.query))
            tracer._observe(name, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _observe(self, name: str, args, result) -> None:
        if name == "boundary.ray_walls":
            self.ray_keys.add((args[0], args[1]))
        elif name == "runpaths.certify_quasigeodesic_runs":
            self.evaluations += result.evaluations
        elif name == "constructions.check_contracting":
            self.pairs_tested += result.pairs_tested

    def begin_query(self, qid) -> None:
        self.query = qid
        self.active = True

    def end_query(self) -> None:
        self.active = False
        self.query = None

    def span_records(self) -> list[dict]:
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "query": s[5]}
                for s in self.spans]

    def summary(self) -> dict:
        """Counters as plain JSON data; spans are written separately."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "within": dict(self.within),
            "evaluations": self.evaluations,
            "pairs_tested": self.pairs_tested,
            "ray_walls_distinct": len(self.ray_keys),
            "spans": len(self.spans),
        }


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "cubemorse" or n.startswith("cubemorse."))]


def _bindings(modules) -> list:
    """Every (where, value) binding reachable from the package: module
    globals, attributes of classes the package defines, and the members of
    module-level containers."""
    out = []
    for mod in modules:
        for key, value in vars(mod).items():
            out.append((f"{mod.__name__}.{key}", value))
            if isinstance(value, type) and value.__module__.startswith("cubemorse"):
                for ckey, cvalue in vars(value).items():
                    out.append((f"{mod.__name__}.{key}.{ckey}", cvalue))
            elif isinstance(value, dict):
                for dkey, dvalue in value.items():
                    out.append((f"{mod.__name__}.{key}[{dkey!r}]", dvalue))
            elif isinstance(value, (list, tuple, set, frozenset)):
                for item in value:
                    out.append((f"{mod.__name__}.{key}[]", item))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every entry point, then prove no original is still reachable."""
    for name in MODULES:
        importlib.import_module(f"cubemorse.{name}")
    importlib.import_module("cubemorse")
    modules = _package_modules()
    originals = []
    for modname, attr, name, spans in ENTRY_POINTS:
        mod = sys.modules[f"cubemorse.{modname}"]
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            original = vars(owner)[fn_name]
            setattr(owner, fn_name, tracer.wrap(original, name, spans))
        else:
            original = vars(mod)[fn_name]
            wrapped = tracer.wrap(original, name, spans)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        originals.append((name, original))
    by_id = {id(orig): name for name, orig in originals}
    leftover = sorted(
        f"{by_id[id(value)]} still bound at {where}"
        for where, value in _bindings(modules)
        if id(value) in by_id
    )
    if leftover:
        raise RuntimeError("tracer missed a binding: " + "; ".join(leftover))
