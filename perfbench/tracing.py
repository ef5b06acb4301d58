"""In-memory span recorder wrapped around the public functions of the library.

Spans are taken from outside the package: the recorder replaces every
public function of the six library modules with a wrapper, in every
``finslerboost`` module that holds a reference to it.  Functions one
module imports from another (``velocity_space.params_from_velocity`` is
``boost.params_from_velocity``) are rebound too, otherwise nested calls
would not become child spans.  Constructions of the core value types are
counted, not spanned.
"""
from __future__ import annotations

import csv
import sys
import time

LAYERS = ("core", "boost", "subgroups", "spinor", "velocity_space", "checks")
VALUE_TYPES = ("FourVector", "UnitVector3", "Velocity3")


class Tracer:
    """Records (name, start, end, parent, record) spans while installed."""

    def __init__(self):
        self.spans = []  # index = span id; (layer, name, start_ns, end_ns, parent, record)
        self.record = None
        self.values_built = 0
        self.boost_param_calls = 0
        self.boost_series_calls = 0
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from finslerboost import core

        mods = {name: sys.modules[f"finslerboost.{name}"] for name in LAYERS
                if f"finslerboost.{name}" in sys.modules}
        wrapped = {}
        for mod in mods.values():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, type) or not callable(fn) or id(fn) in wrapped:
                    continue
                layer = getattr(fn, "__module__", "").rpartition(".")[2]
                if layer not in mods:
                    continue
                wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "finslerboost" and not modname.startswith("finslerboost."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for tname in VALUE_TYPES:
            cls = getattr(core, tname)
            self._undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._count_init(cls.__init__)
        self._limit_switch = core.DEFAULT_TOL.limit_switch

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers -----------------------------------------------------------

    def _count_init(self, init):
        def counted(obj, *args, **kwargs):
            self.values_built += 1
            init(obj, *args, **kwargs)

        return counted

    def _wrap(self, layer, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        is_boost = layer == "boost"

        def traced(*args, **kwargs):
            if is_boost:
                self._note_band(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (layer, name, start, end, parent, self.record)

        traced.__wrapped__ = fn
        return traced

    def _note_band(self, args, kwargs) -> None:
        """Count boost calls with a (nu, BoostParams) pair and those whose
        small parameter |(nu.n) alpha| is inside the series band."""
        values = list(args) + list(kwargs.values())
        nu = None
        params = []
        switch = self._limit_switch
        for v in values:
            kind = type(v).__name__
            if kind == "UnitVector3" and nu is None:
                nu = v
            elif kind == "AnisotropySpec" and nu is None:
                nu = v.nu
            elif kind == "BoostParams":
                params.append(v)
            elif kind == "Tolerance":
                switch = v.limit_switch
        if nu is None or not params:
            return
        self.boost_param_calls += 1
        for p in params:
            a = (nu.x * p.n.x + nu.y * p.n.y + nu.z * p.n.z) * p.alpha
            if abs(a) < switch:
                self.boost_series_calls += 1
                break

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict:
        """{layer: (calls, self_seconds)}; self time is a span's duration
        minus the durations of its direct child spans."""
        child = [0] * len(self.spans)
        for layer, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: [0, 0] for layer in LAYERS}
        for sid, (layer, _, start, end, _, _) in enumerate(self.spans):
            out[layer][0] += 1
            out[layer][1] += end - start - child[sid]
        return {layer: (calls, ns * 1e-9) for layer, (calls, ns) in out.items()}

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "layer", "name", "start_ns", "end_ns", "parent", "record"])
            for sid, (layer, name, start, end, parent, record) in enumerate(self.spans):
                w.writerow([sid, layer, name, start, end, parent, record])
