"""Outside-in tracer: spans around the public functions of each layer.

The package is left untouched.  :meth:`Tracer.install` replaces every
public function of ``qop``, ``measurement``, ``feedback``, ``thermo`` and
``engine`` with a recording wrapper, in the defining module and in every
``szilard`` module that bound the same object by ``from .x import``.  It also
wraps the scenario and scan-family constructors (span ``engine.build``) and
the ``__init__`` of ``DensityMatrix`` and ``EngineConfig``, so constructions
are counted.  :meth:`Tracer.uninstall` puts every original back.

Spans are kept in memory as ``(name, parent, request, start_ns, end_ns,
ok)`` tuples, indexed by their position; ``parent`` is the index of the
enclosing span or -1, ``request`` the draw index the caller set.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

LAYERS = ("qop", "measurement", "feedback", "thermo", "engine")
COUNTED_CLASSES = (("qop", "DensityMatrix"), ("engine", "EngineConfig"))
BUILD_SPAN = "engine.build"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.names: set[str] = set()
        self.request = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, parent, self.request, t0, t1, ok)

        return traced

    def _set(self, owner, key, value, setter) -> None:
        old = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._undo.append((owner, key, old, setter))
        setter(owner, key, value)

    def install(self) -> None:
        """Patch every layer; the package must already be imported."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {n: m for n, m in sys.modules.items()
                if n == "szilard" or n.startswith("szilard.")}
        wrapped = {}  # original function -> its wrapper
        for layer in LAYERS:
            mod = mods[f"szilard.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj], setattr)
        engine = mods["szilard.engine"]
        for table in (engine.SCAN_FAMILIES, engine._SCENARIOS):
            for key, fn in list(table.items()):
                self._set(table, key, self._wrap(fn, BUILD_SPAN),
                          dict.__setitem__)
        for layer, cls_name in COUNTED_CLASSES:
            cls = getattr(mods[f"szilard.{layer}"], cls_name)
            self._set(cls, "__init__",
                      self._wrap(cls.__init__, f"{layer}.{cls_name}"), setattr)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old, setter = self._undo.pop()
            setter(owner, key, old)

    # -- aggregation ----------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: ``calls``, ``self_s`` and ``failures``.

        Self time is a span's duration minus the durations of the spans
        directly inside it; nested calls of the same name count once each.
        Names never called get a row of zeros.
        """
        if self._stack:
            raise RuntimeError("spans still open")
        child_ns = [0] * len(self.spans)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {n: {"calls": 0, "self_s": 0.0, "failures": 0}
               for n in self.names}
        for sid, (name, _, _, t0, t1, ok) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0 - child_ns[sid]) * 1e-9
            row["failures"] += 0 if ok else 1
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON, one array per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "request", "start_ns",
                                  "end_ns", "ok"], "spans": self.spans}, fh,
                      separators=(",", ":"))


def layer_metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Roll span rows up to one ``self_s``/``calls``/``failures`` per layer."""
    out = {}
    for layer in LAYERS:
        rows = [r for n, r in summary.items() if n.split(".")[0] == layer]
        for key in ("self_s", "calls", "failures"):
            out[f"{layer}.{key}"] = sum(r[key] for r in rows)
    return out
