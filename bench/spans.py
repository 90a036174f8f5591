"""Call spans around bilap's public functions, recorded from outside the package.

install() replaces every public function of the traced modules, in every
bilap namespace that holds it (``twostep.solve_poisson_dirichlet`` as well as
``grid.solve_poisson_dirichlet``), and the traced methods on their classes;
uninstall() puts the originals back, so untraced rounds run the program as
shipped.  Spans (name, start, end, parent) stay in memory until write().
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

MODULES = ("cli", "corner_spectrum", "kernel1d", "cones", "grid", "twostep")
METHODS = (("grid", "Grid2D", "factor"), ("grid", "Grid2D", "laplacian"),
           ("kernel1d", "PiecewiseCubic", "sample"))
# the three domain constructors report as one layer
ALIASES = {"grid.rectangle_grid": "grid.build", "grid.lshape_grid": "grid.build",
           "grid.notched_grid": "grid.build"}
FILL_SPAN = "trace.factor_fill"


def _public_functions(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:  # cli exports no __all__; its entry points are run and main
        names = [n for n in vars(module) if not n.startswith("_")]
    return [(n, getattr(module, n)) for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.origin = time.perf_counter()
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self._seen_factor = weakref.WeakKeyDictionary()
        self.max_fill = 0

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        """fn inside a span; after(first argument, result) runs inside it too."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args[0], result)
                return result
            finally:
                self._close(idx)
        return traced

    def _record_fill(self, grid, lu):
        """L.nnz + U.nnz of each new factor object, in a child span of
        Grid2D.factor: reading L and U copies them, and no layer's self time
        should carry that."""
        if self._seen_factor.get(grid) is lu or not hasattr(lu, "L"):
            return
        self._seen_factor[grid] = lu
        idx = self._open(FILL_SPAN)
        try:
            self.max_fill = max(self.max_fill, int(lu.L.nnz + lu.U.nnz))
        finally:
            self._close(idx)

    # -- patching -------------------------------------------------------------

    def install(self):
        if self._patches:
            return
        pkg = self.package.__name__
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{pkg}.{short}"]
            for name, fn in _public_functions(module):
                label = f"{short}.{name}"
                wrappers[fn] = self._wrap(ALIASES.get(label, label), fn)
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, value, wrappers[value])
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{pkg}.{short}"], cls_name)
            orig = cls.__dict__[meth]
            label = f"{short}.{cls_name}.{meth}"
            after = self._record_fill if meth == "factor" else None
            self._patch(cls, meth, orig, self._wrap(label, orig, after))

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- summaries ------------------------------------------------------------

    def mark(self) -> int:
        return len(self.names)

    def summarize(self, lo: int, hi: int) -> dict:
        """Per span name: calls and self seconds, over spans lo..hi-1.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i in range(lo, hi):
            rec = out[self.names[i]]
            rec["calls"] += 1
            rec["self_s"] += self.end[i] - self.start[i] - child[i]
        return dict(out)

    def write(self, path):
        """One CSV row per span: index, name, start and end in seconds from the
        tracer's creation, parent index (-1 for a root)."""
        o = self.origin
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            fh.writelines(
                f"{i},{n},{s - o:.9f},{e - o:.9f},{p}\n"
                for i, (n, s, e, p) in enumerate(zip(self.names, self.start, self.end, self.parent))
            )
