"""Span tracing of the library's public functions, from outside the library.

``Tracer.install`` wraps each public function of each layer at every module
binding it has (``deltaprime.limits.transfer_matrix`` as well as
``deltaprime.transfer.transfer_matrix``), so calls between layers nest as
child spans.  Functions are looked up by name and skipped when missing.
Spans are kept in flat arrays (name, start, end, parent, op id) and written
out at the end; a span's self time is its duration minus that of its
children.  Modules that are not layers (paths, profile, _ddouble) are not
wrapped, so their time lands in the calling layer's self time.
"""

from __future__ import annotations

import sys
import time
from array import array

LAYERS = {
    "transfer": ("transfer_matrix", "piecewise_transfer", "scattering"),
    "limits": ("transmission_sweep", "trace", "classify", "predict"),
    "resonance": ("resonance_set", "solve_adjacent", "solve_linear",
                  "chi_adjacent", "chi_linear", "g_quadratic",
                  "resonant_scattering", "bound_state_kappa"),
    "boundary": ("params_from_resonance", "bc_from_product", "bound_state",
                 "scattering_from_matrix", "resonant_matrix", "seba_matrix",
                 "delta_prime_delta_matrix"),
    "cli": ("main",),
}
OP = "op"
PACKAGE = "deltaprime"


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = [OP]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.roots = 0          # Resonance records returned by resonance_set
        self._stack: list[int] = []
        self._op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self.failed.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _exit(self, i: int, failed: bool = False) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[i] = 1

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        count_roots = qualname == "resonance.resonance_set"

        def traced(*args, **kwargs):
            i = self._enter(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._exit(i, failed=True)
                raise
            self._exit(i)
            if count_roots:
                self.roots += len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, run, *args):
        """Call ``run(*args)`` as the root span of op ``op_id``."""
        self._op_id = op_id
        i = self._enter(0)
        try:
            return run(*args)
        finally:
            self._exit(i)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    continue
                traced = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> list[float]:
        """Per-span duration minus the duration of its child spans."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op,failed\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.op[i]},"
                         f"{self.failed[i]}\n")
