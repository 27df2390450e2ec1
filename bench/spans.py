"""Span recorder for the traced benchmark run.

`Tracer.install()` wraps each function in `TARGETS` wherever a loaded
`socialpower.*` module binds it (modules import each other by name, so
patching only the defining module would miss calls); methods are wrapped
on their class.  Every call records a span (name, start, end, parent
span, op id, work) in memory; `uninstall()` restores the originals.
A span's self time is its duration minus the part of it covered by its
child spans.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# (module, qualified name, work extractor or None).  The work value of a
# span is summed per layer, e.g. issues simulated or states sampled.
TARGETS = (
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_analyze", None),
    ("cli", "cmd_periodic", None),
    ("cli", "cmd_verify", None),
    ("topology", "load_program", None),
    ("topology", "validate", None),
    ("topology", "is_irreducible", None),
    ("topology", "dominant_left_eigenvector", None),
    ("topology", "max_gamma_profile", None),
    ("dynamics", "simulate", lambda result: result.issues),
    ("dynamics", "df_map", None),
    ("dynamics", "limit_gap", None),
    ("dynamics", "Trajectory.to_csv", None),
    ("analysis", "transform_chain", None),
    ("analysis", "jacobian", None),
    ("analysis", "fixed_point", None),
    ("degroot", "appraisal_step_via_zeta", None),
    ("periodic", "periodic_fixed_points", None),
    ("periodic", "verify_periodic_limit", None),
    ("verification", "sample_interior", lambda result: len(result)),
    ("verification", "check_jacobian_fd", None),
    ("verification", "check_contraction_certificates", None),
    ("verification", "check_oracle_equivalence", None),
    ("verification", "check_boundary_step", None),
    ("svg", "line_chart", None),
)

NAME, START, END, PARENT, OP, WORK = range(6)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index, op id, work]
        self._stack = []
        self._saved = []     # (owner, attribute, original)
        self.op = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op, 0])
        self._stack.append(index)
        return index

    def _close(self, index, work=0):
        span = self.spans[index]
        span[END] = perf_counter_ns()
        span[WORK] = work
        self._stack.pop()

    @contextmanager
    def span(self, name, op=None):
        """Span around a block; with `op`, the block starts a new op id."""
        if op is not None:
            self.op = op
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, work(result) if work and result is not None else 0)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod_name, _, _ in TARGETS:
            importlib.import_module(f"socialpower.{mod_name}")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "socialpower" or k.startswith("socialpower."))]
        for mod_name, qualname, work in TARGETS:
            owner = sys.modules[f"socialpower.{mod_name}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{qualname}", original, work)
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans, offset: int = 0) -> list:
    """Self time (s) of each span: duration minus the union of its
    children's intervals, clipped to the span.  `spans` may be a slice
    of the recorded list starting at index `offset`."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT] - offset].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0, start
        for child in sorted(children[index], key=lambda c: spans[c][START]):
            lo = max(spans[child][START], reach)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start - covered) * 1e-9)
    return result


def layer_totals(spans, offset: int = 0) -> dict:
    """Summed self time (s), inclusive time (s), calls and work, keyed by
    span name and by "<op span name>/<span name>" within each op."""
    op_names = {span[OP]: span[NAME] for span in spans if span[PARENT] < 0}
    totals = {}
    for span, self_s in zip(spans, self_times(spans, offset)):
        for key in (span[NAME], f"{op_names.get(span[OP])}/{span[NAME]}"):
            entry = totals.setdefault(key, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "work": 0})
            entry["self_s"] += self_s
            entry["total_s"] += (span[END] - span[START]) * 1e-9
            entry["calls"] += 1
            entry["work"] += span[WORK]
    return totals
