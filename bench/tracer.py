"""Per-layer tracer for one `amalgam verify` invocation.

The tracer wraps public functions of the amalgam modules from outside the
package: every module that imported a traced function gets the wrapper in
its place.  Each wrapped call is a span; a span's self time is its duration
minus the time spent in nested spans.  A call into a function of the layer
whose span is already innermost (``amalgam_norm`` calling
``amalgam_norm_detail``) stays part of that span, so a layer is counted once
per entry.  Spans and counters stay in memory; ``metrics`` reads them once at
the end.  A traced function that no longer exists is skipped and reads as
zero calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# (module, attribute, span).  Several attributes may share one span.
FUNCTIONS = (
    ("amalgam.cli", "main", "cli"),
    ("amalgam.harness", "theorem_experiment", "harness"),
    ("amalgam.harness", "bump_check", "harness.bump_check"),
    ("amalgam.operators", "apply_operator", "operators.apply_operator"),
    ("amalgam.orlicz", "luxemburg_norm", "orlicz.luxemburg_norm"),
    ("amalgam.spaces", "amalgam_norm", "spaces.amalgam_norm"),
    ("amalgam.spaces", "amalgam_norm_detail", "spaces.amalgam_norm"),
    ("amalgam.spaces", "local_lp_norm", "spaces.local_norm"),
    ("amalgam.spaces", "local_weak_lp_norm", "spaces.local_norm"),
    ("amalgam.spaces", "bmo_norm", "spaces.bmo_norm"),
    ("amalgam.weights", "muckenhoupt_characteristic", "weights.characteristic"),
    ("amalgam.weights", "doubling_profile", "weights.doubling_profile"),
    ("amalgam.expressions", "evaluate", "expressions.evaluate"),
)

SPANS = tuple(dict.fromkeys(span for _, _, span in FUNCTIONS)) + ("grid.node_indices",)

BYTES_PER_MB = 2**20  # MiB, as peak_rss_mb


class Tracer:
    def __init__(self):
        self._stack = []  # [span, time in nested spans]
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.calls = dict.fromkeys(SPANS, 0)
        self.convolutions = 0
        self.young_evals = 0
        self.gathered_nodes = 0
        self._index_bytes = {}  # distinct (shape, center, size, grid) -> bytes

    def _wrap(self, fn, span, on_call=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[span] += dt - frame[1]
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _count_convolutions(self, fn):
        signature = inspect.signature(fn)

        def on_call(args, kwargs):
            b = signature.bind(*args, **kwargs).arguments.get("b")
            self.convolutions += 1 if b is None else 2

        return on_call

    def install(self):
        """Replace the traced functions in every loaded amalgam module."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "amalgam"]
        for module_name, attr, span in FUNCTIONS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                continue
            on_call = self._count_convolutions(fn) if attr == "apply_operator" else None
            wrapper = self._wrap(fn, span, on_call)
            for module in modules:
                if getattr(module, attr, None) is fn:
                    setattr(module, attr, wrapper)

        region = getattr(sys.modules.get("amalgam.grid"), "Region", None)
        if region is not None and hasattr(region, "node_indices"):
            node_indices = self._wrap(region.node_indices, "grid.node_indices")

            def traced_node_indices(reg, grid):
                idx = node_indices(reg, grid)
                self.gathered_nodes += idx.size
                self._index_bytes.setdefault((reg.shape, reg.center, reg.size, grid), idx.nbytes)
                return idx

            region.node_indices = traced_node_indices

        young = getattr(sys.modules.get("amalgam.orlicz"), "YoungFunction", None)
        if young is not None:
            call = young.__call__

            def counted_call(yf, t):
                self.young_evals += 1
                return call(yf, t)

            young.__call__ = counted_call

    def metrics(self) -> dict:
        """Per-layer metric name -> value."""
        s, c = self.self_s, self.calls
        node_calls = c["grid.node_indices"]
        norms = c["orlicz.luxemburg_norm"]
        distinct = len(self._index_bytes)
        return {
            "operators.apply_operator.self_s": s["operators.apply_operator"],
            "operators.apply_operator.calls": c["operators.apply_operator"],
            "operators.convolutions": self.convolutions,
            "orlicz.luxemburg_norm.self_s": s["orlicz.luxemburg_norm"],
            "orlicz.luxemburg_norm.calls": norms,
            "orlicz.young_evals": self.young_evals,
            "orlicz.young_evals_per_norm": self.young_evals / norms if norms else 0.0,
            "grid.node_indices.self_s": s["grid.node_indices"],
            "grid.node_indices.calls": node_calls,
            "grid.distinct_regions": distinct,
            "grid.distinct_region_ratio": distinct / node_calls if node_calls else 0.0,
            "grid.gathered_nodes": self.gathered_nodes,
            "grid.index_mb": sum(self._index_bytes.values()) / BYTES_PER_MB,
            "harness.self_s": s["harness"],
            "harness.bump_check.self_s": s["harness.bump_check"],
            "harness.bump_check.calls": c["harness.bump_check"],
            "spaces.amalgam_norm.self_s": s["spaces.amalgam_norm"],
            "spaces.amalgam_norm.calls": c["spaces.amalgam_norm"],
            "spaces.local_norm.self_s": s["spaces.local_norm"],
            "spaces.local_norm.calls": c["spaces.local_norm"],
            "spaces.bmo_norm.self_s": s["spaces.bmo_norm"],
            "spaces.bmo_norm.calls": c["spaces.bmo_norm"],
            "weights.characteristic.self_s": s["weights.characteristic"],
            "weights.characteristic.calls": c["weights.characteristic"],
            "weights.doubling_profile.self_s": s["weights.doubling_profile"],
            "expressions.evaluate.self_s": s["expressions.evaluate"],
            "expressions.evaluate.calls": c["expressions.evaluate"],
            "cli.self_s": s["cli"],
        }
