"""Outside-in spans around the program's layer functions.

`Tracer.install()` replaces each listed function, in every loaded `nftrace`
module namespace that holds it, with a wrapper that records a span:
(function, start_ns, end_ns, parent span, op id).  Calls between modules
and inside a module both go through module globals, so every call is seen
without editing the program.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) -> the stats reported for it.  Metric names are
# `<module>.<function>.<stat>`; the `_linalg` module is reported as
# `linalg` because a metric name must start with a letter or a digit.
LAYERS = {
    ("numberfield", "new_field"): ("calls", "ms", "self_ms"),
    ("numberfield", "is_galois"): ("calls", "ms", "capped"),
    ("numberfield", "trace_gram"): ("calls", "ms"),
    ("numberfield", "is_fundamental_disc"): ("calls", "ms"),
    ("exact", "factor_integer"): ("calls", "ms", "capped", "distinct_ratio"),
    ("exact", "factor_poly"): ("calls", "ms"),
    ("exact", "poly_discriminant"): ("ms",),
    ("exact", "count_real_roots"): ("ms",),
    ("exact", "factor_poly_mod"): ("calls", "ms"),
    ("_linalg", "hnf_rows"): ("calls", "ms"),
    ("_linalg", "frac_matrix_inverse"): ("calls", "ms"),
    ("_linalg", "nullspace_mod_p"): ("calls", "ms"),
    ("quadform", "hasse_profile"): ("calls", "ms", "self_ms", "capped"),
    ("quadform", "diagonalize_rational"): ("ms",),
    ("quadform", "rational_equivalent"): ("ms",),
    ("quadform", "jordan_form_odd"): ("calls", "ms"),
    ("quadform", "same_genus_trace"): ("ms",),
    ("splitting", "split_prime"): ("calls", "ms", "distinct_ratio"),
    ("splitting", "ramified_primes"): ("ms",),
    ("zeta", "weakly_equivalent"): ("ms",),
    ("zeta", "local_l_factor"): ("calls", "ms"),
    ("rootnum", "stiefel_whitney_local"): ("calls", "ms"),
    ("rootnum", "compare_root_numbers"): ("ms",),
    ("cli", "parse_polynomial"): ("ms",),
    ("cli", "field_summary"): ("calls", "ms", "self_ms"),
    ("cli", "inspect_field"): ("ms",),
    ("cli", "compare"): ("ms", "self_ms"),
    ("cli", "render_json"): ("ms",),
}

# What one call works on, for the distinct-argument ratio.
_ARG_KEYS = {
    ("exact", "factor_integer"): lambda args: args[0],
    ("splitting", "split_prime"): lambda args: (str(args[0].defining_poly), args[1]),
}

UNITS = {
    "calls": ("calls/op", "lower"),
    "ms": ("ms/op", "lower"),
    "self_ms": ("ms/op", "lower"),
    "capped": ("1/op", "lower"),
    "distinct_ratio": ("ratio", "higher"),
}


def metric_prefix(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


def per_layer_spec() -> list[dict]:
    """The per-layer metrics, in BENCHMARK.json form."""
    out = []
    for (module, func), stats in LAYERS.items():
        for stat in stats:
            unit, better = UNITS[stat]
            out.append(
                {"name": f"{metric_prefix(module, func)}.{stat}", "unit": unit, "better": better}
            )
    out.append({"name": "trace.ops_per_s", "unit": "1/s", "better": "higher"})
    return out


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (layer index, start_ns, end_ns, parent, op id)
        self.stack: list[int] = []  # indices into spans of the open spans
        self.op_id = -1
        self.layers = list(LAYERS)
        self.seen: list[set] = [set() for _ in self.layers]
        self.distinct = [0] * len(self.layers)
        self.keyed_calls = [0] * len(self.layers)

    def innermost(self) -> str | None:
        if not self.stack:
            return None
        module, func = self.layers[self.spans[self.stack[-1]][0]]
        return metric_prefix(module, func)

    def start_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack.clear()

    def new_pass(self) -> None:
        for s in self.seen:
            s.clear()

    def install(self) -> None:
        for idx, (module, func) in enumerate(self.layers):
            original = getattr(sys.modules[f"nftrace.{module}"], func)
            wrapper = self._wrap(idx, original)
            for name, mod in list(sys.modules.items()):
                if name == "nftrace" or name.startswith("nftrace."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, idx: int, fn):
        spans, stack = self.spans, self.stack
        key_of = _ARG_KEYS.get(self.layers[idx])
        seen = self.seen[idx]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_of is not None:
                key = key_of(args)
                self.keyed_calls[idx] += 1
                if key not in seen:
                    seen.add(key)
                    self.distinct[idx] += 1
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append((idx, None, None, parent, self.op_id))
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[me] = (idx, start, clock(), parent, self.op_id)
                stack.pop()

        return traced

    def layer_metrics(self, ops: int, capped_stages: list[str]) -> dict:
        """Per-op layer statistics from the recorded spans."""
        n = len(self.layers)
        calls = [0] * n
        incl = [0] * n
        child = [0] * n
        # a span stays open (start None) when the cap fired before its clock
        # was read; the cap unwinds every other span through its `finally`
        spans = self.spans
        closed = [s for s in spans if s[1] is not None]
        own = [0] * n
        for idx, start, end, parent, _ in closed:
            calls[idx] += 1
            dur = end - start
            own[idx] += dur
            if parent >= 0:
                child[spans[parent][0]] += dur
            # a recursive call is already inside its caller's inclusive time
            if not self._has_ancestor(parent, idx):
                incl[idx] += dur
        out = {}
        for i, (module, func) in enumerate(self.layers):
            prefix = metric_prefix(module, func)
            values = {
                "calls": calls[i] / ops,
                "ms": incl[i] / 1e6 / ops,
                "self_ms": (own[i] - child[i]) / 1e6 / ops,
                "capped": capped_stages.count(prefix) / ops,
                "distinct_ratio": self.distinct[i] / self.keyed_calls[i]
                if self.keyed_calls[i]
                else 1.0,
            }
            for stat in LAYERS[(module, func)]:
                out[f"{prefix}.{stat}"] = values[stat]
        return out

    def _has_ancestor(self, parent: int, idx: int) -> bool:
        while parent >= 0:
            span = self.spans[parent]
            if span[0] == idx:
                return True
            parent = span[3]
        return False

    def write(self, path: str) -> None:
        names = [metric_prefix(m, f) for m, f in self.layers]
        with open(path, "w") as fh:
            fh.write("span\top\tlayer\tstart_ns\tend_ns\tparent\n")
            for i, (idx, start, end, parent, op) in enumerate(self.spans):
                if start is not None:
                    fh.write(f"{i}\t{op}\t{names[idx]}\t{start}\t{end}\t{parent}\n")
