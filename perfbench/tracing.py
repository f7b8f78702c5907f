"""Outside-in tracing of hypersens: wrappers around each module's public callables.

The package imports names with ``from .x import y``, so every importing
module holds its own reference to a callable.  `Tracer.install` therefore
replaces the callable at every attribute of every loaded hypersens module
that refers to it (methods are replaced on their class), and `uninstall`
puts the originals back.

Calls into the hot leaves (each property's ``value``, ``edges_of_bits`` and
``FieldPoly.eval``, called millions of times) are aggregated as count plus
time.  Every other call becomes a span that keeps its parent span's id.  A
call's self time is its duration minus the durations of the traced calls
(spans and leaves) made directly inside it; the package runs in one thread,
so those calls do not overlap.
"""

import statistics
import sys
import time

PACKAGE = "hypersens"
# module -> the public callables traced in it; "Class.method" names a method
LAYERS = {
    "gf": ("make_field", "FieldPoly.eval"),
    "families": ("generate_family", "verify_family"),
    "hypergraphs": ("edges_of_bits",),
    "properties": (
        "RubinsteinProperty.value",
        "CyclicRubinsteinProperty.value",
        "IsolatedVertexProperty.value",
        "IsolatedTriangleProperty.value",
        "IsolatedCliqueProperty.value",
    ),
    "sensitivity": (
        "sensitivity_at",
        "truth_table",
        "sensitivity_global",
        "minimal_sensitive_blocks",
        "block_sensitivity_exact",
        "certify_blocks",
        "enumerate_sensitive_tuples",
    ),
    "witnesses": (
        "triangle_packing",
        "clique_packing",
        "packing_edge_blocks",
        "build_s0_witness",
        "build_s1_witness",
        "build_isolated_vertex_witness",
        "build_family_witness",
    ),
    "scaling": ("run_scan", "fit_exponent"),
    "cli": ("main",),
}
CALLABLES = tuple(f"{mod}.{name}" for mod, names in LAYERS.items() for name in names)
VALUES = tuple(c for c in CALLABLES if c.endswith(".value"))
LEAVES = frozenset(VALUES + ("hypergraphs.edges_of_bits", "gf.FieldPoly.eval"))

# work done by one call, read from its result
ITEMS = {
    "hypergraphs.edges_of_bits": len,
    "sensitivity.sensitivity_at": lambda report: report.s_at_x,
    "sensitivity.minimal_sensitive_blocks": len,
    "sensitivity.enumerate_sensitive_tuples": len,
    "families.generate_family": lambda fam: len(fam.sets),
}

# derived per-layer metrics and their units, in report order
DERIVED = {
    "hypergraphs.edges_of_bits.edges": "count",
    "properties.value.us_per_call": "us",
    "sensitivity.truth_table.value_calls": "count",
    "sensitivity.sensitivity_at.value_calls": "count",
    "sensitivity.sensitivity_at.sensitive_ratio": "ratio",
    "sensitivity.minimal_sensitive_blocks.value_calls": "count",
    "sensitivity.minimal_sensitive_blocks.blocks": "count",
    "sensitivity.minimal_sensitive_blocks.hit_ratio": "ratio",
    "sensitivity.block_sensitivity_exact.pack_s": "s",
    "sensitivity.certify_blocks.value_calls": "count",
    "sensitivity.enumerate_sensitive_tuples.tuples": "count",
    "families.generate_family.sets": "count",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for c in CALLABLES:
        units[f"{c}.calls"] = "count"
        units[f"{c}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Span:
    __slots__ = ("name", "parent", "start", "end", "self_s", "value_calls", "items")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent  # index of the parent span, None at top level
        self.start = start
        self.end = None
        self.self_s = 0.0  # duration minus the time of calls made directly inside
        self.value_calls = 0  # property value calls made directly inside
        self.items = 0


class Tracer:
    """Spans and leaf aggregates of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        # leaf name -> [calls, total_s, self_s, items]
        self.leaves = {name: [0, 0.0, 0.0, 0] for name in LEAVES}
        # one frame per open call: [nearest span index, time covered by the
        # traced calls made directly inside, value calls made directly inside]
        self._stack = [[None, 0.0, 0]]
        self._undo = []

    def install(self) -> "Tracer":
        modules = [
            m for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for mod_name, names in LAYERS.items():
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            for qual in names:
                key = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    self._replace(cls, meth, self._wrap(key, cls.__dict__[meth]))
                    continue
                orig = getattr(mod, qual)
                wrapped = self._wrap(key, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._replace(m, attr, wrapped)
        return self

    def uninstall(self):
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def _replace(self, obj, attr, new):
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def _wrap(self, key, fn):
        if key in LEAVES:
            return self._leaf(key, fn)
        return self._span(key, fn)

    def _leaf(self, key, fn):
        stat = self.leaves[key]
        stack = self._stack
        clock = time.perf_counter
        count = ITEMS.get(key)
        is_value = key in VALUES

        def leaf(*args, **kwargs):
            frame = [stack[-1][0], 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                if is_value:
                    parent[2] += 1
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
            if count is not None:
                stat[3] += count(result)
            return result

        return leaf

    def _span(self, key, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count = ITEMS.get(key)

        def span(*args, **kwargs):
            parent = stack[-1]
            rec = Span(key, parent[0], clock())
            frame = [len(spans), 0.0, 0]
            spans.append(rec)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = clock()
                stack.pop()
                dur = rec.end - rec.start
                rec.self_s = dur - frame[1]
                rec.value_calls = frame[2]
                parent[1] += dur
            if count is not None:
                rec.items = count(result)
            return result

        return span

    def metrics(self) -> dict:
        """calls and self_s of every traced callable, plus the derived metrics."""
        calls = dict.fromkeys(CALLABLES, 0)
        self_s = dict.fromkeys(CALLABLES, 0.0)
        value_calls = dict.fromkeys(CALLABLES, 0)
        items = dict.fromkeys(CALLABLES, 0)
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += s.self_s
            value_calls[s.name] += s.value_calls
            items[s.name] += s.items
        for name, (n, _, own, k) in self.leaves.items():
            calls[name] = n
            self_s[name] = own
            items[name] = k
        out = {}
        for c in CALLABLES:
            out[f"{c}.calls"] = calls[c]
            out[f"{c}.self_s"] = self_s[c]
        evals = sum(calls[c] for c in VALUES)
        eval_s = sum(self.leaves[c][1] for c in VALUES)
        sens = value_calls["sensitivity.sensitivity_at"]
        msb = value_calls["sensitivity.minimal_sensitive_blocks"]
        blocks = items["sensitivity.minimal_sensitive_blocks"]
        sn = "sensitivity."
        out.update(
            {
                "hypergraphs.edges_of_bits.edges": items["hypergraphs.edges_of_bits"],
                "properties.value.us_per_call": 1e6 * eval_s / evals if evals else 0.0,
                sn + "truth_table.value_calls": value_calls[sn + "truth_table"],
                sn + "sensitivity_at.value_calls": sens,
                sn + "sensitivity_at.sensitive_ratio": (
                    items[sn + "sensitivity_at"] / sens if sens else 0.0
                ),
                sn + "minimal_sensitive_blocks.value_calls": msb,
                sn + "minimal_sensitive_blocks.blocks": blocks,
                sn + "minimal_sensitive_blocks.hit_ratio": blocks / msb if msb else 0.0,
                sn + "block_sensitivity_exact.pack_s": self_s[sn + "block_sensitivity_exact"],
                sn + "certify_blocks.value_calls": value_calls[sn + "certify_blocks"],
                sn + "enumerate_sensitive_tuples.tuples": items[sn + "enumerate_sensitive_tuples"],
                "families.generate_family.sets": items["families.generate_family"],
            }
        )
        return out


def median_metrics(samples) -> dict:
    """Per-metric median over several rounds' metric dicts."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
