"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper under the
name its caller looks it up by (a module attribute, or a class attribute for
``ReportBundle.to_json``), and ``uninstall`` puts the originals back, so an
untraced pass runs the program unchanged.  Spans are kept in memory and
written out once, when the run ends.  A span's self time is its duration
minus the durations of the spans opened directly inside it.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute looked up by the caller, span name, counter)
# Counters read the function's result: the work it did, as a count.
TRACE_POINTS = (
    ("cstarflips.specfiles", "parse_spec_dict", "specfiles.parse_spec_dict", None),
    ("cstarflips.cli", "parse_spec", "specfiles.parse_spec", None),
    ("cstarflips.report", "run_pipeline", "report.run_pipeline", None),
    ("cstarflips.cli", "run_pipeline", "report.run_pipeline", None),
    ("cstarflips.report.ReportBundle", "to_json", "report.to_json", len),
    ("cstarflips.cli", "export", "export.export", len),
    ("cstarflips.lie.roots", "build_root_system", "lie.roots.build_root_system", None),
    ("cstarflips.lie.roots", "grading", "lie.roots.grading", None),
    ("cstarflips.lie.homogeneous", "build_action", "lie.homogeneous.build_action",
     lambda res: res.fixed_point_count),
    ("cstarflips.lie.homogeneous", "enumerate_fixed_points",
     "lie.homogeneous.enumerate_fixed_points", None),
    ("cstarflips.lie.homogeneous", "validate_action", "actions.validate_action", None),
    ("cstarflips.report", "validate_action", "actions.validate_action", None),
    ("cstarflips.report", "blowup_extremal", "actions.blowup_extremal", None),
    ("cstarflips.report", "model_warnings", "actions.model_warnings", None),
    ("cstarflips.report", "index_set_i", "actions.index_set_i", None),
    ("cstarflips.report", "is_btype", "actions.is_btype", None),
    ("cstarflips.report", "is_bordism", "actions.is_bordism", None),
    ("cstarflips.chambers", "extremal_case", "chambers.extremal_case", None),
    ("cstarflips.chambers", "movable_polygon", "chambers.movable_polygon", None),
    ("cstarflips.chambers", "chamber_decomposition", "chambers.chamber_decomposition", len),
    ("cstarflips.modifications", "chamber_pairs", "chambers.chamber_pairs", None),
    ("cstarflips.modifications", "chamber_polygon", "chambers.chamber_polygon", None),
    ("cstarflips.modifications", "build_flip_graph", "modifications.build_flip_graph",
     lambda g: len(g.edges) + len(g.obstructions)),
    ("cstarflips.modifications", "induced_action", "modifications.induced_action", None),
    ("cstarflips.modifications", "quotient_diagram", "modifications.quotient_diagram", None),
    ("cstarflips.modifications", "p1_bundle_models", "modifications.p1_bundle_models", None),
    ("cstarflips.modifications", "flip_chain_summary", "modifications.flip_chain_summary", None),
)


def _resolve(path: str):
    """A module, or a class inside one (``package.module.Class``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    def __init__(self):
        # span: [name, pass, item, start, duration, child time, count, parent]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.pass_label = "setup"
        self.item = ""

    def _wrap(self, fn, name: str, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.pass_label, self.item, 0.0, 0.0, 0.0, None,
                          stack[-1] if stack else None])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span = spans[idx]
                span[3], span[4] = start, elapsed
                if span[7] is not None:
                    spans[span[7]][5] += elapsed
            if counter is not None:
                span[6] = counter(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (for entry points the benchmark
        calls directly, such as ``cli.main``)."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def install(self) -> None:
        for path, attr, name, counter in TRACE_POINTS:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self, pass_label) -> dict:
        """Per span name: (total ms, self ms, summed count) within one pass."""
        out: dict[str, list] = {}
        for name, label, _, _, dur, child, count, _ in self.spans:
            if label != pass_label:
                continue
            acc = out.setdefault(name, [0.0, 0.0, 0])
            acc[0] += dur * 1e3
            acc[1] += (dur - child) * 1e3
            if count is not None:
                acc[2] += count
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for idx, (name, label, item, start, dur, child, count, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "pass": label, "item": item,
                    "start_s": start, "ms": dur * 1e3, "self_ms": (dur - child) * 1e3,
                    "count": count, "parent": parent,
                }) + "\n")
