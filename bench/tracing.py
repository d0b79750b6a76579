"""Layer tracing from outside the program, by wrapping public functions.

``install`` replaces each traced function in every loaded ``envarsim``
module that holds a reference to it, so calls made through ``from .x
import f`` are caught as well. Spans (name, parent, start, end, attributes)
are kept in memory and written once by ``write_jsonl``. Functions called
hundreds of thousands of times are "leaves": they keep a count and busy
time per parent span instead of one span per call. A leaf must not call
any other traced function.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

LAYERS = ("cli", "io", "harness", "measurement", "optics", "tomography", "linalg", "metrics", "son")

_IO_WRITERS = ("write_count_csv", "write_json", "write_report_csv", "write_plot_series", "write_correlation_csv")
_IO_READERS = ("read_count_csv", "read_json")


def _mle_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, span name, attribute hook); span names start with their layer
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("cli", "cmd_analyze", "cli.analyze", None),
    ("cli", "cmd_son_fit", "cli.son_fit", None),
    *(("io", f, f"io.{f}", _written_bytes) for f in _IO_WRITERS),
    *(("io", f, f"io.{f}", None) for f in _IO_READERS),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "run_three_stages", "harness.run_three_stages", None),
    ("harness", "assemble_report", "harness.assemble_report", None),
    ("measurement", "simulate_counts", "measurement.simulate_counts", None),
    ("measurement", "drift_state", "measurement.drift_state", None),
    ("optics", "decompose_rotation", "optics.decompose_rotation", None),
    ("tomography", "mle_reconstruct", "tomography.mle_reconstruct", _mle_attrs),
    ("son", "solve_son", "son.solve_son", None),
    ("son", "son_fit", "son.son_fit", None),
    # the Nelder-Mead state fits: scipy's minimize as son sees it
    ("son", "minimize", "son.state_fit", None),
)
LEAVES = (
    ("linalg", "trace_distance", "linalg.trace_distance"),
    ("measurement", "born_probability", "measurement.born_probability"),
    ("metrics", "fidelity", "metrics.fidelity"),
    ("metrics", "bhattacharyya", "metrics.bhattacharyya"),
)


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [name, parent index or -1, start, end, attrs]
        self.leaves: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, busy_s]
        self._stack = [-1]

    def span(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if attrs is not None:
                record[4] = attrs(args, kwargs, result)
            return result

        return traced

    def leaf(self, name, fn):
        leaves, stack, clock = self.leaves, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                entry = leaves.get((stack[-1], name))
                if entry is None:
                    leaves[(stack[-1], name)] = [1, busy]
                else:
                    entry[0] += 1
                    entry[1] += busy

        return traced

    def install(self) -> None:
        """Wrap every traced function; envarsim must be imported already."""
        modules = [m for n, m in list(sys.modules.items()) if n == "envarsim" or n.startswith("envarsim.")]
        for module, func, name, attrs in SPANS:
            self._replace(modules, module, func, lambda fn, n=name, a=attrs: self.span(n, fn, a))
        for module, func, name in LEAVES:
            self._replace(modules, module, func, lambda fn, n=name: self.leaf(n, fn))

    @staticmethod
    def _replace(modules, module, func, make) -> None:
        owner = sys.modules[f"envarsim.{module}"]
        original = getattr(owner, func)
        wrapper = make(original)
        # scipy's minimize is replaced in son only; envarsim functions in
        # every module that imported them
        targets = [owner] if func == "minimize" else modules
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, parent, start, end, attrs) in enumerate(self.spans):
                row = {"id": index, "name": name, "parent": parent, "start": start, "end": end}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")
            for (parent, name), (calls, busy) in sorted(self.leaves.items()):
                fh.write(json.dumps({"name": name, "parent": parent, "calls": calls, "busy_s": busy}) + "\n")

    def layer_metrics(self, run_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        durations = [end - start for _, _, start, end, _ in self.spans]
        self_time = list(durations)
        for index, (_, parent, *_rest) in enumerate(self.spans):
            if parent >= 0:
                self_time[parent] -= durations[index]
        for (parent, _), (_, busy) in self.leaves.items():
            if parent >= 0:
                self_time[parent] -= busy

        def total(name):
            return sum(d for d, s in zip(durations, self.spans) if s[0] == name)

        def calls(name):
            return sum(1 for s in self.spans if s[0] == name)

        def leaf_sum(name, field):
            return sum(v[field] for (_, n), v in self.leaves.items() if n == name)

        writes = [s for s in self.spans if s[0] in {f"io.{f}" for f in _IO_WRITERS}]
        reads = {f"io.{f}" for f in _IO_READERS}
        mle = [s for s in self.spans if s[0] == "tomography.mle_reconstruct"]
        mle_s = total("tomography.mle_reconstruct")
        records = calls("measurement.simulate_counts")

        layer_self = {layer: 0.0 for layer in LAYERS}
        for span, own in zip(self.spans, self_time):
            layer_self[span[0].split(".")[0]] += own
        for (_, name), (_, busy) in self.leaves.items():
            layer_self[name.split(".")[0]] += busy

        m = {
            "cli.simulate_s": (total("cli.simulate"), "s"),
            "cli.analyze_s": (total("cli.analyze"), "s"),
            "cli.son_fit_s": (total("cli.son_fit"), "s"),
            "io.write_s": (sum(s[3] - s[2] for s in writes), "s"),
            "io.read_s": (sum(d for d, s in zip(durations, self.spans) if s[0] in reads), "s"),
            "io.files_written": (len(writes), "count"),
            "io.bytes_written": (sum(s[4]["bytes"] for s in writes), "bytes"),
            "harness.run_three_stages_s": (total("harness.run_three_stages"), "s"),
            "harness.assemble_report_s": (total("harness.assemble_report"), "s"),
            "measurement.simulate_counts_calls": (records, "count"),
            "measurement.simulate_counts_s": (total("measurement.simulate_counts"), "s"),
            "measurement.drift_state_s": (total("measurement.drift_state"), "s"),
            "measurement.born_probability_calls": (leaf_sum("measurement.born_probability", 0), "count"),
            "measurement.born_probability_s": (leaf_sum("measurement.born_probability", 1), "s"),
            "optics.decompose_rotation_calls": (calls("optics.decompose_rotation"), "count"),
            "optics.decompose_rotation_s": (total("optics.decompose_rotation"), "s"),
            "tomography.mle_calls": (len(mle), "count"),
            "tomography.mle_iterations": (sum(s[4]["iterations"] for s in mle), "count"),
            "tomography.mle_s": (mle_s, "s"),
            "tomography.mle_ms_per_call": (1e3 * mle_s / len(mle) if mle else 0.0, "ms"),
            "tomography.nonconverged": (sum(1 for s in mle if not s[4]["converged"]), "count"),
            "tomography.reconstructions_per_record": (len(mle) / records if records else 0.0, "ratio"),
            "linalg.trace_distance_calls": (leaf_sum("linalg.trace_distance", 0), "count"),
            "linalg.trace_distance_s": (leaf_sum("linalg.trace_distance", 1), "s"),
            "metrics.fidelity_calls": (leaf_sum("metrics.fidelity", 0), "count"),
            "metrics.fidelity_s": (leaf_sum("metrics.fidelity", 1), "s"),
            "metrics.bhattacharyya_calls": (leaf_sum("metrics.bhattacharyya", 0), "count"),
            "metrics.bhattacharyya_s": (leaf_sum("metrics.bhattacharyya", 1), "s"),
            "son.solve_son_calls": (calls("son.solve_son"), "count"),
            "son.solve_son_s": (total("son.solve_son"), "s"),
            "son.state_fits": (calls("son.state_fit"), "count"),
            "son.state_fit_s": (total("son.state_fit"), "s"),
            "son.son_fit_s": (total("son.son_fit"), "s"),
        }
        for layer in LAYERS:
            m[f"self.{layer}_s"] = (layer_self[layer], "s")
        covered = sum(layer_self.values())
        m["trace.coverage"] = (covered / run_s if run_s > 0 else 0.0, "ratio")
        m["trace.run_s"] = (run_s, "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m
