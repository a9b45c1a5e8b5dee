"""Traced runs of benchmark operations, and the per-layer metrics.

A traced operation is the same in-process ``rovecover.cli.main(argv)``
call as an untraced one. ``Tracer.install`` wraps, in the program's own
namespaces, the steps ``main`` takes: ``build_parser`` and the parser's
``parse_args`` (span ``cli.parse``), the command handler
(``cli.handler``), every result class's ``to_json_dict`` and the CLI's
``rational_to_json`` (``serialize``), and ``_emit`` (``cli.emit``). The
layer entry points below are wrapped wherever a rovecover module refers
to them, so a call from the CLI or from one layer into another (the
planner building PMFs, theorem2 reading both schemes) is a span of its
own. Each span is (id, parent span, operation id, name, start ns, end ns,
counts). Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import os
import statistics
import sys
import time
from collections.abc import Mapping
from fractions import Fraction

# Public functions of each layer that get a span of their own.
ENTRY_POINTS = {
    "subset_scheme": ("coverage_pmf", "mean_coverage", "tail_probability"),
    "multinomial_scheme": ("multinomial_coverage_pmf", "theorem2_check",
                           "markov_repetition_bound"),
    "combinatorics": ("stirling2",),
    "planner": ("min_agents_confident", "min_agents_expected"),
    "monte_carlo": ("simulate", "compare"),
    "enumeration": ("crosscheck", "enumerate_subset_scheme",
                    "enumerate_multinomial_scheme"),
}

# Today's split between the two subset samplers.
SUBSET_SAMPLER_SPLIT_N = 2048

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _rss_kb() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE_KB


def _span_counts(name: str, args, result) -> dict:
    if name.endswith("coverage_pmf"):
        return {"points": len(result.pmf)}
    if name == "monte_carlo.simulate":
        config = args[0]
        p = config.params
        return {"trials": config.trials, "workers": config.workers,
                "config": [config.scheme_tag, p.n, p.m, p.k, config.trials, config.seed]}
    if name.startswith("enumeration.enumerate"):
        return {"outcomes": result.total_outcomes}
    return {}


def _result_bits(value) -> int:
    """Total bit length of the exact rationals (and bare exact integers such
    as a Stirling number) in a computed result."""
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, int) and not isinstance(value, bool):
        return value.bit_length()
    if dataclasses.is_dataclass(value):
        return sum(_result_bits(getattr(value, f.name)) for f in dataclasses.fields(value)
                   if not isinstance(getattr(value, f.name), int))
    if isinstance(value, Mapping):
        return sum(_result_bits(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_result_bits(v) for v in value)
    return 0


# Commands whose exact results are not counted in combinatorics.result_bits.
_SAMPLING = ("simulate", "compare")


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, op, name, start_ns, end_ns, counts]
        self.stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        record = [len(self.spans), self.stack[-1] if self.stack else None, self.op,
                  name, time.perf_counter_ns(), None, counts]
        self.spans.append(record)
        self.stack.append(record[0])
        try:
            yield counts
        finally:
            self.stack.pop()
            record[5] = time.perf_counter_ns()

    def _wrap(self, name, fn, layer=False):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                counts.update(_span_counts(name, args, result))
            # What a handler computed, measured outside the layer's span.
            if layer and parent is not None and self.spans[parent][3] == "cli.handler":
                counts["bits"] = _result_bits(result)
            return result
        return traced

    def _wrap_build_parser(self, build):
        def build_parser():
            with self.span("cli.parse"):
                parser = build()
            parser.parse_args = self._wrap("cli.parse", parser.parse_args)
            return parser
        return build_parser

    def _wrap_emit(self, emit):
        def traced_emit(*args, **kwargs):
            with self.span("cli.emit") as counts:
                start = sys.stdout.tell()
                emit(*args, **kwargs)
                counts["bytes"] = sys.stdout.tell() - start  # ASCII JSON
        return traced_emit

    def install(self) -> None:
        """Wrap each step of ``cli.main`` and every layer entry point, in
        each rovecover module that names it."""
        from rovecover import cli
        modules = [importlib.import_module("rovecover." + layer) for layer in ENTRY_POINTS]
        loaded = [mod for name, mod in sys.modules.items()
                  if name == "rovecover" or name.startswith("rovecover.")]
        for module, (layer, names) in zip(modules, ENTRY_POINTS.items()):
            for fname in names:
                original = getattr(module, fname)
                traced = self._wrap(f"{layer}.{fname}", original, layer=True)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
        result_classes = {value for mod in loaded for value in vars(mod).values()
                          if isinstance(value, type) and "to_json_dict" in vars(value)}
        for cls in result_classes:
            cls.to_json_dict = self._wrap("serialize", cls.to_json_dict)
        cli.rational_to_json = self._wrap("serialize", cli.rational_to_json)
        cli.build_parser = self._wrap_build_parser(cli.build_parser)
        cli._emit = self._wrap_emit(cli._emit)
        for command, handler in cli._HANDLERS.items():
            cli._HANDLERS[command] = self._wrap("cli.handler", handler)

    @contextlib.contextmanager
    def operation(self, op: dict, primary: bool, rss_window: bool):
        """The root span of one operation. ``rss_window`` marks the
        operations whose resident-set growth is summed."""
        self.op += 1
        with self.span("op", kind=op["kind"], command=op["argv"][0], primary=primary,
                       rss_window=rss_window, rss_before=_rss_kb()) as counts:
            yield
            counts["rss_after"] = _rss_kb()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns",
                                  "counts"], "spans": self.spans}, f)


# Per-layer metrics ---------------------------------------------------------


class _Op:
    def __init__(self, root):
        self.counts = root[6]
        self.spans = []


def _ops(spans):
    ops = {}
    for span in spans:
        if span[3] == "op":
            ops[span[2]] = _Op(span)
        elif span[2] in ops:
            ops[span[2]].spans.append(span)
    return list(ops.values())


def _ms(span) -> float:
    return (span[5] - span[4]) / 1e6


def _named(ops, *names):
    return [s for op in ops for s in op.spans if s[3] in names]


def _median_ms(*names):
    def metric(ops):
        found = _named(ops, *names)
        return statistics.median(_ms(s) for s in found) if found else None
    return metric


def _mean_count(count, *names):
    def metric(ops):
        found = [s[6][count] for s in _named(ops, *names) if count in s[6]]
        return statistics.fmean(found) if found else None
    return metric


def _per_op_ms(*names, needs):
    """Median over the operations that have a ``needs`` span of the time in
    spans of ``names``, nested ones counted once."""
    def metric(ops):
        per_op = []
        for op in ops:
            found = [s for s in op.spans if s[3] in names]
            if any(s[3] == needs for s in found):
                ids = {s[0] for s in found}
                per_op.append(sum(_ms(s) for s in found if s[1] not in ids))
        return statistics.median(per_op) if per_op else None
    return metric


def _result_bits_metric(ops):
    found = [sum(s[6].get("bits", 0) for s in op.spans)
             for op in ops if op.counts["command"] not in _SAMPLING]
    found = [bits for bits in found if bits]
    return statistics.fmean(found) if found else None


def _pmfs_per_plan(ops):
    per_plan = []
    for op in ops:
        plans = {s[0] for s in op.spans if s[3] == "planner.min_agents_confident"}
        if plans:
            per_plan.append(sum(1 for s in op.spans
                                if s[1] in plans and s[3].endswith("coverage_pmf")))
    return statistics.fmean(per_plan) if per_plan else None


def _rss_growth(*commands):
    def metric(ops):
        found = [op.counts["rss_after"] - op.counts["rss_before"]
                 for op in ops
                 if op.counts["command"] in commands and op.counts["rss_window"]]
        return sum(found) / 1024 if found else None
    return metric


def _trials_per_s(scheme, small_n=None):
    def metric(ops):
        trials = seconds = 0
        for s in _named(ops, "monte_carlo.simulate"):
            c = s[6]
            if "config" not in c or c["workers"] != 1 or c["config"][0] != scheme:
                continue
            if small_n is not None and (c["config"][1] <= SUBSET_SAMPLER_SPLIT_N) != small_n:
                continue
            trials += c["trials"]
            seconds += _ms(s) / 1e3
        return trials / seconds if seconds else None
    return metric


def _workers2_speedup(ops):
    by_config: dict[tuple, dict[int, float]] = {}
    for s in _named(ops, "monte_carlo.simulate"):
        if "config" in s[6]:
            by_config.setdefault(tuple(s[6]["config"]), {})[s[6]["workers"]] = _ms(s)
    ratios = [t[1] / t[2] for t in by_config.values() if 1 in t and 2 in t]
    return statistics.median(ratios) if ratios else None


LAYER_METRICS = {
    "cli.parse_ms": _per_op_ms("cli.parse", needs="cli.parse"),
    "cli.emit_ms": _per_op_ms("serialize", "cli.emit", needs="cli.emit"),
    "cli.emit_bytes": _mean_count("bytes", "cli.emit"),
    "subset_scheme.coverage_pmf_ms": _median_ms("subset_scheme.coverage_pmf"),
    "multinomial_scheme.multinomial_coverage_pmf_ms":
        _median_ms("multinomial_scheme.multinomial_coverage_pmf"),
    "subset_scheme.pmf_points": _mean_count("points", "subset_scheme.coverage_pmf"),
    "multinomial_scheme.pmf_points":
        _mean_count("points", "multinomial_scheme.multinomial_coverage_pmf"),
    "combinatorics.result_bits": _result_bits_metric,
    "subset_scheme.mean_coverage_ms": _median_ms("subset_scheme.mean_coverage"),
    "subset_scheme.tail_probability_ms": _median_ms("subset_scheme.tail_probability"),
    "multinomial_scheme.theorem2_check_ms": _median_ms("multinomial_scheme.theorem2_check"),
    "combinatorics.stirling2_ms": _median_ms("combinatorics.stirling2"),
    "planner.min_agents_confident_ms": _median_ms("planner.min_agents_confident"),
    "planner.min_agents_expected_ms": _median_ms("planner.min_agents_expected"),
    "planner.pmfs_evaluated": _pmfs_per_plan,
    "planner.rss_growth_mb": _rss_growth("plan"),
    "monte_carlo.subset_small_n_trials_per_s": _trials_per_s("subset", small_n=True),
    "monte_carlo.subset_large_n_trials_per_s": _trials_per_s("subset", small_n=False),
    "monte_carlo.multinomial_trials_per_s": _trials_per_s("multinomial"),
    "monte_carlo.compare_ms": _median_ms("monte_carlo.compare"),
    "monte_carlo.workers2_speedup": _workers2_speedup,
    "monte_carlo.rss_growth_mb": _rss_growth(*_SAMPLING),
    "enumeration.crosscheck_ms": _median_ms("enumeration.crosscheck"),
    "enumeration.enumerate_ms": _median_ms("enumeration.enumerate_subset_scheme",
                                           "enumeration.enumerate_multinomial_scheme"),
    "enumeration.outcomes": _mean_count("outcomes", "enumeration.enumerate_subset_scheme",
                                        "enumeration.enumerate_multinomial_scheme"),
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Each metric from the workload's own operations; a layer the workload
    never calls is measured on the fill operations (one round of each
    other workload)."""
    ops = _ops(spans)
    primary = [op for op in ops if op.counts["primary"]]
    fill = [op for op in ops if not op.counts["primary"]]
    metrics = {}
    for name, metric in LAYER_METRICS.items():
        value = metric(primary)
        if value is None:
            value = metric(fill)
        metrics[name] = 0.0 if value is None else float(value)
    return metrics
