"""Spans recorded from outside the package, around calls into each aqstate
module, and the per-layer metrics derived from them.

A span holds its name, start, end, parent span and the work counts of the
call.  Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its direct child spans cover; self times of all spans
plus the time outside every span add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from dataclasses import dataclass, field

import aqstate
from aqstate import cli, estimator, harness, pauli, snapshots, statevector

MODULES = (aqstate, cli, estimator, harness, pauli, snapshots, statevector)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)
    peak_bytes: int | None = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, count=None, peak=False):
        """``fn`` recording one span per call; ``count(result, *args)`` gives
        the call's work counts, ``peak`` its tracemalloc peak."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            # Peaks are taken only where no enclosing span is tracing already;
            # no wrapped call that takes a peak nests inside another here.
            own_peak = peak and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            span = Span(name, parent, time.perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
                if own_peak:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                span.counts = count(result, *args)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every reference the package's modules hold to a layer
        function with its wrapper, and restore the originals on exit."""
        patched = []
        for name, owner, attr, count, peak in LAYERS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count, peak)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        try:
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)


def _seminorm_counts(result, obs):
    # seminorm compares every pair of non-identity terms
    t = sum(1 for _, string in obs.terms if string.weight > 0)
    return {"terms": t, "pairs": t * (t - 1) // 2}


def _estimate_counts(result, state, obs, *rest):
    return {"term_snapshots": len(obs.terms) * state.n_snapshots}


def _factored_counts(result, state, fobs, *rest):
    return {
        "term_snapshots": len(fobs.terms) * state.n_snapshots,
        "qubit_snapshots": len(fobs.terms) * fobs.n_qubits * state.n_snapshots,
    }


def _experiment_counts(report, cfg):
    # the final estimate of each observable: its terms times all M snapshots
    terms = sum(o.get("n_terms", 1) for o in report.observables)
    return {"useful_term_snapshots": terms * cfg.n_snapshots}


# (span name, module owning the function, attribute, counts, take peak)
LAYERS = (
    ("statevector.run_circuit", statevector, "run_circuit", None, True),
    ("statevector.exact_expectation", statevector, "exact_expectation", None, False),
    ("statevector.exact_expectation_factored", statevector, "exact_expectation_factored",
     None, False),
    ("snapshots.acquire", snapshots, "snapshots_from_state",
     lambda state, *a: {"snapshots": state.n_snapshots}, True),
    ("snapshots.serialize", snapshots, "serialize",
     lambda data, *a: {"bytes": len(data)}, False),
    ("snapshots.deserialize", snapshots, "deserialize",
     lambda state, data: {"bytes": len(data)}, False),
    ("pauli.seminorm", pauli, "seminorm", _seminorm_counts, False),
    ("pauli.load_observable", pauli, "load_observable", None, False),
    ("estimator.estimate_observable", estimator, "estimate_observable", _estimate_counts, False),
    ("estimator.estimate_factored", estimator, "estimate_factored", _factored_counts, False),
    ("harness.run_experiment", harness, "run_experiment", _experiment_counts, False),
    ("cli.main", cli, "main", lambda rc, *a: {"nonzero_exits": int(rc != 0)}, False),
)

PER_LAYER = {
    "statevector.run_circuit.calls": "count",
    "statevector.run_circuit.self_s": "s",
    "statevector.run_circuit.peak_mib": "MiB",
    "statevector.exact_expectation.self_s": "s",
    "statevector.exact_expectation_factored.self_s": "s",
    "snapshots.acquire.calls": "count",
    "snapshots.acquire.snapshots": "count",
    "snapshots.acquire.self_s": "s",
    "snapshots.acquire.us_per_snapshot": "us",
    "snapshots.acquire.peak_mib": "MiB",
    "snapshots.serialize.bytes": "B",
    "snapshots.serialize.self_s": "s",
    "snapshots.serialize.mb_per_s": "MB/s",
    "snapshots.deserialize.bytes": "B",
    "snapshots.deserialize.self_s": "s",
    "snapshots.deserialize.mb_per_s": "MB/s",
    "pauli.seminorm.calls": "count",
    "pauli.seminorm.terms": "count",
    "pauli.seminorm.pairs": "count",
    "pauli.seminorm.self_s": "s",
    "pauli.seminorm.ns_per_pair": "ns",
    "pauli.load_observable.self_s": "s",
    "estimator.estimate_observable.calls": "count",
    "estimator.estimate_observable.term_snapshots": "count",
    "estimator.estimate_observable.self_s": "s",
    "estimator.estimate_observable.ns_per_term_snapshot": "ns",
    "estimator.estimate_factored.calls": "count",
    "estimator.estimate_factored.qubit_snapshots": "count",
    "estimator.estimate_factored.self_s": "s",
    "estimator.estimate_factored.ns_per_qubit_snapshot": "ns",
    "harness.run_experiment.calls": "count",
    "harness.run_experiment.self_s": "s",
    "harness.run_experiment.useful_work_frac": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.nonzero_exits": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float, untraced_wall_s: float) -> dict:
    """Every PER_LAYER metric from the spans of a traced phase that took
    ``wall_s`` and repeated an untraced phase that took ``untraced_wall_s``."""
    calls, self_s, counts, peak = {}, {}, {}, {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        for key, value in span.counts.items():
            counts[(span.name, key)] = counts.get((span.name, key), 0) + value
        if span.peak_bytes is not None:
            peak[span.name] = max(peak.get(span.name, 0), span.peak_bytes)

    evaluated = sum(
        s.counts.get("term_snapshots", 0)
        for s in spans
        if s.parent is not None and spans[s.parent].name == "harness.run_experiment"
    )
    top_level_s = sum(s.end - s.start for s in spans if s.parent is None)
    derived = {
        "us_per_snapshot": lambda n: _ratio(self_s.get(n, 0.0), counts.get((n, "snapshots"), 0)) * 1e6,
        "mb_per_s": lambda n: _ratio(counts.get((n, "bytes"), 0), self_s.get(n, 0.0)) / 1e6,
        "ns_per_pair": lambda n: _ratio(self_s.get(n, 0.0), counts.get((n, "pairs"), 0)) * 1e9,
        "ns_per_term_snapshot": lambda n: _ratio(
            self_s.get(n, 0.0), counts.get((n, "term_snapshots"), 0)) * 1e9,
        "ns_per_qubit_snapshot": lambda n: _ratio(
            self_s.get(n, 0.0), counts.get((n, "qubit_snapshots"), 0)) * 1e9,
        "useful_work_frac": lambda n: _ratio(counts.get((n, "useful_term_snapshots"), 0), evaluated),
        "calls": lambda n: calls.get(n, 0),
        "self_s": lambda n: self_s.get(n, 0.0),
        "peak_mib": lambda n: peak.get(n, 0) / 2**20,
    }
    special = {
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - top_level_s,
        "trace.overhead_frac": _ratio(wall_s, untraced_wall_s) - 1.0,
    }
    out = {}
    for metric in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        if metric in special:
            out[metric] = special[metric]
        elif stat in derived:
            out[metric] = derived[stat](name)
        else:
            out[metric] = counts.get((name, stat), 0)
    return out
