"""Span recording around irboost's module boundaries, installed from outside.

``install`` replaces the functions one irboost module calls in another (and
the entry points the benchmark calls) with wrappers that append a span
``[name, start, end, parent, tag, note]`` to an in-memory list; ``restore``
puts the originals back.  Module code looks these names up in its globals
at call time, so the wrappers see every call without any change to the
package.  Spans are only written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import types
from time import perf_counter


def _arm_note(args, kwargs, result, exc):
    n = kwargs.get("n_per_arm", args[2] if len(args) > 2 else None)
    if exc is not None:
        return {"n": n, "starved": True, "draws": getattr(exc, "draws", None)}
    return {"n": n, "starved": False, "draws": result.draws_consumed}


def _simulate_note(args, kwargs, result, exc):
    return {"n": kwargs.get("n_per_arm", args[1] if len(args) > 1 else None)}


# (module, attribute, span name, note function or None)
PATCHES = [
    ("irboost.cli", "main", "cli.main", None),
    ("irboost.cli", "sweep", "sweep.sweep", None),
    ("irboost.cli", "write_csv", "sweep.write_csv", None),
    ("irboost.cli", "points_to_json_dict", "sweep.points_to_json_dict", None),
    ("irboost.cli", "read_csv", "sweep.read_csv", None),
    ("irboost.cli", "write_gnuplot", "sweep.write_gnuplot", None),
    ("irboost.cli", "eval_point", "sweep.eval_point", None),
    ("irboost.cli", "estimate_from_file", "sweep.estimate_from_file", None),
    ("irboost.sweep", "sample_params", "sweep.sample_params", None),
    ("irboost.sweep", "summarize", "sweep.summarize", None),
    ("irboost.sweep", "eval_point", "sweep.eval_point", None),
    ("irboost.sweep", "estimate_from_file", "sweep.estimate_from_file", None),
    ("irboost.sweep", "parse_count_file", "sweep.parse_count_file", None),
    ("irboost.sweep", "accardi_from_counts", "probcore.accardi_from_counts", None),
    ("irboost.sweep", "simulate_classical", "stream.simulate_classical", _simulate_note),
    ("irboost.sweep", "simulate_quantum", "stream.simulate_quantum", _simulate_note),
    ("irboost.classical", "accardi_classical", "classical.accardi_classical", None),
    ("irboost.classical", "boost_classical", "classical.boost_classical", None),
    ("irboost.quantum", "accardi_quantum", "quantum.accardi_quantum", None),
    ("irboost.quantum", "boost_quantum", "quantum.boost_quantum", None),
    ("irboost.stream", "simulate_classical", "stream.simulate_classical", _simulate_note),
    ("irboost.stream", "simulate_quantum", "stream.simulate_quantum", _simulate_note),
    ("irboost.stream", "simulate_arm", "stream.simulate_arm", _arm_note),
]


class Tracer:
    """In-memory span list for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.tag = None  # workload whose round is running
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.tag, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if note is not None:
                    rec[5] = note(args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        for module_name, attr, name, note in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))
        # cli serialises JSON through its module-level ``json`` reference
        cli = importlib.import_module("irboost.cli")
        proxy = types.ModuleType("json")
        proxy.__dict__.update(json.__dict__)
        proxy.dumps = self.wrap("cli.json_dumps", json.dumps)
        self._saved.append((cli, "json", cli.json))
        cli.json = proxy

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, child)]

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, tag, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
