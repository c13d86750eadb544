"""Spans and counts around calls into each ``duality_bench`` module, recorded
from outside the package by wrapping its public functions in place.

A span has a name, a start, an end, a parent span and the index of the CLI
command (``op``) it ran under. Spans stay in memory until ``finish``. Counts
that the chain threads of ``run_chains`` also add to are kept per thread, so
no update is lost.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np

import oracles


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans: list[dict] = []
        self._local = threading.local()
        self._thread_counts: list[Counter] = []
        self._open_layers: Counter = Counter()
        self._chains: list[tuple[float, list[np.ndarray]]] = []

    # --- recording ---------------------------------------------------------

    def _counts(self) -> Counter:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            self._thread_counts.append(counts)
        return counts

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner, attr: str, name: str, layer: str | None = None,
              enter=None, leave=None) -> None:
        """Replace owner.attr by a function that records a span around it.

        ``enter(args)`` runs before the call and its value is handed to
        ``leave(span, state, args, result)``, which may add fields to the span.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = {"name": name, "id": len(tracer.spans), "op": tracer.op,
                    "parent": stack[-1]["id"] if stack else None}
            tracer.spans.append(span)
            stack.append(span)
            if layer:
                tracer._open_layers[layer] += 1
            state = enter(args) if enter else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if layer:
                    tracer._open_layers[layer] -= 1
            if leave:
                leave(span, state, args, result)
            return result

        setattr(owner, attr, wrapper)

    def _count_calls(self, owner, attr: str, layer: str, key: str, rows: bool) -> None:
        """Count calls (or rows of the first argument) made while a span of
        ``layer`` is open, from any thread."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            if tracer._open_layers[layer]:
                shape = np.shape(args[0])
                tracer._counts()[key] += (shape[0] if len(shape) == 2 else 1) if rows else 1
            return fn(self_, *args, **kwargs)

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import duality_bench.cavi as cavi
        import duality_bench.cli as cli
        import duality_bench.config as config
        import duality_bench.diagnostics as diagnostics
        from duality_bench.discrete import DiscreteTarget
        from duality_bench.gaussian import GaussianTarget

        def chains_done(span, cpu0, args, traces):
            span["cpu"] = time.process_time() - cpu0
            span["chain_cycles"] = sum(t.n_cycles for t in traces)
            self._chains.append((span["end"] - span["start"], [t.samples for t in traces]))

        def alloc_start(args):
            tracemalloc.start()

        def alloc_done(span, state, args, result):
            span["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

        def file_size(span, state, args, result):
            span["bytes"] = os.path.getsize(args[0])

        self._wrap(cli, "load_config", "config.load_config")
        self._wrap(config.RunConfig, "build_model", "config.build_model")
        self._wrap(cli, "run_chains", "gibbs.run_chains", layer="gibbs",
                   enter=lambda args: time.process_time(), leave=chains_done)
        self._wrap(cli, "run_cavi", "cavi.run_cavi", layer="cavi",
                   enter=alloc_start, leave=alloc_done)
        self._wrap(cavi, "cavi_update", "cavi.cavi_update")
        self._wrap(cavi, "kl_objective", "cavi.kl_objective")
        self._wrap(cli, "build_report", "diagnostics.build_report")
        for attr in ("concavity_probe", "information_equality_check", "info_monte_carlo",
                     "squashing_constant", "squash_pointwise_check", "kl_lower_bound"):
            self._wrap(diagnostics, attr, f"diagnostics.{attr}")
        self._wrap(cli, "duality_suite", "diagnostics.duality_suite")
        self._wrap(cli, "write_csv", "serialize.write_csv", leave=file_size)
        self._wrap(cli, "write_json", "serialize.write_json", leave=file_size)
        for target in (GaussianTarget, DiscreteTarget):
            self._count_calls(target, "full_conditional", "gibbs",
                              "gibbs.full_conditional_calls", rows=False)
            self._count_calls(target, "log_density", "cavi", "cavi.log_density_rows", rows=True)

    # --- summary -----------------------------------------------------------

    def finish(self) -> dict:
        """Per-layer metrics of this round (all but import.*), and the spans."""
        counts = Counter()
        for c in self._thread_counts:
            counts.update(c)
        spans = self.spans

        def duration(span):
            return span["end"] - span["start"]

        def total(name):
            chosen = [s for s in spans if s["name"] == name]
            return sum(duration(s) for s in chosen), len(chosen)

        def self_time(name):
            own = [s for s in spans if s["name"] == name]
            ids = {s["id"] for s in own}
            children = sum(duration(s) for s in spans if s["parent"] in ids)
            return sum(duration(s) for s in own) - children

        chains_s, _ = total("gibbs.run_chains")
        chain_cycles = sum(s.get("chain_cycles", 0) for s in spans)
        min_ess, ess_per_s = 0.0, 0.0
        if self._chains:
            per_call = []
            for seconds, samples in self._chains:
                ess = min(sum(oracles.effective_sample_size(s[:, d]) for s in samples)
                          for d in range(samples[0].shape[1]))
                per_call.append((ess, ess / seconds))
            min_ess = min(e for e, _ in per_call)
            ess_per_s = min(r for _, r in per_call)
        update_s, updates = total("cavi.cavi_update")
        kl_s, kl_calls = total("cavi.kl_objective")
        concavity_s, probes = total("diagnostics.concavity_probe")
        # squash_pointwise_check calls squashing_constant; count that time once
        pointwise = {s["id"] for s in spans if s["name"] == "diagnostics.squash_pointwise_check"}
        squash_s = sum(duration(s) for s in spans if s["id"] in pointwise or (
            s["name"] == "diagnostics.squashing_constant" and s["parent"] not in pointwise))
        metrics = {
            "config.load_s": total("config.load_config")[0] + total("config.build_model")[0],
            "gibbs.run_chains_s": chains_s,
            "gibbs.run_chains_cpu_s": sum(s.get("cpu", 0.0) for s in spans),
            "gibbs.us_per_chain_cycle": 1e6 * chains_s / chain_cycles if chain_cycles else 0.0,
            "gibbs.full_conditional_calls": counts["gibbs.full_conditional_calls"],
            "gibbs.min_ess": min_ess,
            "gibbs.ess_per_s": ess_per_s,
            "cavi.run_cavi_s": total("cavi.run_cavi")[0],
            "cavi.updates": updates,
            "cavi.ms_per_update": 1e3 * update_s / updates if updates else 0.0,
            "cavi.kl_objective_s": kl_s,
            "cavi.kl_objective_calls": kl_calls,
            "cavi.log_density_rows": counts["cavi.log_density_rows"],
            "cavi.peak_alloc_mb": max((s.get("peak_alloc_b", 0) for s in spans),
                                      default=0) / 2**20,
            "diagnostics.build_report_s": total("diagnostics.build_report")[0],
            "diagnostics.functional_suite_s": self_time("diagnostics.build_report"),
            "diagnostics.concavity_s": concavity_s,
            "diagnostics.concavity_probe_calls": probes,
            "diagnostics.info_equality_s": total("diagnostics.information_equality_check")[0],
            "diagnostics.info_monte_carlo_s": total("diagnostics.info_monte_carlo")[0],
            "diagnostics.squashing_s": squash_s,
            "diagnostics.kl_bound_s": total("diagnostics.kl_lower_bound")[0],
            "diagnostics.duality_suite_s": total("diagnostics.duality_suite")[0],
            "serialize.write_csv_s": total("serialize.write_csv")[0],
            "serialize.write_json_s": total("serialize.write_json")[0],
            "serialize.bytes_written": sum(s.get("bytes", 0) for s in spans),
        }
        return {"metrics": metrics, "spans": spans}
