"""Span and counter tracing for the benchmark, from outside ``src/``.

The program carries no tracing of its own, so the traced run wraps the
public functions and methods of each layer in place (module attributes,
every ``from x import f`` alias in loaded ``repro`` modules, and class
attributes) and restores them afterwards. A span records name, start,
end, parent span and op id; counters record work done at the same
boundaries. Spans are kept in memory and written as NDJSON at exit.

Only calls on the thread that installed the tracer are recorded: the
campaign runner's lease heartbeat thread calls the storage layer too,
and its spans would have no parent in the op being measured.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (span id, name, start, end, parent id or -1, op id)
Span = Tuple[int, str, float, float, int, object]


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[object, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.op: object = None
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._patches: List[Tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def recording(self) -> bool:
        return threading.get_ident() == self._thread

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.recording():
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, name, 0.0, 0.0, parent, self.op))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.op)

    def count(self, name: str, n: float = 1) -> None:
        if self.recording():
            self.counts[self.op][name] += n

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #

    def _wrapper(self, name: str, fn: Callable, on_call=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None and tracer.recording():
                on_call(tracer, args, kwargs, result)
            return result

        return traced

    def wrap_function(self, module, attr: str, name: str, on_call=None):
        """Wrap ``module.attr`` and every alias of it in ``repro`` modules."""
        original = getattr(module, attr)
        traced = self._wrapper(name, original, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, traced))

    def wrap_method(self, cls, attr: str, name: str, on_call=None):
        """Wrap a method defined on ``cls`` (instances pick it up)."""
        original = cls.__dict__[attr]
        traced = self._wrapper(name, original, on_call)
        self._patches.append((cls, attr, original, traced))

    @contextlib.contextmanager
    def attached(self):
        """Route calls through the wrappers for the duration."""
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    def write_ndjson(self, path, header: Dict[str, object]) -> None:
        """One ``header`` line, then one line per span and per counter."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": None if parent < 0 else parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
            for op, counts in self.counts.items():
                for name, n in sorted(counts.items()):
                    out.write(
                        json.dumps({"count": name, "n": n, "op": op}) + "\n"
                    )


# ---------------------------------------------------------------------- #
# the layer boundaries the benchmark traces
# ---------------------------------------------------------------------- #


def _count_backend(tracer, args, kwargs, result):
    tracer.count(f"receiver.backend.{result.backend}")


def _count_draws(tracer, args, kwargs, result):
    shape = kwargs.get("shape", args[1] if len(args) > 1 else ())
    tracer.count("noise.draws", math.prod(tuple(shape)))


def _count_round(tracer, args, kwargs, result):
    tracer.count("population.mc_groups", result.n_monte_carlo_groups)
    tracer.count("population.mc_devices", result.n_monte_carlo_devices)
    tracer.count("population.cf_groups", result.n_closed_form_groups)
    # Audited groups are scored in closed form as well as Monte-Carlo.
    tracer.count("population.audit_groups", result.reasons.count("audit"))
    for reason in result.reasons:
        tracer.count(f"population.reason.{reason}")


def _count_campaign(tracer, args, kwargs, result):
    tracer.count("runner.points", len(result.results))
    tracer.count("runner.points_computed", result.n_computed)
    tracer.count("runner.points_cached", result.n_cached)


#: Storage driver operations, all wrapped on the posix leaf driver.
STORAGE_OPS = (
    "get",
    "put_atomic",
    "put_exclusive",
    "replace",
    "delete",
    "list",
    "exists",
    "stat",
    "rename",
)


def wrap_layers(tracer: Tracer) -> None:
    """Register wrappers on the public boundaries of every layer the
    benchmark reports; :meth:`Tracer.attached` switches them on."""
    from repro.campaign import leases, presets, runner, spec, storage, store
    from repro.core import capacity, dcss, receiver
    from repro.phy import backend_plan, noise, sparse_readout
    from repro.protocol import network, population

    fn = tracer.wrap_function
    method = tracer.wrap_method

    fn(population, "office_population", "population.office_population")
    fn(population, "assign_cluster", "population.assign_cluster")
    fn(population, "split_fidelity", "population.split_fidelity")
    fn(
        population,
        "hybrid_population_round",
        "population.hybrid_population_round",
        _count_round,
    )

    for name in (
        "packet_delivery_probability",
        "effective_bit_error_rate",
        "preamble_detection_probability",
        "ook_bit_error_probabilities",
        "post_despreading_snr",
    ):
        fn(capacity, name, f"capacity.{name}")
    fn(capacity, "noncentral_chi2_cdf", "capacity.noncentral_chi2_cdf")

    method(network.NetworkSimulator, "__init__", "network.sim_init")
    method(network.NetworkSimulator, "run_rounds", "network.run_rounds")

    method(
        receiver.NetScatterReceiver,
        "decode_readout",
        "receiver.decode_readout",
        _count_backend,
    )
    method(
        receiver.NetScatterReceiver,
        "decode_rounds",
        "receiver.decode_rounds",
        _count_backend,
    )

    fn(dcss, "compose_readout", "dcss.compose_readout")
    fn(dcss, "compose_rounds", "dcss.compose_rounds")
    method(sparse_readout.SparseReadout, "tone_ratio",
           "sparse_readout.tone_ratio")
    method(noise.NoiseStream, "standard_complex", "noise.standard_complex",
           _count_draws)

    fn(backend_plan, "calibrate", "backend_plan.calibrate")
    fn(backend_plan, "host_planner", "backend_plan.host_planner")
    method(backend_plan.BackendPlanner, "select", "backend_plan.select")

    fn(presets, "fig17_campaign", "presets.fig17_campaign")
    fn(presets, "fig18_campaign", "presets.fig18_campaign")
    method(runner.CampaignRunner, "__init__", "runner.init")
    method(runner.CampaignRunner, "run", "runner.run", _count_campaign)
    fn(runner, "execute_point", "runner.execute_point")
    method(spec.CampaignPoint, "content_hash", "spec.content_hash")
    method(store.CampaignStore, "__init__", "store.init")
    method(store.CampaignStore, "has", "store.has")
    method(store.CampaignStore, "load", "store.load")
    method(store.CampaignStore, "save", "store.save")
    for op in STORAGE_OPS:
        method(storage.PosixDriver, op, f"storage.{op}")
    method(leases.LeaseManager, "acquire", "leases.acquire")
    method(leases.LeaseManager, "release", "leases.release")


# ---------------------------------------------------------------------- #
# per-layer metrics from spans
# ---------------------------------------------------------------------- #


def op_timings(spans: List[Span]) -> Dict[object, Dict[str, float]]:
    """Per op: call counts and inclusive, self and outermost seconds.

    ``<name>`` sums a span name's durations and ``calls:<name>`` counts
    them; ``self:<name>`` is a span's duration minus its children's;
    ``outer:<layer>`` sums the spans of a layer (name prefix before the
    first dot) whose parent is not in that layer, so a layer's nested
    calls are not counted twice. ``top_level`` sums the direct children
    of the op's root span.
    """
    by_id = {span[0]: span for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[object, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span_id, name, start, end, parent, op in spans:
        duration = end - start
        timings = out[op]
        timings[name] += duration
        timings[f"calls:{name}"] += 1
        timings[f"self:{name}"] += duration - child_time[span_id]
        layer = name.split(".", 1)[0]
        parent_name = by_id[parent][1] if parent >= 0 else ""
        if parent_name.split(".", 1)[0] != layer:
            timings[f"outer:{layer}"] += duration
        if parent_name == "op":
            timings["top_level"] += duration
    return out
