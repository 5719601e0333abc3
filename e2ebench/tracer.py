"""Benchmark-side spans around the public calls into each layer.

Installed only in the traced run, inside the program's own process
(``serve_traced`` or ``batch_child --trace-out``): the wrappers replace
module and class attributes of ``repro`` at start-up, so nothing under
``src/`` changes and the untraced run executes the program untouched.

A span is ``[id, parent, name, layer, trace, start, end, tid, units]``
on ``time.perf_counter`` (system-wide monotonic on Linux, so client and
server spans share one clock).  Synchronous calls nest through a
per-thread stack; spans that straddle ``await`` (HTTP routing, the
admission queue wait) are recorded flat and joined to their request by
trace id.
"""

import functools
import itertools
import json
import os
import threading
import time

#: span name -> layer (this repository's module names).
LAYERS = {
    "serve.app.route": "serve.app",
    "serve.service.submit": "serve.service",
    "serve.service.validate": "serve.service",
    "serve.service.dispatch": "serve.service",
    "serve.service.finish": "serve.service",
    "serve.admission.push": "serve.admission",
    "serve.admission.wait": "serve.admission",
    "serve.coalesce": "serve.coalesce",
    "cache.fingerprint": "core.cache",
    "cache.lookup": "core.cache",
    "cache.store": "core.cache",
    "telemetry.scrape": "core.telemetry",
    "telemetry.snapshot": "core.telemetry",
    "telemetry.render": "core.telemetry",
    "parallel.map": "core.parallel",
    # Re-attributed to the kernel that issued the map (layers.build_tree).
    "parallel.chunk": "core.parallel",
    "oscillators.locking": "oscillators.locking",
    "oscillators.physics": "oscillators.physics",
    "oscillators.distance": "oscillators.distance",
    "oscillators.fast": "oscillators.fast",
    "memcomputing.ensemble": "memcomputing.ensemble",
    "memcomputing.solver": "memcomputing.solver",
    "quantum.runtime": "quantum.runtime",
    "quantum.shor": "quantum.shor",
    "inmemory.vmm": "inmemory.vmm",
}


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them at exit."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, trace, start, end):
        """A flat span, joined to its request later by ``trace``."""
        self.spans.append([next(self._ids), None, name, LAYERS[name], trace,
                           start, end, threading.get_ident(), None])

    def wrap(self, owner, attr, name, units=None, trace_of=None):
        """Replace ``owner.attr`` with a timed wrapper (sync callables).

        ``units(args, kwargs, result)`` returns a work count for the
        span; ``trace_of(args, kwargs)`` names the request's trace id.
        """
        from repro.core import tracing

        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            trace = trace_of(args, kwargs) if trace_of else None
            if trace is None:
                trace = parent[4] if parent is not None \
                    else tracing.current_trace_id()
            span = [next(tracer._ids),
                    parent[0] if parent is not None else None, name,
                    LAYERS[name], trace, time.perf_counter(), None,
                    threading.get_ident(), None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[6] = time.perf_counter()
                tracer.spans.append(span)
            if units is not None:
                span[8] = units(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path, extra=None):
        doc = {"pid": os.getpid(), "spans": self.spans,
               "clock": {"wall": time.time(), "perf": time.perf_counter()}}
        doc.update(extra or {})
        with open(path, "w") as handle:
            json.dump(doc, handle)


# -- layer installers --------------------------------------------------------

def install_kernels(tracer):
    from repro.core import parallel, resilience
    from repro.inmemory import vmm
    from repro.memcomputing import ensemble, solver
    from repro.oscillators import coupling, distance, locking
    from repro.oscillators.fast import oscillator_fast
    from repro.quantum import runtime
    from repro.quantum.algorithms import shor

    tracer.wrap(parallel.ParallelMap, "map", "parallel.map",
                units=lambda a, k, r: len(a[2]))
    # Chunks the engine runs inline (serial backend); pool workers are
    # forked after this, so theirs are wrapped too but never dumped.
    tracer.wrap(resilience, "run_task", "parallel.chunk")
    tracer.wrap(locking, "check_locking", "oscillators.locking")
    tracer.wrap(coupling.CoupledOscillatorNetwork, "simulate",
                "oscillators.physics", units=lambda a, k, r: r[0].n_steps)
    tracer.wrap(distance.OscillatorDistanceUnit, "measure_pairs",
                "oscillators.distance", units=lambda a, k, r: len(r))
    tracer.wrap(distance.OscillatorDistanceUnit, "measure_batch",
                "oscillators.distance", units=lambda a, k, r: len(r))
    tracer.wrap(oscillator_fast.OscillatorFastDetector, "detect",
                "oscillators.fast")
    tracer.wrap(ensemble, "solve_ensemble", "memcomputing.ensemble",
                units=lambda a, k, r: r.total_trajectory_steps)
    tracer.wrap(solver, "solve_portfolio", "memcomputing.solver")
    tracer.wrap(solver.DmmSolver, "solve", "memcomputing.solver")
    tracer.wrap(runtime.QuantumRuntime, "run", "quantum.runtime",
                units=lambda a, k, r: len(a[1].gate_ops) * r.shots)
    tracer.wrap(shor, "shor_factor", "quantum.shor")
    tracer.wrap(vmm.TiledVmm, "__init__", "inmemory.vmm")
    tracer.wrap(vmm.TiledVmm, "multiply_batch", "inmemory.vmm",
                units=lambda a, k, r: int(r.shape[0])
                * a[0].weights.shape[0] * a[0].weights.shape[1])


def install_serve(tracer):
    from repro.core import cache, exposition, telemetry
    from repro.serve import admission, app, coalesce, service

    pushed = {}     # job id -> when it entered the admission queue

    def route(fn):
        @functools.wraps(fn)
        async def wrapper(self, method, path, body, trace_id):
            start = time.perf_counter()
            try:
                return await fn(self, method, path, body, trace_id)
            finally:
                name = "telemetry.scrape" if path.startswith("/v1/metrics") \
                    else "serve.app.route"
                tracer.record(name, trace_id, start, time.perf_counter())
        return wrapper

    def pop(fn):
        @functools.wraps(fn)
        async def wrapper(self):
            job = await fn(self)
            start = pushed.pop(job.id, None)
            if start is not None:
                tracer.record("serve.admission.wait", job.trace_id, start,
                              time.perf_counter())
            return job
        return wrapper

    def push(fn):
        @functools.wraps(fn)
        def wrapper(self, job):
            result = fn(self, job)
            pushed[job.id] = time.perf_counter()
            return result
        return wrapper

    app.ServeApp._route = route(app.ServeApp._route)
    admission.AdmissionQueue.pop = pop(admission.AdmissionQueue.pop)
    admission.AdmissionQueue.push = push(admission.AdmissionQueue.push)
    tracer.wrap(admission.AdmissionQueue, "push", "serve.admission.push")
    tracer.wrap(service.JobService, "submit", "serve.service.submit",
                trace_of=lambda a, k: k.get("trace_id"))
    tracer.wrap(service, "validate_request", "serve.service.validate")
    tracer.wrap(service, "_run_traced", "serve.service.dispatch",
                trace_of=lambda a, k: a[0])
    tracer.wrap(service.JobService, "_finish", "serve.service.finish",
                trace_of=lambda a, k: a[1].trace_id)
    for attr in ("primary_for", "register", "join", "resolve"):
        tracer.wrap(coalesce.Coalescer, attr, "serve.coalesce")
    tracer.wrap(coalesce.DistanceBatcher, "gather", "serve.coalesce")
    for attr in ("fingerprint", "digest", "cache_key"):
        tracer.wrap(cache, attr, "cache.fingerprint")
    tracer.wrap(cache.ResultCache, "lookup", "cache.lookup")
    tracer.wrap(cache.ResultCache, "store", "cache.store")
    tracer.wrap(telemetry.MetricsRegistry, "snapshot", "telemetry.snapshot")
    tracer.wrap(exposition, "render_prometheus", "telemetry.render")
