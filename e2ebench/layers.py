"""Per-layer metrics and the Chrome trace from one traced run.

Spans come from three places: the program's own process
(:mod:`e2ebench.tracer`), the pool workers (``parallel.chunk`` spans
the engine ships back, paper-batch only) and the load generator (one
``client.request`` per exchange).  They are joined into one tree per
request ``trace_id``; a span's self time is its duration minus the part
its children cover, and a layer's share is its self time over the
program's busy time (the summed self time of every program span).
"""

import json

from e2ebench import stats

KERNEL_LAYERS = (
    "oscillators.locking", "oscillators.physics", "oscillators.distance",
    "oscillators.fast", "memcomputing.ensemble", "memcomputing.solver",
    "quantum.runtime", "quantum.shor", "inmemory.vmm")

SERVE_LAYERS = ("serve.app", "serve.service", "serve.admission",
                "serve.coalesce")

PROGRAM_LAYERS = SERVE_LAYERS + ("core.cache", "core.telemetry",
                                 "core.parallel") + KERNEL_LAYERS

#: name -> unit for every per-layer metric, in report order.
METRICS = {
    "loadgen.lag_p99_ms": "ms",
    "loadgen.conn_wait_p99_ms": "ms",
    "loadgen.cpu_frac": "frac",
    "serve.app.http_ms_p50": "ms",
    "serve.service.submit_ms_p50": "ms",
    "serve.service.dispatch_ms_p50": "ms",
    "serve.admission.wait_ms_p50": "ms",
    "serve.admission.wait_ms_p99": "ms",
    "serve.admission.refused_frac": "frac",
    "serve.coalesce.follower_frac": "frac",
    "serve.coalesce.jobs_per_batch": "count",
    "cache.hit_frac": "frac",
    "cache.lookup_ms_p50": "ms",
    "cache.fingerprint_ms_p50": "ms",
    "cache.store_ms_p50": "ms",
    "telemetry.scrape_ms_p50": "ms",
    "telemetry.series": "count",
    "parallel.map_calls": "count",
    "parallel.fanout_frac": "frac",
    "parallel.chunks": "count",
    "parallel.retries": "count",
    "parallel.dispatch_frac": "frac",
    "oscillators.physics.busy_s": "s",
    "oscillators.physics.rk4_steps_per_s": "1/s",
    "oscillators.distance.pairs_per_s": "1/s",
    "oscillators.fast.busy_s": "s",
    "memcomputing.ensemble.busy_s": "s",
    "memcomputing.ensemble.traj_steps_per_s": "1/s",
    "memcomputing.solver.busy_s": "s",
    "quantum.runtime.busy_s": "s",
    "quantum.runtime.gates_per_s": "1/s",
    "quantum.shor.busy_s": "s",
    "inmemory.vmm.busy_s": "s",
    "inmemory.vmm.macs_per_s": "1/s",
}
METRICS.update({layer + ".share": "frac" for layer in PROGRAM_LAYERS})
METRICS["kernels.share"] = "frac"
METRICS["trace.overhead_frac"] = "frac"

#: Rates derived as a count over a busy time, not read from a counter.
COMPUTED = {name for name, unit in METRICS.items() if unit == "1/s"}


class Span:
    __slots__ = ("id", "parent", "name", "layer", "trace", "start", "end",
                 "tid", "units", "pid", "children", "self_s")

    def __init__(self, sid, parent, name, layer, trace, start, end, tid,
                 units, pid):
        self.id, self.parent, self.name, self.layer = sid, parent, name, layer
        self.trace, self.start, self.end = trace, start, end
        self.tid, self.units, self.pid = tid, units, pid
        self.children = []
        self.self_s = 0.0

    @property
    def duration(self):
        return self.end - self.start


def load_program_spans(doc, key_prefix):
    """Spans of one dump from :meth:`Tracer.dump`, ids made unique."""
    pid = doc["pid"]
    spans = []
    for sid, parent, name, layer, trace, start, end, tid, units in \
            doc["spans"]:
        spans.append(Span("%s%d" % (key_prefix, sid),
                          None if parent is None
                          else "%s%d" % (key_prefix, parent),
                          name, layer, trace, start, end, tid, units, pid))
    return spans


def _innermost_container(candidates, start, end):
    best = None
    for span in candidates:
        if span.start <= start and end <= span.end and (
                best is None or span.duration < best.duration):
            best = span
    return best


def build_tree(spans):
    """Link parents (explicit ids, else by trace and time containment),
    compute self times, and re-attribute chunk spans to their kernel."""
    by_id = {span.id: span for span in spans}
    by_trace = {}
    for span in spans:
        if span.trace is not None:
            by_trace.setdefault(span.trace, []).append(span)
    for span in spans:
        if span.parent is None and span.trace is not None:
            candidates = [other for other in by_trace[span.trace]
                          if other is not span and other.name != span.name
                          and _rank(other) < _rank(span)]
            parent = _innermost_container(candidates, span.start, span.end)
            if parent is not None:
                span.parent = parent.id
        if span.parent is not None and span.parent in by_id:
            by_id[span.parent].children.append(span)
    for span in spans:
        span.self_s = stats.self_time(
            (span.start, span.end),
            [(child.start, child.end) for child in span.children])
    for span in spans:
        if span.name == "parallel.chunk":
            ancestor = by_id.get(span.parent)
            while ancestor is not None and ancestor.layer == "core.parallel":
                ancestor = by_id.get(ancestor.parent)
            if ancestor is not None:
                span.layer = ancestor.layer
    return by_id


_RANK = {"client.request": 0, "serve.app.route": 1, "telemetry.scrape": 1,
         "parallel.map": 3, "parallel.chunk": 4}


def _rank(span):
    """Nesting order for spans joined by time: outer layers first."""
    return _RANK.get(span.name, 2)


def _outermost(spans, layer, by_id):
    """Spans of ``layer`` not nested inside another span of it."""
    out = []
    for span in spans:
        if span.layer != layer or span.name == "parallel.chunk":
            continue
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.layer == layer:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            out.append(span)
    return out


def _ms(values):
    return [1000.0 * v for v in values]


def _or_zero(value):
    return 0.0 if value is None else float(value)


def kernel_metrics(spans, by_id, program_busy):
    """Busy seconds, computed rates, and shares of every program layer."""
    metrics = {}

    def busy(layer):
        return sum(span.duration for span in _outermost(spans, layer, by_id))

    def units(layer):
        return sum(span.units or 0
                   for span in _outermost(spans, layer, by_id))

    def rate(layer):
        seconds = busy(layer)
        return units(layer) / seconds if seconds > 0 else 0.0

    for layer in ("oscillators.physics", "oscillators.fast",
                  "memcomputing.ensemble", "memcomputing.solver",
                  "quantum.runtime", "quantum.shor", "inmemory.vmm"):
        metrics[layer + ".busy_s"] = busy(layer)
    metrics["oscillators.physics.rk4_steps_per_s"] = rate(
        "oscillators.physics")
    metrics["oscillators.distance.pairs_per_s"] = rate(
        "oscillators.distance")
    metrics["memcomputing.ensemble.traj_steps_per_s"] = rate(
        "memcomputing.ensemble")
    metrics["quantum.runtime.gates_per_s"] = rate("quantum.runtime")
    vmm_busy = sum(span.duration for span in spans
                   if span.name == "inmemory.vmm"
                   and span.units is not None)
    metrics["inmemory.vmm.macs_per_s"] = (
        units("inmemory.vmm") / vmm_busy if vmm_busy > 0 else 0.0)

    self_by_layer = {}
    for span in spans:
        if span.layer in PROGRAM_LAYERS:
            self_by_layer[span.layer] = self_by_layer.get(span.layer, 0.0) \
                + span.self_s
    for layer in PROGRAM_LAYERS:
        metrics[layer + ".share"] = (self_by_layer.get(layer, 0.0)
                                     / program_busy if program_busy else 0.0)
    metrics["kernels.share"] = sum(metrics[layer + ".share"]
                                   for layer in KERNEL_LAYERS)

    maps = _outermost(spans, "core.parallel", by_id)
    maps = [span for span in maps if span.name == "parallel.map"]
    metrics["parallel.map_calls"] = float(len(maps))
    metrics["parallel.chunks"] = float(sum(span.units or 0 for span in maps))
    fanned = [span for span in maps
              if any(child.pid != span.pid for child in span.children)]
    metrics["parallel.fanout_frac"] = (len(fanned) / len(maps)
                                       if maps else 0.0)
    map_time = sum(span.duration for span in maps)
    metrics["parallel.dispatch_frac"] = (
        sum(span.self_s for span in maps) / map_time if map_time else 0.0)
    return metrics


def serve_metrics(spans, by_id, opened, closed, deltas,
                  client_cpu_s, wall_s, client_cores, last_scrape):
    """Per-layer metrics of a traced serve run."""
    server = [span for span in spans if span.name != "client.request"]
    routes = {span.trace: span for span in server
              if span.name == "serve.app.route"}
    program_busy = sum(span.self_s for span in server)
    metrics = kernel_metrics(server, by_id, program_busy)

    def durations(name, self_time=False):
        return [span.self_s if self_time else span.duration
                for span in server if span.name == name]

    def p50(seconds):
        return _or_zero(stats.percentile(_ms(seconds), 50))

    def p99(seconds):
        return _or_zero(stats.percentile(_ms(seconds), 99))

    metrics["loadgen.lag_p99_ms"] = p99([ex.lag for ex in opened])
    metrics["loadgen.conn_wait_p99_ms"] = p99([ex.conn_wait
                                               for ex in opened])
    metrics["loadgen.cpu_frac"] = client_cpu_s / (wall_s * client_cores)
    http = []
    for ex in opened + closed:
        doc = ex.document() if ex.status == 200 else None
        route = routes.get(doc.get("trace_id")) if doc else None
        if route is not None:
            http.append((ex.done - ex.sent) - route.duration)
    metrics["serve.app.http_ms_p50"] = p50(http)
    metrics["serve.service.submit_ms_p50"] = p50(
        durations("serve.service.submit"))
    metrics["serve.service.dispatch_ms_p50"] = p50(
        durations("serve.service.dispatch", self_time=True))
    waits = durations("serve.admission.wait")
    metrics["serve.admission.wait_ms_p50"] = p50(waits)
    metrics["serve.admission.wait_ms_p99"] = p99(waits)
    jobs = opened + closed
    metrics["serve.admission.refused_frac"] = (
        sum(1 for ex in jobs if ex.status == 429) / len(jobs))
    requests = max(1, deltas["requests"])
    metrics["serve.coalesce.follower_frac"] = deltas["coalesced"] / requests
    executions = deltas["executions"]
    metrics["serve.coalesce.jobs_per_batch"] = (
        (executions + deltas["batched"]) / executions if executions else 0.0)
    metrics["cache.hit_frac"] = deltas["cache_hits"] / requests
    metrics["cache.lookup_ms_p50"] = p50(durations("cache.lookup"))
    fingerprint = {}
    for span in _outermost(server, "core.cache", by_id):
        if span.name == "cache.fingerprint":
            fingerprint[span.parent] = fingerprint.get(span.parent, 0.0) \
                + span.duration
    metrics["cache.fingerprint_ms_p50"] = p50(list(fingerprint.values()))
    metrics["cache.store_ms_p50"] = p50(durations("cache.store"))
    metrics["telemetry.scrape_ms_p50"] = p50(durations("telemetry.scrape"))
    metrics["telemetry.series"] = float(sum(
        1 for line in last_scrape.splitlines()
        if line and not line.startswith("#")))
    metrics["parallel.retries"] = float(deltas.get("retries", 0))
    return metrics


def batch_metrics(spans, by_id, retries):
    """Per-layer metrics of a traced paper-batch run (no serve layers)."""
    metrics = kernel_metrics(spans, by_id,
                             sum(span.self_s for span in spans))
    metrics["parallel.retries"] = float(retries)
    return metrics


def client_spans(exchanges, pid):
    spans = []
    for i, ex in enumerate(exchanges):
        doc = ex.document() if (ex.status == 200 and not ex.scrape) else None
        start = ex.due if ex.due is not None else ex.sent
        spans.append(Span("c%d" % i, None, "client.request", "loadgen",
                          doc.get("trace_id") if doc else None, start,
                          ex.done, 0, None, pid))
    return spans


def chunk_spans(chunks, pid):
    """Worker chunk intervals as spans (pid marks them as worker-side)."""
    return [Span("w%d" % i, None, "parallel.chunk", "core.parallel", trace,
                 start, end, 0, None, pid)
            for i, (trace, start, end) in enumerate(chunks)]


def write_chrome_trace(spans, path):
    """One Chrome/Perfetto trace: complete events with trace ids."""
    events = []
    for span in spans:
        events.append({
            "name": span.name, "cat": span.layer, "ph": "X",
            "ts": span.start * 1e6, "dur": max(0.0, span.duration) * 1e6,
            "pid": span.pid, "tid": span.tid,
            "args": {"trace_id": span.trace,
                     "self_ms": round(span.self_s * 1000.0, 4)}})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)
