"""The paper-batch program: a fixed list of paper-figure calls.

Usage: ``python -m e2ebench.batch_child --jobs JOBS.jsonl --out OUT.json
[--trace-out SPANS.json] [--setup-only]``.

Start-up imports the four paradigms and spawns the persistent worker
pool (every call runs with ``workers="auto"``), then prints ``ready``.
After an untimed warm-up (one call of each kind), the job list runs
once, in order, through public APIs; OUT.json
receives the wall time, the CPU time and peak RSS of the process tree
(this process plus its pool workers), the host-speed reference sampled
before, during and after the list, and a small summary of each answer
for the benchmark's checks.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core import parallel, telemetry, tracing
from repro.core.sat_instances import planted_ksat
from repro.inmemory import vmm
from repro.memcomputing import ensemble
from repro.oscillators import locking
from repro.quantum import runtime
from repro.quantum.algorithms import shor
from repro.quantum.circuit import QuantumCircuit

from e2ebench import calibrate, procs, tracer as tracer_module

WORKERS = "auto"
ENSEMBLE_MAX_STEPS = 100_000
LOCKING_BASE_V_GS = 1.8
LOCKING_R_C = 35e3
#: Jobs between two samples of the host-speed reference.
REFERENCE_EVERY = 6


def _ghz(qubits):
    circuit = QuantumCircuit(qubits)
    circuit.h(0)
    for q in range(qubits - 1):
        circuit.cnot(q, q + 1)
    circuit.measure_all()
    return circuit


def prepare(job, formulas):
    """Untimed inputs for one job, drawn from its seeds."""
    kind, params = job["kind"], job["params"]
    if kind == "ensemble":
        key = (params["n"], params["instance_seed"])
        if key not in formulas:
            formulas[key] = planted_ksat(params["n"],
                                         int(round(4.2 * params["n"])),
                                         rng=params["instance_seed"])
        return formulas[key]
    if kind == "ghz":
        return _ghz(params["qubits"])
    if kind == "vmm":
        rng = np.random.default_rng(params["seed"])
        weights = rng.standard_normal((params["n_in"], params["n_out"]))
        vectors = rng.standard_normal((params["vectors"], params["n_in"]))
        return weights, vectors
    return None


def run_job(job, inputs):
    """Run one call; returns the summary the checks need."""
    kind, params = job["kind"], job["params"]
    if kind == "locking":
        result = locking.check_locking(
            LOCKING_BASE_V_GS, LOCKING_BASE_V_GS + params["delta"],
            LOCKING_R_C, cycles=params["cycles"])
        return {"locked": bool(result.locked)}
    if kind == "ensemble":
        result = ensemble.solve_ensemble(
            inputs, batch=params["batch"], max_steps=ENSEMBLE_MAX_STEPS,
            rng=params["seed"], workers=WORKERS)
        return {"solve_steps": result.solve_steps.tolist(),
                "max_steps": ENSEMBLE_MAX_STEPS}
    if kind == "ghz":
        result = runtime.QuantumRuntime().run(
            inputs, shots=params["shots"], rng=params["seed"],
            workers=WORKERS)
        return {"counts": {str(k): int(v) for k, v in result.counts.items()}}
    if kind == "shor":
        result = shor.shor_factor(params["n"], rng=params["seed"],
                                  workers=WORKERS)
        return {"factors": None if result.factors is None
                else [int(f) for f in result.factors]}
    weights, vectors = inputs
    out = vmm.TiledVmm(weights).multiply_batch(vectors)
    exact = vectors @ weights
    error = float(np.max(np.abs(out - exact)) / np.max(np.abs(exact)))
    return {"rel_error": error}


def _chunk_spans(sink, clock_offset):
    """Worker-side ``parallel.chunk`` spans, on the perf_counter clock."""
    spans = []
    for event in sink.events:
        if event.get("type") == "span" and event.get("name") == \
                "parallel.chunk" and event.get("trace"):
            start = event["ts"] - clock_offset
            spans.append([event["trace"], start,
                          start + event["duration_s"]])
    return spans


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs")
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = sink = None
    if args.trace_out:
        tracer = tracer_module.Tracer()
        tracer_module.install_kernels(tracer)
        registry = telemetry.MetricsRegistry()
        sink = registry.add_sink(tracing.ListSink())
        telemetry.set_registry(registry)
    # Spawn the persistent pool now, so set-up covers it.
    parallel.ParallelMap(workers=WORKERS).map(abs, [-1, -2])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with open(args.jobs) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    formulas = {}
    for job in records:
        if job["phase"] == "warmup":
            run_job(job, prepare(job, formulas))
    jobs = [job for job in records if job["phase"] == "job"]
    inputs = [prepare(job, formulas) for job in jobs]
    meter = procs.TreeMeter(os.getpid())
    outcomes, job_s, failed = [], [], 0
    wall = cpu = 0.0
    # Host-speed reference before the list, after it and between every
    # REFERENCE_EVERY jobs, outside the timed spans (see calibrate.py).
    reference = [calibrate.sample()]
    for first in range(0, len(jobs), REFERENCE_EVERY):
        meter.start()
        start = time.perf_counter()
        for index in range(first, min(first + REFERENCE_EVERY, len(jobs))):
            job_start = time.perf_counter()
            try:
                with tracing.use_trace("job-%d" % index):
                    outcomes.append(run_job(jobs[index], inputs[index]))
            except Exception as error:  # noqa: BLE001 -- counted as failed
                failed += 1
                outcomes.append({"error": "%s: %s" % (
                    type(error).__name__, error)})
            job_s.append(time.perf_counter() - job_start)
        wall += time.perf_counter() - start
        cpu += meter.stop()
        reference.append(calibrate.sample())
    doc = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": meter.peak_rss_mb(),
           "failed": failed, "job_s": job_s, "outcomes": outcomes,
           "reference_s": reference}
    with open(args.out, "w") as handle:
        json.dump(doc, handle)
    if tracer is not None:
        offset = time.time() - time.perf_counter()
        retries = telemetry.get_registry().counter("parallel.retries").value
        tracer.dump(args.trace_out,
                    extra={"chunks": _chunk_spans(sink, offset),
                           "retries": retries})
    return 0


if __name__ == "__main__":
    sys.exit(main())
