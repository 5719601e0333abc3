"""Seeded, replayable request and job lists for the three workloads.

A workload definition fixes everything except the seed: the mix, the
sizes, the offered rate and the amount of work.  ``build(name, seed,
seconds)`` turns it into a plain list of JSON records that is written
as JSONL beside the results and can be replayed with ``--replay``.

Record shapes (one JSON object per line):

* ``{"phase": "meta", ...}`` -- workload, seed, seconds, offered rate;
* ``{"phase": "catalog", "id": i, "kind", "params", "tenant"}`` --
  serve-repeat's fixed catalog, stored by an untimed warm-up;
* ``{"phase": "warmup" | "open" | "closed", "kind", "params",
  "tenant"}`` -- serve requests; open ones add ``"window": k`` and
  ``"due"`` (seconds from the window's start), closed ones
  ``"segment": k``.  serve-repeat requests carry ``"ref": id`` instead
  of a payload;
* ``{"phase": "scrape", "window": k, "due"}`` -- one metrics scrape per
  second of each open window;
* ``{"phase": "job", "kind", "params", "round"}`` -- one paper-batch
  call; ``"phase": "warmup"`` jobs run untimed before the list.
"""

import json
import math

import numpy as np

#: Held out for later performance claims: never used while the
#: benchmark or a change to the program is being tuned.
HELD_OUT_SEED = 982_451_653

#: Fixes serve-repeat's catalog layout (kinds and sizes by rank).
CATALOG_LAYOUT_SEED = 7

#: The tenants serve requests are spread over (default quota 16 each).
TENANTS = ("t0", "t1", "t2", "t3")

SERVE_UNIQUE = {
    "kind": "serve",
    # Open-loop Poisson arrivals at about a third of the closed-loop
    # throughput measured at the seed on a 2-core host (server and load
    # generator on one core each): at half load, a stall of the shared
    # host pushed the server near saturation and a run's median latency
    # with it.
    "rate": 140.0,
    "open_share": 0.6,         # of --seconds spent in the open loop
    "closed_rps": 400.0,        # sizes the closed loop to ~0.4 * seconds
    "closed_share": 0.4,
    # Untimed warm-up long enough to fill the job table (retention 1024)
    # and the memory result store (256 entries): timing starts in the
    # server's steady state, not while its tables are still growing.
    "warmup": 1200,
    # Kernels stay a small share of server time: factor n=15 runs all
    # ten order-finding attempts under serve's retry default (~60 ms),
    # so it is rare; solve instances are tiny.
    "mix": {"distance": 0.84, "detect": 0.125, "solve": 0.03,
            "factor": 0.005},
}

SERVE_REPEAT = {
    "kind": "serve",
    "rate": 80.0,
    "open_share": 0.6,
    "closed_rps": 200.0,
    "closed_share": 0.4,
    "catalog": 64,
    "warmup": 1200,
    "zipf_s": 1.1,
    "mix": {"distance": 0.6, "detect": 0.15, "solve": 0.125,
            "factor": 0.125},
}

PAPER_BATCH = {
    "kind": "batch",
    # One round of paper-figure calls takes about this long at the
    # seed on a 2-core host; the number of rounds scales with --seconds.
    "round_seconds": 7.5,
}

WORKLOADS = {"serve-unique": SERVE_UNIQUE, "serve-repeat": SERVE_REPEAT,
             "paper-batch": PAPER_BATCH}


def _rng(seed, stream):
    return np.random.default_rng([int(seed), int(stream)])


#: Open-loop windows and closed-loop segments per run; they alternate
#: and each holds the same mix of work.
SEGMENTS = 14


def split(items, parts=SEGMENTS):
    """``items`` in ``parts`` consecutive, nearly equal slices."""
    bounds = [round(i * len(items) / parts) for i in range(parts + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def quotas(weights, count):
    """Integer counts proportional to ``weights``, summing to ``count``
    (largest remainder)."""
    total = float(sum(weights))
    exact = [w / total * count for w in weights]
    counts = [int(x) for x in exact]
    for i in sorted(range(len(weights)),
                    key=lambda i: counts[i] - exact[i])[:count - sum(counts)]:
        counts[i] += 1
    return counts


def _stratified(rng, values, weights, count):
    """``count`` items in exact proportion to ``weights``, seeded order."""
    items = [v for v, n in zip(values, quotas(weights, count))
             for _ in range(n)]
    return [items[i] for i in rng.permutation(count)]


# -- request payloads ---------------------------------------------------------

def _sizes(kind, count, large):
    """``count`` payload sizes of ``kind`` at fixed quantiles: pairs for
    distance (log-uniform), image side for detect, variables for solve.
    The same multiset for every seed, so cost does not ride on it."""
    if kind == "distance":
        low, high = (256, 2048) if large else (1, 256)
        return [int(round(math.exp(math.log(low) + (i + 0.5) / count
                                   * (math.log(high) - math.log(low)))))
                for i in range(count)]
    if kind == "detect":
        sides = (16, 24, 32, 48, 64) if large else (4, 5, 6, 7, 8)
        weights = (7, 6, 4, 2, 1) if large else (1, 1, 1, 1, 1)
    elif kind == "solve":
        sides = range(20, 61) if large else range(6, 13)
        weights = [1] * len(sides)
    else:
        return [15] * count
    return [v for v, n in zip(sides, quotas(weights, count))
            for _ in range(n)]


def _request(rng, kind, size):
    """One request document of ``kind`` and ``size``, values from ``rng``."""
    if kind == "distance":
        params = {"pairs": np.round(rng.uniform(0.0, 255.0, size=(size, 2)),
                                    3).tolist()}
    elif kind == "detect":
        params = {"image": rng.integers(0, 256, size=(size, size))
                  .astype(float).tolist()}
    elif kind == "solve":
        from repro.core.sat_instances import planted_ksat

        formula = planted_ksat(size, 4 * size, rng=int(rng.integers(2**31)))
        params = {"dimacs": formula.to_dimacs(), "attempts": 1,
                  "seed": int(rng.integers(2**31))}
    else:
        params = {"n": size, "seed": int(rng.integers(2**40))}
    return {"kind": kind, "params": params,
            "tenant": TENANTS[int(rng.integers(len(TENANTS)))]}


def _block(rng, mix, count, large):
    """``count`` (kind, size) pairs: exact kind proportions, sizes at
    fixed quantiles per kind, in seeded order."""
    names = sorted(mix)
    work = []
    for name, n in zip(names, quotas([mix[k] for k in names], count)):
        work += [(name, size) for size in _sizes(name, n, large)]
    return [work[i] for i in rng.permutation(count)]


def poisson_schedule(seed, rate, count, window=0):
    """``count`` arrival times (seconds) of a seeded Poisson process."""
    gaps = _rng(seed, 10 + window).exponential(1.0 / rate, size=count)
    return np.cumsum(gaps).tolist()


def _serve_phases(spec, seed, seconds, draw):
    """Alternating open-loop windows and closed-loop segments.

    Both phases then sample the whole run, so a slow minute on a shared
    host lands in one window and one segment, not in a whole phase.
    ``draw(count)`` returns ``count`` request records.
    """
    n_open = int(round(spec["rate"] * spec["open_share"] * seconds))
    n_closed = int(round(spec["closed_rps"] * spec["closed_share"]
                         * seconds))
    records = []
    for k, (window, segment) in enumerate(zip(split(range(n_open)),
                                               split(range(n_closed)))):
        due = poisson_schedule(seed, spec["rate"], len(window), k)
        records += [dict(r, phase="open", window=k, due=t)
                    for r, t in zip(draw(len(window)), due)]
        records += [{"phase": "scrape", "window": k, "due": t + 0.5}
                    for t in range(int(due[-1]) + 1)]
        records += [dict(r, phase="closed", segment=k)
                    for r in draw(len(segment))]
    return records


def _build_unique(spec, seed, seconds):
    rng = _rng(seed, 2)
    seen = set()

    def requests(count):
        out = []
        for kind, size in _block(rng, spec["mix"], count, large=False):
            while True:
                request = _request(rng, kind, size)
                key = json.dumps([kind, request["params"]], sort_keys=True)
                if key not in seen:     # every request distinct
                    seen.add(key)
                    break
            out.append(request)
        return out

    records = [dict(r, phase="warmup") for r in requests(spec["warmup"])]
    return records + _serve_phases(spec, seed, seconds, requests)


def zipf_weights(count, s):
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** -s
    return weights / weights.sum()


def _build_repeat(spec, seed, seconds):
    # The catalog's layout -- which kind and size sits at which
    # popularity rank -- is the same for every seed, so the cost of a
    # run does not ride on whether a large payload happened to draw a
    # popular rank; the seed draws the payload values and the requests.
    layout = _block(np.random.default_rng(CATALOG_LAYOUT_SEED),
                    spec["mix"], spec["catalog"], large=True)
    rng = _rng(seed, 3)
    records = [dict(_request(rng, kind, size), phase="catalog", id=i)
               for i, (kind, size) in enumerate(layout)]
    # Every window and segment requests each entry its exact Zipf share.
    ranks = list(range(spec["catalog"]))
    weights = zipf_weights(spec["catalog"], spec["zipf_s"])

    def picks(count):
        return [{"ref": ref}
                for ref in _stratified(rng, ranks, weights, count)]

    records += [dict(r, phase="warmup") for r in picks(spec["warmup"])]
    return records + _serve_phases(spec, seed, seconds, picks)


# -- paper-batch jobs ---------------------------------------------------------

def _quantiles(low, high, count):
    """``count`` points of [low, high] at fixed quantiles."""
    return [low + (high - low) * (i + 0.5) / count for i in range(count)]


def _batch_round(rng, lock_in, lock_out, streams):
    """One round of paper-figure calls, in seeded order.

    Counts are sized so each paradigm takes a comparable share of the
    run at the seed on a 2-core host (oscillators, memcomputing and
    in-memory ~25-30% each, quantum ~15-20% with the run's one
    ``shor_factor``).
    """
    jobs = [
        # Fig. 3: one point inside the locking range, one outside.
        {"kind": "locking", "params": {
            "delta": lock_in, "cycles": 60, "expect_locked": True}},
        {"kind": "locking", "params": {
            "delta": lock_out, "cycles": 60, "expect_locked": False}},
    ]
    for stream in streams:
        jobs.append({"kind": "ensemble", "params": {
            "n": 80, "instance_seed": 5, "batch": 64, "seed": stream}})
    for _ in range(20):
        jobs.append({"kind": "ghz", "params": {
            "qubits": 10, "shots": 2000,
            "seed": int(rng.integers(2**31))}})
    for _ in range(3):
        jobs.append({"kind": "vmm", "params": {
            "n_in": 256, "n_out": 256, "vectors": 200,
            "seed": int(rng.integers(2**31))}})
    return [jobs[i] for i in rng.permutation(len(jobs))]


#: DMM ensemble calls per round; their trajectory streams come from a
#: fixed pool (see ``_build_batch``).
ENSEMBLES_PER_ROUND = 4


def _build_batch(spec, seed, seconds):
    rounds = max(1, int(round(seconds / spec["round_seconds"])))
    rng = _rng(seed, 4)
    # What a call costs rides on its inputs: a locking point's on its
    # detuning, a DMM ensemble's on its trajectory streams (it runs until
    # the slowest of 64 trajectories solves; 0.3-1 s per call on one
    # fixed planted instance).  Both come from multisets that are the
    # same for every seed -- detunings at fixed quantiles of the in- and
    # out-of-range bands, streams 1..k -- and the seed deals them out to
    # rounds; the seed also draws the GHZ streams, the VMM matrices and
    # the order of every round.
    lock_in = [_quantiles(0.01, 0.03, rounds)[i]
               for i in rng.permutation(rounds)]
    lock_out = [_quantiles(0.40, 0.50, rounds)[i]
                for i in rng.permutation(rounds)]
    streams = (1 + rng.permutation(rounds * ENSEMBLES_PER_ROUND)).tolist()
    jobs = []
    for r in range(rounds):
        mine = streams[r * ENSEMBLES_PER_ROUND:(r + 1) * ENSEMBLES_PER_ROUND]
        jobs += [dict(job, phase="job", round=r) for job in
                 _batch_round(rng, lock_in[r], lock_out[r], mine)]
    # One shor_factor(21) per run, at a seeded place in the list.  Its
    # stream is fixed (its cost depends on how many random bases it
    # tries, 0.05-5 s); seed 1 takes one base, and with workers="auto"
    # all ten order-finding attempts run on the pool.  At the seed that
    # call takes either ~1 s or ~3.5 s for the same work (pool workers
    # and their BLAS threads oversubscribe the cores), so one call per
    # run bounds what that coin flip moves a run's totals by.
    at = int(rng.integers(len(jobs) + 1))
    shor_round = jobs[at - 1]["round"] if at else 0
    jobs.insert(at, {"kind": "shor", "params": {"n": 21, "seed": 1},
                     "phase": "job", "round": shor_round})
    # Untimed warm-up: one call of each kind, so the forked pool
    # workers have run every kernel once before timing starts.
    warm, kinds = [], set()
    for job in jobs:
        if job["kind"] not in kinds:
            kinds.add(job["kind"])
            warm.append(dict(job, phase="warmup"))
    return warm + jobs


def build(name, seed, seconds):
    """The record list for workload ``name``; deterministic in its args."""
    spec = WORKLOADS[name]
    if name == "serve-unique":
        records = _build_unique(spec, seed, seconds)
    elif name == "serve-repeat":
        records = _build_repeat(spec, seed, seconds)
    else:
        records = _build_batch(spec, seed, seconds)
    meta = {"phase": "meta", "workload": name, "seed": int(seed),
            "seconds": seconds}
    if spec["kind"] == "serve":
        meta["rate"] = spec["rate"]
    return [meta] + records


def write_jsonl(records, path):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_jsonl(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]
