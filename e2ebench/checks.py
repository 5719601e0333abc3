"""Correctness checks on the program's answers.

Every check is a property that holds whatever the RNG stream, chunk
layout or worker count -- no pinned digests, because the serial fast
path and the chunked path legitimately draw different streams.  Each
function returns None when the answer is right and a one-line reason
when it is wrong.
"""

import math

import numpy as np

#: Relative error allowed between the crossbar VMM and the exact NumPy
#: product (ideal devices: only conductance round-off remains).
VMM_REL_TOL = 1e-9


def _clauses(dimacs):
    clauses = []
    for line in dimacs.splitlines():
        line = line.strip()
        if not line or line[0] in "cp%":
            continue
        literals = [int(token) for token in line.split()]
        if literals and literals[-1] == 0:
            literals = literals[:-1]
        if literals:
            clauses.append(literals)
    return clauses


def check_solve(params, result):
    if not result.get("satisfied"):
        return "solve: not satisfied"
    assignment = {int(var): bool(val)
                  for var, val in (result.get("assignment") or {}).items()}
    for clause in _clauses(params["dimacs"]):
        if not any(assignment.get(abs(lit), False) == (lit > 0)
                   for lit in clause):
            return "solve: clause %s unsatisfied" % clause
    return None


def check_factor(n, result):
    factors = result.get("factors") if isinstance(result, dict) else result
    if not factors or len(factors) != 2:
        return "factor: no factor pair for %d" % n
    a, b = (int(f) for f in factors)
    if a * b != n or min(a, b) <= 1:
        return "factor: %s does not factor %d" % (factors, n)
    return None


def check_distance(pairs, result, unit=None, sample=()):
    """Length, then exact equality with scalar ``measure`` on ``sample``."""
    measures = result.get("measures")
    if not isinstance(measures, list) or len(measures) != len(pairs):
        return "distance: %d measures for %d pairs" % (
            len(measures or []), len(pairs))
    for i in sample:
        expected = unit.measure(pairs[i][0], pairs[i][1])
        if measures[i] != expected:
            return "distance: pair %d gave %r, scalar measure %r" % (
                i, measures[i], expected)
    return None


def check_detect(image, result, expected=None):
    corners = result.get("corners")
    if not isinstance(corners, list) or result.get("count") != len(corners):
        return "detect: corner count mismatch"
    rows, cols = len(image), len(image[0])
    if any(not (0 <= r < rows and 0 <= c < cols) for r, c in corners):
        return "detect: corner outside the image"
    if expected is not None and \
            sorted(map(tuple, corners)) != sorted(map(tuple, expected)):
        return "detect: corners differ from a direct detect() call"
    return None


def check_serve(request, document, unit=None, sample=(), expected=None):
    """One serve response against its request."""
    if not isinstance(document, dict) or document.get("state") != "done":
        return "serve: job not done: %r" % (document,)
    kind, params = request["kind"], request["params"]
    result = document.get("result") or {}
    if kind == "solve":
        return check_solve(params, result)
    if kind == "factor":
        return check_factor(params["n"], result)
    if kind == "distance":
        return check_distance(params["pairs"], result, unit, sample)
    return check_detect(params["image"], result, expected)


# -- paper-batch ------------------------------------------------------------

def check_job(job, outcome):
    """One paper-batch call's summary (see ``batch_child``)."""
    kind, params = job["kind"], job["params"]
    if kind == "locking":
        if outcome.get("locked") is not params["expect_locked"]:
            return "locking: delta %.3f gave locked=%r" % (
                params["delta"], outcome.get("locked"))
        return None
    if kind == "ensemble":
        steps = outcome.get("solve_steps") or []
        if len(steps) != params["batch"]:
            return "ensemble: %d trajectories" % len(steps)
        if not all(isinstance(s, (int, float)) and math.isfinite(s)
                   and 0 < s <= outcome["max_steps"] for s in steps):
            return "ensemble: a trajectory did not solve its formula"
        return None
    if kind == "ghz":
        counts = {int(k): int(v) for k, v in outcome["counts"].items()}
        all_ones = (1 << params["qubits"]) - 1
        if set(counts) - {0, all_ones}:
            return "ghz: outcomes %s beyond all-0/all-1" % sorted(counts)
        if sum(counts.values()) != params["shots"]:
            return "ghz: %d shots counted" % sum(counts.values())
        return None
    if kind == "shor":
        return check_factor(params["n"], outcome.get("factors"))
    if kind == "vmm":
        error = outcome.get("rel_error")
        if error is None or not np.isfinite(error) or error > VMM_REL_TOL:
            return "vmm: relative error %r > %g" % (error, VMM_REL_TOL)
        return None
    return "unknown job kind %r" % kind
