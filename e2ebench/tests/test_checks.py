from e2ebench import checks
from repro.core.sat_instances import planted_ksat
from repro.oscillators.distance import OscillatorDistanceUnit


def test_a_satisfying_assignment_passes_and_a_violating_one_fails():
    dimacs = planted_ksat(6, 24, rng=3).to_dimacs()
    clauses = checks._clauses(dimacs)
    for bits in range(64):      # brute-force one model of 6 variables
        model = {v: bool(bits >> (v - 1) & 1) for v in range(1, 7)}
        if all(any(model[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses):
            break
    good = {"satisfied": True,
            "assignment": {str(v): b for v, b in model.items()}}
    assert checks.check_solve({"dimacs": dimacs}, good) is None
    broken = dict(model)
    for lit in clauses[0]:      # make every literal of clause 0 false
        broken[abs(lit)] = lit < 0
    bad = {"satisfied": True,
           "assignment": {str(v): b for v, b in broken.items()}}
    assert checks.check_solve({"dimacs": dimacs}, bad) is not None
    assert checks.check_solve({"dimacs": dimacs},
                              {"satisfied": False}) is not None


def test_factors_must_multiply_to_n():
    assert checks.check_factor(21, {"factors": [3, 7]}) is None
    assert checks.check_factor(21, {"factors": [3, 5]}) is not None
    assert checks.check_factor(21, {"factors": [1, 21]}) is not None
    assert checks.check_factor(21, {"factors": None}) is not None


def test_distance_must_equal_scalar_measure():
    unit = OscillatorDistanceUnit()
    pairs = [[10.0, 200.0], [30.0, 31.0]]
    right = {"measures": [unit.measure(a, b) for a, b in pairs]}
    assert checks.check_distance(pairs, right, unit, [0, 1]) is None
    wrong = {"measures": [right["measures"][0], right["measures"][1] + 1e-9]}
    assert checks.check_distance(pairs, wrong, unit, [0, 1]) is not None
    assert checks.check_distance(pairs, {"measures": [0.0]}) is not None


def test_detect_corners_must_match_and_lie_inside():
    image = [[0.0] * 4 for _ in range(4)]
    assert checks.check_detect(image, {"corners": [[1, 1]], "count": 1},
                               [[1, 1]]) is None
    assert checks.check_detect(image, {"corners": [[9, 1]],
                                       "count": 1}) is not None
    assert checks.check_detect(image, {"corners": [[1, 1]], "count": 1},
                               [[2, 2]]) is not None


def test_paper_batch_wrong_answers_fail():
    ghz = {"kind": "ghz", "params": {"qubits": 3, "shots": 10}}
    assert checks.check_job(ghz, {"counts": {"0": 4, "7": 6}}) is None
    assert checks.check_job(ghz, {"counts": {"0": 4, "5": 6}}) is not None
    assert checks.check_job(ghz, {"counts": {"0": 4, "7": 5}}) is not None
    lock = {"kind": "locking", "params": {"delta": 0.02,
                                          "expect_locked": True}}
    assert checks.check_job(lock, {"locked": True}) is None
    assert checks.check_job(lock, {"locked": False}) is not None
    vmm = {"kind": "vmm", "params": {}}
    assert checks.check_job(vmm, {"rel_error": 1e-15}) is None
    assert checks.check_job(vmm, {"rel_error": 1e-3}) is not None
    shor = {"kind": "shor", "params": {"n": 21}}
    assert checks.check_job(shor, {"factors": [3, 7]}) is None
    assert checks.check_job(shor, {"factors": [3, 9]}) is not None
    ens = {"kind": "ensemble", "params": {"batch": 2}}
    assert checks.check_job(ens, {"solve_steps": [25.0, 50.0],
                                  "max_steps": 100}) is None
    assert checks.check_job(ens, {"solve_steps": [25.0, float("inf")],
                                  "max_steps": 100}) is not None
