import collections

from e2ebench import workloads


def test_same_seed_same_poisson_schedule():
    a = workloads.poisson_schedule(5, 100.0, 500)
    assert a == workloads.poisson_schedule(5, 100.0, 500)
    assert a != workloads.poisson_schedule(6, 100.0, 500)
    assert all(x < y for x, y in zip(a, a[1:]))


def test_same_seed_same_lists():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3, 2) == workloads.build(name, 3, 2)
    assert workloads.build("serve-unique", 3, 2) != \
        workloads.build("serve-unique", 4, 2)


def test_serve_unique_requests_are_distinct_and_windows_mixed_exactly():
    records = workloads.build("serve-unique", 1, 4)
    requests = [r for r in records if r["phase"] in ("warmup", "open",
                                                       "closed")]
    keys = {repr((r["kind"], r["params"])) for r in requests}
    assert len(keys) == len(requests)
    mix = workloads.SERVE_UNIQUE["mix"]
    opened = [r for r in records if r["phase"] == "open"]
    for window in workloads.split(opened):
        counts = collections.Counter(r["kind"] for r in window)
        for kind, share in mix.items():
            assert abs(counts[kind] - share * len(window)) < 1


def test_every_serve_repeat_segment_requests_the_same_entries():
    # 0.4 * 200 req/s * SEGMENTS seconds: 80 closed requests a segment.
    records = workloads.build("serve-repeat", 1, workloads.SEGMENTS)
    closed = [r["ref"] for r in records if r["phase"] == "closed"]
    segments = [sorted(part) for part in workloads.split(closed)]
    assert all(part == segments[0] for part in segments)


def test_serve_repeat_layout_does_not_depend_on_the_seed():
    def layout(seed):
        records = workloads.build("serve-repeat", seed, 2)
        return [(r["kind"], len(str(r["params"])) // 1000)
                for r in records if r["phase"] == "catalog"
                and r["kind"] != "solve"]

    assert [k for k, _ in layout(1)] == [k for k, _ in layout(2)]


def test_jsonl_round_trip(tmp_path):
    records = workloads.build("paper-batch", 2, 9)
    path = tmp_path / "jobs.jsonl"
    workloads.write_jsonl(records, path)
    assert workloads.read_jsonl(path) == records
