import json

import pytest

from e2ebench import layers, provenance
from e2ebench.tracer import LAYERS


def _span(sid, name, trace, start, end, parent=None, pid=1):
    layer = "loadgen" if name == "client.request" else LAYERS[name]
    return layers.Span(sid, parent, name, layer, trace, start, end, 0,
                       None, pid)


def test_self_time_by_trace_join_and_chunk_reattribution():
    spans = [
        _span("c", "client.request", "t1", 0.0, 10.0, pid=0),
        _span("r", "serve.app.route", "t1", 1.0, 9.0),
        _span("s", "serve.service.submit", "t1", 1.5, 2.5),
        _span("k", "oscillators.locking", "t1", 3.0, 8.0),
        _span("m", "parallel.map", "t1", 3.5, 7.5, parent="k"),
        _span("w1", "parallel.chunk", "t1", 4.0, 6.0, pid="pool"),
        _span("w2", "parallel.chunk", "t1", 5.0, 7.0, pid="pool"),
    ]
    by_id = layers.build_tree(spans)
    assert by_id["r"].parent == "c"
    assert by_id["s"].parent == "r" and by_id["k"].parent == "r"
    assert by_id["w1"].parent == "m"
    assert by_id["c"].self_s == pytest.approx(2.0)
    assert by_id["r"].self_s == pytest.approx(8.0 - 1.0 - 5.0)
    assert by_id["k"].self_s == pytest.approx(1.0)
    assert by_id["m"].self_s == pytest.approx(1.0)
    # Worker chunks count as the kernel's own work, not the engine's.
    assert by_id["w1"].layer == "oscillators.locking"
    metrics = layers.kernel_metrics(
        [s for s in spans if s.name != "client.request"], by_id, 10.0)
    assert metrics["parallel.fanout_frac"] == 1.0
    assert metrics["parallel.dispatch_frac"] == pytest.approx(1.0 / 4.0)


def test_chrome_trace_carries_trace_ids(tmp_path):
    spans = [_span("a", "serve.app.route", "t9", 0.0, 0.001)]
    layers.build_tree(spans)
    path = tmp_path / "trace.json"
    assert layers.write_chrome_trace(spans, path) == 1
    event = json.loads(path.read_text())["traceEvents"][0]
    assert event["args"]["trace_id"] == "t9" and event["ph"] == "X"


def test_cross_host_comparison_is_flagged():
    a = {"host": "a", "cpu_model": "x", "nproc": 2}
    assert provenance.compare_warning(a, dict(a)) is None
    assert "DIFFERENT HOSTS" in provenance.compare_warning(
        a, dict(a, nproc=4))
