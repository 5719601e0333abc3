from e2ebench import run


def _result(lag=1.0, coalesced=0, hits=0, requests=100):
    return {"extra": {"loadgen_lag_p99_ms": lag,
                      "stats": {"requests": requests,
                                "coalesced": coalesced,
                                "cache_hits": hits}}}


def test_valid_runs_pass():
    assert run.validity("serve-unique", _result()) is None
    assert run.validity("serve-repeat", _result(hits=100)) is None
    assert run.validity("paper-batch", {"extra": {}}) is None


def test_client_lag_makes_a_run_invalid():
    assert "behind schedule" in run.validity(
        "serve-unique", _result(lag=run.MAX_LAG_P99_MS + 1))


def test_serve_unique_reuse_makes_a_run_invalid():
    assert "reused work" in run.validity("serve-unique",
                                         _result(coalesced=1))
    assert "reused work" in run.validity("serve-unique", _result(hits=1))


def test_serve_repeat_hit_share_off_design_makes_a_run_invalid():
    assert "hit share" in run.validity("serve-repeat",
                                       _result(hits=90, coalesced=5))
