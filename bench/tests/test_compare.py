from bench.report import spread_sample, verdict
from bench.spec import END_TO_END

METRIC = {m.name: m for m in END_TO_END}


def _side(p50=2.0, windows=(1.98, 2.0, 2.01, 2.02, 1.99), calib=8.0,
          fail_share=0.0, rps=500.0, valid=True):
    return {"end_to_end": {"p50_ms": p50, "rps": rps,
                           "fail_share": fail_share, "setup_s": 0.7},
            "windows": {"p50_ms": list(windows), "rps": [rps] * 5},
            "setup_samples": [0.69, 0.7, 0.71], "valid": valid,
            "per_layer": {"client.calib_us": calib}}


def test_verdicts():
    p50 = METRIC["p50_ms"]
    assert verdict(p50, _side(), _side(p50=2.4))[0] == "ok"
    assert verdict(p50, _side(), _side(p50=2.6))[0] == "regressed"
    assert verdict(p50, _side(), _side(p50=1.5))[0] == "ok"
    # a spread wider than the bound resolves nothing, either way
    noisy = (1.4, 2.0, 2.8, 1.5, 2.6)
    assert verdict(p50, _side(), _side(p50=2.6, windows=noisy))[0] \
        == "unresolved"
    # nor does a machine whose speed canary moved by more than 10 %
    assert verdict(p50, _side(), _side(calib=9.0))[0] == "unresolved"
    assert verdict(p50, _side(), _side(valid=False))[0] == "unresolved"
    # ... which cannot excuse a failure: that is not a matter of speed
    assert verdict(METRIC["fail_share"], _side(),
                   _side(calib=9.0, fail_share=0.002))[0] == "regressed"
    rps = METRIC["rps"]
    assert verdict(rps, _side(), _side(rps=440.0))[0] == "ok"
    assert verdict(rps, _side(), _side(rps=370.0))[0] == "regressed"
    assert verdict(rps, _side(), _side(rps=600.0))[0] == "ok"
    fails = METRIC["fail_share"]
    assert verdict(fails, _side(), _side(fail_share=0.0005))[0] == "ok"
    assert verdict(fails, _side(), _side(fail_share=0.002))[0] \
        == "regressed"
    assert verdict(METRIC["setup_s"], _side(), _side())[0] == "ok"


def test_the_recorded_spread_is_read_off_five_blocks_of_windows():
    # fifteen 1 s windows that alternate wildly but whose 3 s blocks agree
    windows = [1.0, 2.0, 3.0] * 5
    assert spread_sample(METRIC["p50_ms"], _side(windows=windows)) \
        == [2.0] * 5
    assert verdict(METRIC["p50_ms"], _side(windows=windows),
                   _side(windows=windows))[0] == "ok"
    assert spread_sample(METRIC["setup_s"], _side()) == [0.69, 0.7, 0.71]
