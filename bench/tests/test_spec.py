import json
import re

from bench import ROOT
from bench.spec import (DRIVER_END_TO_END, END_TO_END, PER_LAYER, RUN_SECONDS,
                        WORKLOADS)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_are_well_formed_and_unique():
    names = [m.name for m in END_TO_END + PER_LAYER]
    names += [w.name for w in WORKLOADS]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m.unit) for m in END_TO_END + PER_LAYER)
    assert all(m.better in ("lower", "higher")
               for m in END_TO_END + PER_LAYER)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)


def test_benchmark_json_repeats_the_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"]
    assert doc["paths"] == ["bench"] and doc["run_seconds"] == RUN_SECONDS
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in WORKLOADS]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in DRIVER_END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    # the driver's limits
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert "setup_s" in {m["name"] for m in doc["end_to_end"]}
    # fail_share is 0 on a healthy run, so the driver reads it from
    # failed/attempted instead; every other end-to-end metric is gated
    assert ({m.name for m in END_TO_END}
            - {m.name for m in DRIVER_END_TO_END}) == {"fail_share"}
