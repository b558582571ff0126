"""BENCHMARK.json: its schema, and that it names what the bench measures."""

import json
import re
from pathlib import Path

from bench import metrics, workloads

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_and_command():
    assert set(DOC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DOC["command"] == ["python3", "bench/run.py"]
    assert DOC["paths"] == ["bench", "tests/bench"]
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60


def test_workloads_match_the_runner():
    names = [w["name"] for w in DOC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for entry in DOC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metrics_match_the_code_and_obey_the_limits():
    e2e = [(m["name"], m["unit"], m["better"]) for m in DOC["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in DOC["per_layer"]]
    assert e2e == list(metrics.END_TO_END)
    assert layer == list(metrics.PER_LAYER)
    names = [name for name, _, _ in e2e + layer] + [w["name"] for w in DOC["workloads"]]
    assert len(names) == len(set(names))
    for name, unit, better in e2e + layer:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")
    for entry in DOC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in DOC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
