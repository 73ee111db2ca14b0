"""Every metric a run can print is declared in BENCHMARK.json."""

import json
import re
from pathlib import Path

import tracing
import workloads

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match():
    import run
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_end_to_end_names_and_units_are_declared():
    declared = _declared("end_to_end")
    for name, unit in workloads.E2E.items():
        assert NAME.fullmatch(name), name
        assert declared.get(name) == unit, name
    assert set(workloads.E2E) == set(declared)


def test_per_layer_names_and_units_are_declared():
    declared = _declared("per_layer")
    printed = tracing.per_layer_names()
    for name, unit in printed.items():
        assert NAME.fullmatch(name), name
        assert declared.get(name) == unit, name
    assert set(printed) == set(declared)
