"""The benchmark under perfbench/ reaches into relgen by name: its tracer
patches the functions listed in FUNCTIONS and splits nn.forward/backward by
activation, and BENCHMARK.json names the workloads. A rename in relgen then
fails here rather than in a traced benchmark run. The perfbench files are
loaded by path and only read."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_function_resolves():
    tracer = _load("tracer")
    missing = []
    for span, (module, attr) in tracer.FUNCTIONS.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):  # "Class.method" entries patch the class
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{span} -> {module}.{attr}")
    assert missing == []


def test_network_functions_and_roles_exist():
    tracer = _load("tracer")
    nn = importlib.import_module("relgen.nn")
    for fn in tracer.NETWORK_FUNCTIONS:
        assert callable(getattr(nn, fn, None)), f"relgen.nn.{fn}"
    assert set(tracer.NETWORK_ROLES) <= set(nn.ACTIVATIONS)


def test_workload_names_match_the_benchmark():
    workloads = _load("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}
