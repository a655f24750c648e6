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


def test_the_tracer_sees_planned_passes_by_role():
    """The network spans read the role from args[0].layers[0].act; training runs
    through planned passes (nn.Pass), and each role's calls still count."""
    tracer = _load("tracer")
    from relgen.data import gen_dg15
    from relgen.model import TrainConfig, build_erm, build_model, train

    ds = gen_dg15(0, n_per_class=6)
    cfg = TrainConfig(lr=1e-3, epochs=1)
    probe = tracer.Tracer()
    probe.install()
    try:
        train(build_erm(ds, cfg), ds, cfg)
        train(build_model(ds, cfg), ds, cfg)
    finally:
        probe.uninstall()
    spans = [probe.names[i] for i in probe.arrays()["name"]]
    for fn in tracer.NETWORK_FUNCTIONS:
        for role in tracer.NETWORK_ROLES.values():
            assert spans.count(f"nn.{fn}.{role}") > 0, f"nn.{fn}.{role}"
