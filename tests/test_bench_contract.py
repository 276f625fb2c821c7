"""The benchmark drives the package through names that no other test pins:
config fields, harness lookups, the tester globals it probes, the gaussian
draw's shape and the trace's query sum.  One verdict per cell of every
workload, taken through the benchmark's own runner and ledger probe, keeps
those names working."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench" / "bench.py"


@pytest.fixture()
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_contract_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    # import_package puts src/ at the front of sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    return module


def test_every_bench_workload_gives_clean_verdicts(bench, monkeypatch):
    mods = bench.import_package()
    harness = mods[0]
    # the probe patches these names on harness; re-set them here so that the
    # patches are undone after the test
    for name in bench.LedgerProbe.NAMES:
        monkeypatch.setattr(harness, name, getattr(harness, name))
    probe = bench.LedgerProbe(harness)
    for workload, w in bench.WORKLOADS.items():
        runner = bench.Runner(mods, w, 1, probe)
        for cell in (0, 1):
            _, decision, _, problem = runner.verdict(cell, 0)
            assert problem is None, (workload, cell, problem)
            assert decision in ("accept", "reject"), (workload, cell, decision)


def test_recursion_config_is_rec_cfg(bench):
    # the shrunk recursion config is written twice, as bench.recursion_config
    # and as the package's uniformity.SHRUNK; a drift between the two copies
    # fails here. l_formula is a function, so it is compared through big_l
    uniformity = bench.import_package()[3]
    cfg = bench.recursion_config(uniformity)
    for f in dataclasses.fields(uniformity.SubCondConfig):
        if f.name != "l_formula":
            assert getattr(cfg, f.name) == getattr(uniformity.SHRUNK, f.name), f.name
    for n in range(1, 129):
        for eps in (0.5, 0.25, 0.125):
            assert cfg.big_l(n, eps) == uniformity.SHRUNK.big_l(n, eps), (n, eps)


def _tree_nodes(tree):
    yield tree
    for child in tree["children"]:
        yield from _tree_nodes(child)


def test_tracer_sees_every_mean_test_and_edge_test(bench):
    # the per-layer metrics read meantest.test and uniformity.edge spans: a
    # traced recursion null must open one per mean test and one per base case
    spec = importlib.util.spec_from_file_location(
        "bench_contract_spans", BENCH.parent / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    harness, oracle, rng, uniformity = bench.import_package()
    o = oracle.ScondOracle(harness.resolve_target("uniform", 64), rng.stream(1, 0, 0))
    with spans.Tracer() as tracer:
        v = uniformity.subcond_uni(o, 0.5, bench.recursion_config(uniformity))
    nodes = list(_tree_nodes(v.trace["tree"]))
    mean_runs = sum(s["runs"] for node in nodes for s in node.get("mean_loop", []))
    base_cases = sum(node["branch"] == "base-case" for node in nodes)
    names = [span[0] for span in tracer.spans]
    assert names.count("meantest.test") == mean_runs > 0
    assert names.count("uniformity.edge") == base_cases > 0
