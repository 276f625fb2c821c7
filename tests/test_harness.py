"""Experiment harness and command-line interface: spec validation, grid runs,
deterministic reruns, CSV/JSON artifacts, scaling diagnostics, exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest

from hypercube_tester.cli import main
from hypercube_tester.harness import (
    CSV_HEADER,
    ExperimentSpec,
    csv_body_without_wall_time,
    resolve_gaussian_source,
    resolve_target,
    run_experiment,
    run_trial,
    scaling_report,
)
from hypercube_tester.meantest import gaussian_required_samples
from hypercube_tester.model import (
    ProductDistribution,
    load_distribution,
    save_distribution,
)
from hypercube_tester.oracle import ScondOracle
from hypercube_tester.rng import stream
from hypercube_tester.uniformity import PRESETS, edge_tester
from hypercube_tester.zoo import TwoPointDistribution, parse_spec_string, save_entry

# ---------------------------------------------------------------------------
# spec validation


def _spec(**overrides):
    doc = {
        "tester": "meantest",
        "distribution": "uniform",
        "n": [4],
        "eps": [1.0],
        "trials": 2,
        "seed": 7,
    }
    doc.update(overrides)
    return ExperimentSpec.from_dict(doc)


def test_spec_roundtrip():
    spec = _spec(out_csv="a.csv", out_json="b.json")
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec


def test_spec_rejects_bad_fields():
    for overrides in (
        {"tester": "nosuch"},
        {"preset": "fast"},
        {"n": []},
        {"eps": []},
        {"n": [0]},
        {"eps": [0.0]},
        {"eps": [1.5]},
        {"trials": 0},
        {"seed": -1},
        {"seed": 1 << 64},
        # a fractional integer setting is an error, not truncated
        {"n": [16.5]},
        {"trials": 2.5},
        {"seed": 7.9},
    ):
        with pytest.raises(ValueError):
            _spec(**overrides)
    # integral floats, as a JSON file may hold them, still count as integers
    spec = _spec(n=[16.0], trials=2.0, seed=7.0)
    assert (spec.n, spec.trials, spec.seed) == ([16], 2, 7)
    assert all(type(v) is int for v in (spec.n[0], spec.trials, spec.seed))


@pytest.mark.parametrize("name, value", [("n", 64), ("n", "64"), ("eps", "0.5"), ("eps", "1")])
def test_spec_refuses_a_grid_that_is_not_a_list(tmp_path, capsys, name, value):
    # a number cannot be iterated, and a string would iterate its characters
    with pytest.raises(ValueError, match=f"^{name} must be a list"):
        _spec(**{name: value})
    spec = tmp_path / "spec.json"
    doc = {"tester": "meantest", "distribution": "uniform", "n": [4], "eps": [1.0], name: value}
    spec.write_text(json.dumps(doc))
    assert main(["run", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == f"error: {name} must be a list, got {value!r}\n"


def test_spec_rejects_unknown_and_missing_fields():
    with pytest.raises(ValueError, match="unknown"):
        ExperimentSpec.from_dict(
            {"tester": "meantest", "distribution": "uniform", "n": [4], "eps": [1.0], "bogus": 1}
        )
    with pytest.raises(ValueError, match="missing"):
        ExperimentSpec.from_dict({"tester": "meantest", "distribution": "uniform"})


def test_spec_from_json_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec().to_dict()))
    spec = ExperimentSpec.from_json_file(str(path))
    assert spec.n == [4] and spec.eps == [1.0] and spec.seed == 7


# ---------------------------------------------------------------------------
# target resolution


def test_resolve_target_shorthand():
    target = resolve_target("two_point", 5)
    assert isinstance(target, TwoPointDistribution)
    assert target.n == 5


def test_resolve_target_zoo_entry_file(tmp_path):
    path = tmp_path / "entry.json"
    save_entry(parse_spec_string("planted_product:0.25"), str(path))
    target = resolve_target(str(path), 6)
    assert isinstance(target, ProductDistribution)
    assert np.allclose(target.mu, 0.25)


def test_resolve_target_explicit_distribution_file(tmp_path):
    path = tmp_path / "dist.json"
    save_distribution(ProductDistribution(np.full(3, -0.5)), str(path))
    target = resolve_target(str(path), 3)
    assert np.allclose(target.mu, -0.5)
    with pytest.raises(ValueError, match="n=3"):
        resolve_target(str(path), 4)


def test_resolve_target_bad_shorthand():
    with pytest.raises(ValueError):
        resolve_target("definitely_not_a_kind", 4)
    with pytest.raises(ValueError, match="finite"):
        resolve_target("planted_product:nan", 4)


def test_resolve_gaussian_source():
    std = resolve_gaussian_source("standard", 8)
    assert std.n == 8 and np.allclose(std.mu, 0.0)
    shifted = resolve_gaussian_source("shift:2.0", 4)
    assert np.linalg.norm(shifted.mu) == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(shifted.mu, 1.0)
    for bad in ("standard:1", "shift", "shift:1:2", "normal"):
        with pytest.raises(ValueError):
            resolve_gaussian_source(bad, 4)


# ---------------------------------------------------------------------------
# single trials


def test_resolve_gaussian_source_refuses_an_empty_cube():
    # shift:1 at n = 0 once raised ZeroDivisionError building its means
    for spec in ("shift:1", "standard"):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"n must be at least 1, got n={n}"):
                resolve_gaussian_source(spec, n)


def test_run_trial_meantest_row_fields():
    row = run_trial(_spec(), 0, 4, 1.0, 0)
    assert set(row) == {
        "n", "eps", "trial", "decision", "queries",
        "wall_time_s", "z_levels", "tau_levels",
    }
    assert row["decision"] in ("accept", "reject", "error")
    assert row["queries"] > 0
    # level lists are semicolon-joined floats
    for part in row["z_levels"].split(";"):
        float(part)


def test_run_trial_gaussian_counts_samples():
    spec = _spec(tester="gaussian", distribution="standard", n=[4], eps=[1.0])
    row = run_trial(spec, 0, 4, 1.0, 0)
    # the sample budget, which the verdict reports as its queries
    assert row["queries"] == gaussian_required_samples(4, 1.0) >= 144
    assert row["decision"] == "accept"


@pytest.mark.parametrize("dist", ["uniform", "noisy_parity:2:0.3"])
def test_run_experiment_edge_rows_are_edge_tester_verdicts(dist):
    # tester "edge" runs the preset's edge tester on each trial's stream
    spec = _spec(tester="edge", distribution=dist, n=[16], eps=[0.5], trials=3)
    rows = run_experiment(spec)["rows"]
    target = resolve_target(dist, 16)
    want = []
    for t in range(3):
        v = edge_tester(ScondOracle(target, stream(7, 0, t)), 0.5, PRESETS["practical"].edge)
        want.append((16, 0.5, t, v.decision.value, v.queries_used, "", ""))
    keys = ("n", "eps", "trial", "decision", "queries", "z_levels", "tau_levels")
    assert [tuple(row[k] for k in keys) for row in rows] == want
    assert {row["decision"] for row in rows} == {"accept" if dist == "uniform" else "reject"}


def test_run_trial_is_deterministic():
    spec = _spec()
    a = run_trial(spec, 0, 4, 1.0, 1)
    b = run_trial(spec, 0, 4, 1.0, 1)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


# ---------------------------------------------------------------------------
# grid runs


def test_run_experiment_shapes_and_summary():
    spec = _spec(n=[4, 6], eps=[1.0, 0.5], trials=3)
    result = run_experiment(spec)
    rows = result["rows"]
    assert len(rows) == 4 * 3
    lines = result["csv"].splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    assert all(len(line.split(",")) == 8 for line in lines)

    summary = result["summary"]
    assert summary["tester"] == "meantest"
    assert summary["seed"] == 7
    assert summary["trials_per_cell"] == 3
    assert len(summary["cells"]) == 4
    assert summary["total_queries"] == sum(r["queries"] for r in rows)
    for cell in summary["cells"]:
        assert cell["accepts"] + cell["rejects"] + cell["errors"] == cell["trials"]
        assert cell["accept_rate"] == cell["accepts"] / cell["trials"]
        assert cell["total_queries"] > 0
    # cells are ordered n-major, eps-minor
    assert [(c["n"], c["eps"]) for c in summary["cells"]] == [
        (4, 1.0), (4, 0.5), (6, 1.0), (6, 0.5),
    ]


def test_rerun_is_byte_identical_after_wall_time_strip():
    spec = _spec(trials=4)
    first = run_experiment(spec)["csv"]
    second = run_experiment(spec)["csv"]
    assert csv_body_without_wall_time(first) == csv_body_without_wall_time(second)
    # the wall-time column really is removed
    stripped = csv_body_without_wall_time(first).splitlines()
    assert stripped[0] == "n,eps,trial,decision,queries,z_levels,tau_levels"
    assert all(len(line.split(",")) == 7 for line in stripped)


def test_run_ignores_seed_and_thread_environment(monkeypatch):
    # a grid's result depends on its spec alone
    spec = _spec(trials=3)
    base = run_experiment(spec)
    monkeypatch.setenv("HT_SEED", "12345")
    monkeypatch.setenv("HT_THREADS", "1")
    other = run_experiment(spec)
    assert other["summary"]["seed"] == spec.seed
    assert csv_body_without_wall_time(other["csv"]) == csv_body_without_wall_time(
        base["csv"]
    )


def test_run_experiment_writes_artifacts(tmp_path):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "summary.json"
    spec = _spec(out_csv=str(csv_path), out_json=str(json_path))
    result = run_experiment(spec)
    assert csv_path.read_text() == result["csv"]
    assert json.loads(json_path.read_text()) == result["summary"]


# ---------------------------------------------------------------------------
# scaling diagnostic


def test_scaling_report_exact_power_laws():
    for exponent in (0.5, 2.0):
        cells = [
            {"n": n, "mean_queries": 10.0 * n**exponent} for n in (8, 16, 32, 64)
        ]
        rep = scaling_report(cells)
        assert rep["slope"] == pytest.approx(exponent, abs=1e-9)
        assert rep["slope_minus_reference"] == pytest.approx(
            exponent - 0.5, abs=1e-9
        )
        assert rep["n_values"] == [8, 16, 32, 64]
    # intercept recovers the constant
    assert math.exp(rep["intercept"]) == pytest.approx(10.0, rel=1e-9)


def test_scaling_report_averages_repeated_n():
    cells = [
        {"n": 8, "mean_queries": 90.0},
        {"n": 8, "mean_queries": 110.0},
        {"n": 16, "mean_queries": 200.0},
        {"n": 32, "mean_queries": 400.0},
    ]
    rep = scaling_report(cells)
    assert rep["mean_queries"][0] == pytest.approx(100.0)
    assert rep["slope"] == pytest.approx(1.0, abs=1e-9)


def test_scaling_report_needs_three_points():
    cells = [{"n": 8, "mean_queries": 1.0}, {"n": 16, "mean_queries": 2.0}]
    with pytest.raises(ValueError, match="three distinct"):
        scaling_report(cells)


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_usage_errors():
    assert main([]) == 1
    assert main(["nosuchcommand"]) == 1
    assert main(["zoo"]) == 1
    assert main(["run"]) == 1  # missing required --spec
    assert main(["meantest", "--dist", "uniform"]) == 1  # missing --eps/--n


def test_cli_run_has_no_workers_option(tmp_path):
    # a valid spec: the option itself is the usage error
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec().to_dict()))
    assert main(["run", "--spec", str(spec), "--workers", "2"]) == 1


def test_cli_runtime_errors(tmp_path, capsys):
    assert main(["run", "--spec", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tester": "meantest", "distribution": "uniform"}))
    assert main(["run", "--spec", str(bad)]) == 2
    assert main(
        ["zoo", "emit", "--kind", "nosuch", "--n", "4", "--out", str(tmp_path / "z.json")]
    ) == 2
    # the direct commands validate their flags as an ExperimentSpec does
    for command in ("meantest", "subconduni"):
        base = [command, "--dist", "uniform", "--eps", "0.5"]
        assert main(base + ["--n", "4", "--trials", "0"]) == 2
        assert main(base + ["--n", "0"]) == 2
    # a bad --q or --k0 is a parameter error, not an arithmetic failure inside
    # the sample rule
    base = ["meantest", "--dist", "uniform", "--eps", "0.5", "--n", "4"]
    for flags, word in ((["--k0", "-1"], "k0"), (["--q", "0"], "q")):
        capsys.readouterr()
        assert main(base + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {word} must be")


def test_cli_zoo_list(capsys):
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    for kind in ("uniform", "two_point", "planted_product", "noisy_parity"):
        assert kind in out


def test_cli_zoo_emit_and_use(tmp_path):
    entry_path = tmp_path / "entry.json"
    assert (
        main(["zoo", "emit", "--kind", "heavy_atom:0.3", "--n", "4", "--out", str(entry_path)])
        == 0
    )
    doc = json.loads(entry_path.read_text())
    assert doc["kind"] == "heavy_atom"
    target = resolve_target(str(entry_path), 5)
    assert target.n == 5


def test_cli_run_end_to_end(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "summary.json"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "tester": "meantest",
                "distribution": "uniform",
                "n": [4],
                "eps": [1.0],
                "trials": 2,
                "seed": 3,
                "out_csv": str(csv_path),
                "out_json": str(json_path),
            }
        )
    )
    assert main(["run", "--spec", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "n=4 eps=1:" in out
    assert csv_path.read_text().splitlines()[0] == CSV_HEADER
    summary = json.loads(json_path.read_text())
    assert summary["cells"][0]["trials"] == 2


def test_cli_meantest_csv(tmp_path):
    out = tmp_path / "mean.csv"
    rc = main(
        [
            "meantest", "--dist", "uniform", "--eps", "1.0", "--n", "6",
            "--q", "50", "--k0", "1", "--trials", "3", "--seed", "11",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,decision,queries,z_levels,tau_levels"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        assert parts[0] == str(i)
        assert parts[1] in ("accept", "reject")
        assert int(parts[2]) == 100  # 2q oracle draws per trial


def test_cli_meantest_auto_tokens(tmp_path):
    out = tmp_path / "mean.csv"
    rc = main(
        [
            "meantest", "--dist", "uniform", "--eps", "1.0", "--n", "4",
            "--q", "auto", "--k0", "auto", "--out", str(out),
        ]
    )
    assert rc == 0


def test_cli_meantest_rows_match_run_experiment(tmp_path):
    out = tmp_path / "mean.csv"
    rc = main(
        [
            "meantest", "--dist", "planted_product:0.25", "--eps", "0.5", "--n", "8",
            "--trials", "3", "--seed", "13", "--out", str(out),
        ]
    )
    assert rc == 0
    spec = _spec(distribution="planted_product:0.25", n=[8], eps=[0.5], trials=3, seed=13)
    expected = [
        ",".join([str(r["trial"]), r["decision"], str(r["queries"]), r["z_levels"], r["tau_levels"]])
        for r in run_experiment(spec)["rows"]
    ]
    assert out.read_text().splitlines()[1:] == expected


def test_cli_subconduni_with_trace(tmp_path):
    out = tmp_path / "sub.csv"
    trace = tmp_path / "trace.json"
    rc = main(
        [
            "subconduni", "--dist", "uniform", "--eps", "0.5", "--n", "8",
            "--trials", "2", "--seed", "5", "--out", str(out),
            "--trace", str(trace),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,decision,queries"
    assert len(lines) == 3
    trees = json.loads(trace.read_text())
    assert len(trees) == 2
    assert trees[0]["n"] == 8
    assert trees[0]["verdict"] in ("accept", "reject", "error")


def test_cli_theorylab_ok_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(
        [
            "theorylab", "--check", "khintchine", "--n", "4", "--cases", "20",
            "--seed", "2", "--report", str(report),
        ]
    )
    assert rc == 0
    assert "theorylab khintchine: ok" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["ok"] is True and doc["failures"] == 0 and doc["cases"] == 20


def test_cli_theorylab_counterexample_exit_code(monkeypatch):
    import hypercube_tester.cli as cli

    monkeypatch.setitem(
        cli._CHECKS, "alwaysfail", (lambda n, cases, rng: (False, 3, cases, {}), 1)
    )
    assert main(["theorylab", "--check", "alwaysfail", "--cases", "10"]) == 2


def test_cli_theorylab_pisier_monte_carlo(capsys):
    # n > 10 leaves the exact branch; the check must hand over its stream
    rc = main(["theorylab", "--check", "pisier", "--n", "11", "--cases", "1"])
    assert rc == 0
    assert "theorylab pisier: ok" in capsys.readouterr().out


def test_cli_theorylab_chain_small(capsys):
    rc = main(["theorylab", "--check", "chain", "--n", "3", "--cases", "12"])
    assert rc == 0
    assert "chain: ok" in capsys.readouterr().out


def test_cli_theorylab_refuses_no_cases(tmp_path, capsys):
    # a check that ran on no case must not report ok: --cases < 1 is a usage
    # error for every check, raised before the check runs
    import hypercube_tester.cli as cli

    for check in sorted(cli._CHECKS):
        for cases in ("0", "-3"):
            report = tmp_path / f"{check}{cases}.json"
            rc = main(["theorylab", "--check", check, "--n", "3", "--cases", cases,
                       "--report", str(report)])
            assert rc == 1
            out = capsys.readouterr()
            assert out.out == "" and "--cases must be at least 1" in out.err
            assert not report.exists()


def test_cli_theorylab_refuses_a_cube_below_each_checks_minimum(tmp_path, capsys):
    # at --n 0 five checks printed ok on a 0-dimensional cube, and graphmean,
    # contributing and greedy crashed at n = 0 or 1: an n below a check's
    # minimum is a usage error, raised before the check runs
    import hypercube_tester.cli as cli

    for check, (_, min_n) in sorted(cli._CHECKS.items()):
        assert min_n == (2 if check in ("graphmean", "contributing") else 1)
        report = tmp_path / f"{check}.json"
        rc = main(["theorylab", "--check", check, "--n", str(min_n - 1), "--cases", "1",
                   "--report", str(report)])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == "" and f"--n must be at least {min_n}" in out.err
        assert not report.exists()
        rc = main(["theorylab", "--check", check, "--n", str(min_n), "--cases", "1"])
        assert rc == 0
        assert capsys.readouterr().out.startswith(f"theorylab {check}: ok")


# (non-vacuous cases, sha256 of the --report JSON) of every theorylab check at
# (n, cases, seed); each run prints one ok line and exits 0
THEORYLAB_PINS = {
    (3, 5, 0): {
        "blowupfact": (5, "a5bdd0f523dc73dc93f00220f7306a6bae400ea9edc2591cae9a69de9efe8015"),
        "chain": (5, "f3e14b9d616ebaca560ab118892d2892e2d68c7b6799522f60e84bba64190af7"),
        "contributing": (17, "1783f88f5c292028e3d48327f20e40c89ca5ca06604b32590b2cfde80a1361e5"),
        "graphmean": (42, "2b1a49cc05aa2d9a6ba2fac914d82393c5952ebe8ac0a2facaefb32a19ac188e"),
        "greedy": (5, "730ce30c0afac576d071a0af1bdfbf2cc6f825a84749d81cab460ca834b1e4da"),
        "khintchine": (5, "fdf87b13be41b9046c4cfcca4848d667fd9c7f9ab3b6d5c86f0183b99ab14aab"),
        "pisier": (5, "6ee0a8b996240e140ac2318f85ee9f3ddff3e27d82bb8daadb598ec6326a8f69"),
        "probe": (5, "74e3bedd78a6e6ead0f0e2badababf1907038dc6b98b6e57ffa156a0aea134ca"),
        "variance": (3, "eca6ce85dbc1cefeb53e525ca0f15bd047904fc4052f5de0b6d1f2c76a384fc7"),
    },
    (4, 3, 7): {
        "blowupfact": (3, "6722b42437d8d160efd81e452ac669e25934e135575cc2c84f02c86e2b0c05bc"),
        "chain": (3, "35e4228b81ea81bea2d9b918923d0332bb5a580c22729794f20101a736a2418c"),
        "contributing": (4, "7a1fd00173a7414e2260a18250af63e6e06725970beae2a6234ac68e68a5b328"),
        "graphmean": (24, "6670bc1afae165d626f2a9fa5dfd621d41547f4ff65eec775eadbe86a5b76d3b"),
        "greedy": (3, "aa74bf4e917de2d9ea0fb080bb09c4a43ce3f04026671e3140f8dc0272b60d1a"),
        "khintchine": (3, "8e7b281d24f4e22f32207ab17a71f9f0d8c96c1d7332fb81083b87b76926de18"),
        "pisier": (3, "dc0de8ae6b7e9089cb86d63309fa8af1b5e9181f40162435ab21b7208fe3bda7"),
        "probe": (3, "0aa334ca89794ad67191d7df5bc17007819aa92350fad64328fb45f4b80edb68"),
        "variance": (3, "8ef9ec5a11eb3cf9c523822ebf04917d0d2c4a594bacac6794d615a274021283"),
    },
    (5, 2, 3): {
        "blowupfact": (2, "ac889c454cf4ee0bedd89c3c90aafdcad12135d84d7aa213f2e0adf527086494"),
        "chain": (2, "fdc8261f9fb447c9ac4e350cfea407210c6733181714613ddaac8e6ba27a0106"),
        "contributing": (5, "b8fbc8e37240cd775cc1415448a06c86074a9b18e70be8153004dc24f199ce8c"),
        "graphmean": (14, "bc340a3ce461cfdf402d568125745a46dd8ca9ad43aa6d93e2cda34a1da30054"),
        "greedy": (2, "5f59ea44d1ef16768de384367d95d70af676c6535d3e93f8fa27edaf99d05dab"),
        "khintchine": (2, "35460782d1ee265ae79e08f216fbda79cd804ea0cb79370ca990b5da2a35b076"),
        "pisier": (2, "bfe6d26697d2a73db5060f4450e75f43fecff725946f8f36c4bad85c76644988"),
        "probe": (2, "626581202c888eee05b2cc09d88d0bb0e0ba3ce06eb31d1fc015bb71fdf06ba8"),
        "variance": (3, "64a3b21dad36d510ef2197aab878a2d5c121e359140ff2890537c122467ca447"),
    },
}


@pytest.mark.parametrize(
    "check, n, cases, seed",
    [(check, *point) for point in THEORYLAB_PINS for check in THEORYLAB_PINS[point]],
)
def test_cli_theorylab_report_pinned(tmp_path, capsys, check, n, cases, seed):
    nonvac, digest = THEORYLAB_PINS[n, cases, seed][check]
    report = tmp_path / "report.json"
    rc = main(["theorylab", "--check", check, "--n", str(n), "--cases", str(cases),
               "--seed", str(seed), "--report", str(report)])
    assert rc == 0
    assert capsys.readouterr().out == (
        f"theorylab {check}: ok (0 failures / {nonvac} non-vacuous cases)\n"
    )
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# input checks


def test_scaling_report_refuses_a_non_positive_mean():
    cells = [{"n": n, "mean_queries": q} for n, q in ((4, 10.0), (8, 0.0), (16, 40.0))]
    with pytest.raises(ValueError, match="positive"):
        scaling_report(cells)


def test_run_names_a_missing_zoo_parameter(tmp_path, capsys):
    entry = tmp_path / "entry.json"
    entry.write_text(json.dumps({"kind": "planted_product"}))
    spec = tmp_path / "spec.json"
    doc = {"tester": "meantest", "distribution": str(entry), "n": [8], "eps": [0.5]}
    spec.write_text(json.dumps(doc))
    assert main(["run", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == "error: zoo kind 'planted_product' needs parameters ['eps']\n"
