"""Grid experiments, reproducible artifacts, and the command-line interface.

An ExperimentSpec names a tester, a target, and an (n, eps) grid; the harness
runs every trial on its own deterministic stream, writes a CSV of rows and a
JSON summary, and can fit a log-log query-scaling slope across n.  The same
machinery backs the `hypercube-tester` console command, driven here through
its `main` entry point.

Run:  python3 demos/06_experiments_and_cli.py
"""

import json
import tempfile
from pathlib import Path

from hypercube_tester import (
    ExperimentSpec,
    csv_body_without_wall_time,
    run_experiment,
    scaling_report,
)
from hypercube_tester.cli import main

workdir = Path(tempfile.mkdtemp(prefix="hypercube_demo_"))

# -- a small grid experiment --------------------------------------------------
spec = ExperimentSpec(
    tester="meantest",
    distribution="planted_product:0.25",
    n=[16, 32],
    eps=[0.5, 0.25],
    trials=5,
    seed=1234,
    out_csv=str(workdir / "rows.csv"),
    out_json=str(workdir / "summary.json"),
)
result = run_experiment(spec)
print("== per-cell summary ==")
for cell in result["summary"]["cells"]:
    print(f"  n={cell['n']:3d} eps={cell['eps']:4.2f}: "
          f"accept {cell['accepts']}/{cell['trials']}, "
          f"mean queries {cell['mean_queries']:.0f}")
print(f"total queries: {result['summary']['total_queries']}")
print(f"first CSV rows:\n" + "\n".join(result["csv"].splitlines()[:3]))

# -- determinism ---------------------------------------------------------------
again = run_experiment(spec)
same = csv_body_without_wall_time(result["csv"]) == csv_body_without_wall_time(again["csv"])
print(f"\nrerun with the same seed is byte-identical (wall time aside): {same}")

# -- query scaling ---------------------------------------------------------------
scale_spec = ExperimentSpec(
    tester="meantest",
    distribution="uniform",
    n=[16, 32, 64, 128],
    eps=[0.5],
    trials=3,
    seed=99,
)
cells = run_experiment(scale_spec)["summary"]["cells"]
report = scaling_report(cells)
print("\n== query scaling of the mean tester on uniform ==")
print(f"  mean queries by n: {dict(zip(report['n_values'], report['mean_queries']))}")
print(f"  fitted log-log slope {report['slope']:.2f}"
      f" vs reference {report['reference_slope']}")

# -- the console interface --------------------------------------------------------
print("\n== the same flows via the CLI ==")
entry = workdir / "target.json"
rc = main(["zoo", "emit", "--kind", "noisy_parity:2:0.1", "--n", "12",
           "--out", str(entry)])
print(f"zoo emit exit code {rc}; entry: {entry.read_text().strip()}")

csv_path = workdir / "mean.csv"
rc = main(["meantest", "--dist", str(entry), "--eps", "0.5", "--n", "12",
           "--q", "200", "--k0", "1", "--trials", "3", "--seed", "7",
           "--out", str(csv_path)])
print(f"meantest exit code {rc}; rows:\n{csv_path.read_text().strip()}")

report_path = workdir / "lab.json"
rc = main(["theorylab", "--check", "blowupfact", "--n", "3", "--cases", "25",
           "--seed", "1", "--report", str(report_path)])
doc = json.loads(report_path.read_text())
print(f"theorylab exit code {rc}: check={doc['check']} ok={doc['ok']}"
      f" failures={doc['failures']}")

spec_path = workdir / "spec.json"
spec_path.write_text(json.dumps({
    "tester": "subconduni",
    "distribution": "two_point",
    "n": [32],
    "eps": [0.5],
    "trials": 2,
    "seed": 5,
}))
rc = main(["run", "--spec", str(spec_path)])
print(f"run exit code {rc}")
print(f"\nartifacts under {workdir}")
