"""Tests of the benchmark itself:  python3 -m pytest perfbench

Tiny in-process runs of each workload must pass their checks, a corrupted
reference energy or control and a trajectory with missing rows, edges or
columns must be counted as failures, the traced run must report
exactly the per-layer metrics BENCHMARK.json lists, and a directory without
the program must make the benchmark exit nonzero without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedScale  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"configs": "interval-q8", "trees": "d2-o1", "simulate": "d4-o1-q16"}


@pytest.fixture(scope="module")
def program():
    run.import_program()


def tiny_case(workload: str, inputs: Path):
    """The small case TINY names, generated with the rest of its workload
    and read back from the case list on disk."""
    run.generate(workload, 7, inputs)
    (case,) = [c for c in workloads.load_cases(inputs) if c.id == TINY[workload]]
    return case


def test_benchmark_json_lists_what_run_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    from tracing import per_layer_names

    assert [m["name"] for m in SPEC["per_layer"]] == per_layer_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])


def test_reference_covers_every_damp_case(program, tmp_path):
    ref = workloads.load_reference()
    for name in ("configs", "trees"):
        cases = workloads.GENERATORS[name](0, ROOT, tmp_path, ref[name])
        assert sorted(c.id for c in cases) == sorted(ref[name])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes(program, workload, tmp_path):
    case = tiny_case(workload, tmp_path / "inputs")
    before = run.max_rss_mib()
    scale = SpeedScale()
    calls, setups, passes = run.measure(
        [case], 0.01, tmp_path / "out", scale,
        setup=lambda: run.set_up(workload, 7, tmp_path / "setup", scale))
    assert passes == 1 and len(setups) == run.SETUPS
    assert calls and all(c["ok"] for c in calls)
    metrics = run.end_to_end(calls, setups, before)
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["setup_s"] > 0
    assert metrics["wall_s"] == metrics["max_case_s"] == metrics["min_case_s"] > 0
    # Earlier tests in this process may already have raised the mark.
    assert metrics["peak_rss_mib"] >= 0


def test_traced_run_reports_every_per_layer_metric(program, tmp_path):
    from tracing import Recorder

    case = tiny_case("trees", tmp_path / "inputs")
    recorder = Recorder()
    calls, _, _ = run.measure([case], 0.01, tmp_path / "out", SpeedScale(), recorder=recorder)
    assert all(c["ok"] for c in calls)
    m = run.per_layer(calls, recorder)
    assert list(m) == [x["name"] for x in SPEC["per_layer"]]
    assert m["cli.main.calls"] == 1 and m["damping.assemble.calls"] == 1
    assert m["expressions.apply_operator.calls"] == m["damping.ndof"] * 3 + 3 + 3 + 3
    assert m["cli.main.busy_s"] >= m["damping.solve_damping.busy_s"] > m["damping.assemble.busy_s"] > 0
    assert m["cauchy.solve_cauchy.calls"] == 0


def test_corrupted_reference_energy_fails(program, tmp_path):
    ref = dict(workloads.load_reference()["trees"])
    ref["d2-o1"] *= 1 + 1e-9
    cases = [c for c in workloads.trees_cases(7, ROOT, tmp_path, ref) if c.id == "d2-o1"]
    res = run.run_case(cases[0], tmp_path / "out", "t", SpeedScale())
    assert not res["ok"] and "off the reference" in res["problems"][0]


def test_corrupted_control_fails(program, tmp_path):
    case = tiny_case("simulate", tmp_path / "inputs")
    control = Path(case.argv[case.argv.index("--control") + 1])
    data = json.loads(control.read_text())
    piece = data["edges"][-1]["pieces"][0]
    piece[0] = workloads._to_json(workloads._to_complex(piece[0]) * (1 + 1e-6))
    control.write_text(json.dumps(data))
    res = run.run_case(case, tmp_path / "out", "t", SpeedScale())
    assert not res["ok"] and "round-trip" in res["problems"][0]


def test_incomplete_trajectory_fails(program, tmp_path):
    import treedamp.cli

    case = tiny_case("simulate", tmp_path / "inputs")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert treedamp.cli.main(case.argv + ["--out", str(out)]) == 0
    assert workloads.check_simulate(out, case.expect)[1] == []
    path = out / "trajectory.csv"
    header, *rows = path.read_text().splitlines()
    last_edge = rows[-1].split(",")[0]

    def problems(lines):
        path.write_text("\n".join(lines) + "\n")
        return workloads.check_simulate(out, case.expect)[1]

    assert problems([header])
    assert any(f"edge {last_edge}: 0 rows" in p
               for p in problems([header] + [r for r in rows if r.split(",")[0] != last_edge]))
    assert any("rows in trajectory.csv" in p for p in problems([header] + rows[:-1]))
    assert any("columns" in p for p in problems(
        [",".join(header.split(",")[:-1])] + [",".join(r.split(",")[:-1]) for r in rows]))
    assert any("unexpected edges" in p for p in problems([header] + rows + ["999," + rows[0].split(",", 1)[1]]))


def test_directory_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "configs", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.7 for v in parent]
    assert compare.verdict(parent, faster, 0.1)["status"] == "improved"
    assert compare.verdict(parent, [v * 1.01 for v in parent], 0.1)["status"] == "ok"
    assert compare.verdict(parent, [v * 1.3 for v in parent], 0.1)["status"] == "regression"
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0, 15.0, 7.0, 13.0, 10.0, 11.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], 0.1)["status"] == "unresolved"


def _record(path: Path, workload: str, seed: int, energy: float, wall: float):
    metrics = {m["name"]: wall for m in SPEC["end_to_end"]}
    path.write_text(json.dumps({
        "provenance": {"workload": workload, "seed": seed}, "metrics": metrics, "failed": 0,
        "calls": [{"id": "star-q8", "command": "damp", "value": energy}]}))


def test_analyze_fails_on_energy_disagreement(tmp_path):
    for seed in range(compare.PAIRS):
        _record(tmp_path / f"parent-configs-{seed}.json", "configs", seed, 0.4, 10.0 + seed)
        _record(tmp_path / f"change-configs-{seed}.json", "configs", seed, 0.4, 10.0 + seed)
    assert compare.analyze(tmp_path, SPEC) == 0
    _record(tmp_path / "change-configs-2.json", "configs", 2, 0.4 * (1 + 1e-10), 12.0)
    assert compare.analyze(tmp_path, SPEC) == 1
