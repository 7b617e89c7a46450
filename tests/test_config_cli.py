"""Problem-file parsing and the command-line workflows."""

import copy
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treedamp
import treedamp.config as config_mod
from treedamp.config import (ConfigError, ProblemConfig, SolverOptions, _num, _num_out,
                             control_from_file, control_text)
from treedamp.cli import _write_csv, _write_rows, main
from treedamp.damping import IndefiniteGramError, solve_damping
from treedamp.piecewise import PiecewisePoly

import oracles

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _minimal_dict(**over):
    d = {
        "order": 1,
        "delay": 1.0,
        "edges": [{"id": 1, "parent": 0, "length": 3.0}],
        "coefficients": [
            {"edge": 1, "family": "b", "k": 1, "kind": "constant", "data": 1.0},
        ],
        "history": {"kind": "constant", "data": 1.0},
    }
    d.update(over)
    return d


# ----------------------------------------------------------------------
# parsing


@pytest.mark.parametrize("name", ["interval.json", "star.json", "smoothness_loss.json"])
def test_shipped_configs_parse(name):
    cfg = ProblemConfig.from_file(CONFIGS / name)
    assert cfg.n >= 1 and cfg.tau > 0
    assert cfg.solver.q >= 1
    assert len(cfg.edge_ids) == cfg.tree.m


@pytest.mark.parametrize("name", ["interval.json", "star.json", "smoothness_loss.json"])
def test_canonical_form_is_idempotent(name):
    d1 = ProblemConfig.from_file(CONFIGS / name).to_dict()
    d2 = ProblemConfig.from_dict(d1).to_dict()
    assert d1 == d2


def test_minimal_config_parses():
    cfg = ProblemConfig.from_dict(_minimal_dict())
    assert cfg.n == 1 and cfg.tau == 1.0
    assert cfg.tree.m == 1
    assert cfg.solver == SolverOptions()


def test_star_ids_survive_canonicalisation():
    d = _minimal_dict(edges=[
        {"id": 7, "parent": 2, "length": 2.0},
        {"id": 2, "parent": 0, "length": 2.0},
        {"id": 5, "parent": 2, "length": 2.0},
    ], coefficients=[
        {"edge": eid, "family": "b", "k": 1, "kind": "constant", "data": 1.0}
        for eid in (2, 5, 7)
    ])
    cfg = ProblemConfig.from_dict(d)
    assert cfg.edge_ids[0] == 2  # root edge first
    assert set(cfg.edge_ids[1:]) == {5, 7}


def test_complex_entries_parse_as_pairs():
    d = _minimal_dict()
    d["coefficients"].append(
        {"edge": 1, "family": "c", "k": 0, "kind": "constant", "data": [0.5, -1.0]})
    cfg = ProblemConfig.from_dict(d)
    assert cfg.coeffs.c[0][0].eval(1.0) == 0.5 - 1.0j
    assert _num([0.5, -1.0], "x") == 0.5 - 1.0j
    assert _num_out(0.5 - 1.0j) == [0.5, -1.0]
    assert _num_out(2.0 + 0.0j) == 2.0


def test_polynomial_and_piecewise_kinds():
    d = _minimal_dict(history={"kind": "polynomial", "data": [1.0, 2.0]})
    cfg = ProblemConfig.from_dict(d)
    assert cfg.history.eval(-0.5) == pytest.approx(0.0)
    d = _minimal_dict(history={"kind": "piecewise", "data": {
        "breaks": [-1.0, -0.5, 0.0],
        "pieces": [[0.0], [0.0, 1.0]],
    }})
    cfg = ProblemConfig.from_dict(d)
    assert cfg.history.eval(-0.75) == 0.0
    assert cfg.history.eval(-0.25) == pytest.approx(0.25)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(order=0), "config.order"),
    (lambda d: d.update(delay=-1.0), "config.delay"),
    (lambda d: d.update(bogus=1), "unknown key 'bogus'"),
    (lambda d: d.pop("history"), "missing required key 'history'"),
    (lambda d: d["edges"][0].update(length=-2.0), "config.edges[0].length"),
    (lambda d: d["coefficients"][0].update(family="d"), "config.coefficients[0].family"),
    (lambda d: d["coefficients"][0].update(k=5), "config.coefficients[0].k"),
    (lambda d: d["coefficients"][0].update(edge=9), "config.coefficients[0].edge"),
    (lambda d: d.update(coefficients=[]), "mandatory leading coefficient"),
    (lambda d: d.update(delay=3.5), "smaller than every edge length"),
    (lambda d: d.update(history={"kind": "spline", "data": 1.0}), "config.history.kind"),
    (lambda d: d.update(history={"kind": "constant", "data": "x"}), "config.history.data"),
    (lambda d: d.update(solver={"q": True}), "config.solver.q"),
    (lambda d: d.update(solver={"tolerance": 0.0}), "solver.tolerance"),
    (lambda d: d.update(solver={"quadrature_order": 3}), "unknown key 'quadrature_order'"),
])
def test_validation_reports_field_paths(mutate, fragment):
    d = _minimal_dict()
    mutate(d)
    with pytest.raises(ConfigError, match=None) as err:
        ProblemConfig.from_dict(d)
    assert fragment in str(err.value)


@pytest.mark.parametrize("solver, message", [
    ({"q": 0}, "config.solver.q: q must be a positive integer"),
    ({"tolerance": 0.0}, "config.solver.tolerance: tolerance must be positive"),
])
def test_solver_messages_carry_the_config_prefix(solver, message):
    with pytest.raises(ConfigError) as err:
        ProblemConfig.from_dict(_minimal_dict(solver=solver))
    assert str(err.value) == message


def _edge(eid, parent):
    return {"id": eid, "parent": parent, "length": 3.0}


@pytest.mark.parametrize("edges, message", [
    ([], "config.edges: expected a non-empty edge list"),
    ([_edge(0, 0)], "config.edges[0].id: edge id must be a positive integer, got 0"),
    ([_edge(True, 0)], "config.edges[0].id: edge id must be a positive integer, got True"),
    ([_edge(1, -1)], "config.edges[0].parent: parent must be 0 or an edge id, got -1"),
    ([_edge(1, 0), _edge(2, 7)], "config.edges: edge 2 references unknown parent 7"),
    ([_edge(1, 0), _edge(2, 0)], "config.edges: expected exactly one root edge, found 2"),
    ([_edge(1, 0), _edge(2, 3), _edge(3, 2)],
     "config.edges: edges not reachable from the root: ['2', '3']"),
])
def test_edge_list_messages(edges, message):
    # the checks of the edge records, then the tree's own (TreeStructureError)
    with pytest.raises(ConfigError) as err:
        ProblemConfig.from_dict(_minimal_dict(edges=edges))
    assert str(err.value) == message


def test_missing_key_messages_do_not_depend_on_the_hash_seed(tmp_path):
    # two keys missing: the first in sorted order is named, under any
    # PYTHONHASHSEED
    (tmp_path / "config.json").write_text(json.dumps(_minimal_dict()))
    (tmp_path / "control.json").write_text(json.dumps({"edges": [{"id": 1}]}))
    script = """if True:
        import sys
        from treedamp.config import ConfigError, ProblemConfig, control_from_file
        cfg = ProblemConfig.from_file(sys.argv[1] + "/config.json")
        for read in (lambda: ProblemConfig.from_dict(dict(cfg.to_dict(), edges=[{"length": 2.0}])),
                     lambda: control_from_file(sys.argv[1] + "/control.json", cfg)):
            try:
                read()
            except ConfigError as exc:
                print(exc)
        """
    src = str(Path(treedamp.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                           text=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)).stdout
            for seed in ("1", "2")]
    assert outs == ["config.edges[0]: missing required key 'id'\n"
                    "control.edges[0]: missing required key 'breaks'\n"] * 2


def test_piecewise_pieces_must_match_breaks():
    d = _minimal_dict(history={"kind": "piecewise", "data": {
        "breaks": [-1.0, 0.0], "pieces": [[1.0], [2.0]],
    }})
    with pytest.raises(ConfigError, match=r"pieces"):
        ProblemConfig.from_dict(d)
    d = _minimal_dict(history={"kind": "piecewise", "data": {
        "breaks": [-0.5, 0.0], "pieces": [[1.0]],
    }})
    with pytest.raises(ConfigError, match=r"span"):
        ProblemConfig.from_dict(d)


def test_duplicate_records_rejected():
    d = _minimal_dict()
    d["coefficients"].append(dict(d["coefficients"][0]))
    with pytest.raises(ConfigError, match="duplicate"):
        ProblemConfig.from_dict(d)
    d = _minimal_dict(edges=[
        {"id": 1, "parent": 0, "length": 3.0},
        {"id": 1, "parent": 1, "length": 3.0},
    ])
    with pytest.raises(ConfigError, match="duplicate edge id"):
        ProblemConfig.from_dict(d)


def test_from_file_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"order": 1,\n  "delay": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        ProblemConfig.from_file(p)
    with pytest.raises(ConfigError, match="cannot read"):
        ProblemConfig.from_file(tmp_path / "absent.json")


def test_canonical_form_round_trips_through_a_file(tmp_path):
    cfg = ProblemConfig.from_file(CONFIGS / "star.json")
    out = tmp_path / "copy.json"
    out.write_text(json.dumps(cfg.to_dict()))
    again = ProblemConfig.from_file(out)
    assert again.to_dict() == cfg.to_dict()


# ----------------------------------------------------------------------
# command line


def test_an_explicit_zero_coefficient_is_absent():
    # a zero polynomial of degree one adds no term: the same Gauss grid and
    # the same energy, and the canonical form drops its record
    plain = json.loads((CONFIGS / "interval.json").read_text())
    plain["coefficients"] = [r for r in plain["coefficients"] if r["family"] == "b"]
    zero = dict(plain, coefficients=plain["coefficients"] + [
        {"edge": 1, "family": "c", "k": 0, "kind": "polynomial", "data": [0, 0]}])
    sols = []
    for d in (plain, zero):
        cfg = ProblemConfig.from_dict(d)
        sols.append(solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=8))
    assert len(sols[1].gram.weights) == len(sols[0].gram.weights) == 48
    assert sols[1].energy == sols[0].energy
    assert ProblemConfig.from_dict(zero).to_dict() == ProblemConfig.from_dict(plain).to_dict()


def test_cli_damp_verify_simulate_cycle(tmp_path, capsys):
    cfg_path = str(CONFIGS / "interval.json")
    out = tmp_path / "run"
    assert main(["damp", "--config", cfg_path, "--out", str(out), "--q", "4"]) == 0
    captured = capsys.readouterr()
    assert "energy J" in captured.out

    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "damp" and summary["q"] == 4
    assert summary["energy"] > 0
    assert summary["optimality"] < 1e-8
    assert (out / "trajectory.csv").exists()
    assert (out / "control.csv").exists()

    head = (out / "trajectory.csv").read_text().splitlines()[0]
    assert head == "edge,t,re_y0,im_y0"
    assert (out / "control.csv").read_text().splitlines()[0] == "edge,t,re_u,im_u"

    assert main(["verify", "--config", cfg_path, "--solution", str(out)]) == 0
    assert "verification passed" in capsys.readouterr().out

    sim = tmp_path / "sim"
    rc = main(["simulate", "--config", cfg_path,
               "--control", str(out / "control.json"), "--out", str(sim), "--q", "4"])
    assert rc == 0
    sim_summary = json.loads((sim / "summary.json").read_text())
    assert sim_summary["residual_total"] < 1e-8


def test_cli_verify_accepts_control_pieces_of_different_lengths(tmp_path, capsys):
    # damp pads every piece of an edge to one length; a control file whose
    # pieces list their coefficients to different lengths is the same control
    cfg_path = str(CONFIGS / "star.json")
    out = tmp_path / "run"
    assert main(["damp", "--config", cfg_path, "--out", str(out), "--q", "3"]) == 0
    control_path = out / "control.json"
    control = json.loads(control_path.read_text())
    pieces = control["edges"][0]["pieces"]
    pieces[0] = pieces[0] + [0.0, 0.0]
    assert len({len(c) for c in pieces}) > 1
    control_path.write_text(json.dumps(control))
    capsys.readouterr()
    assert main(["verify", "--config", cfg_path, "--solution", str(out)]) == 0
    assert "verification passed" in capsys.readouterr().out


def _largest_coefficient(control: dict) -> tuple:
    """``(edge, piece, power)`` of the control file's coefficient of largest
    modulus; a complex one is stored as ``[re, im]``."""
    return max(((e, i, k) for e, edge in enumerate(control["edges"])
                for i, piece in enumerate(edge["pieces"]) for k in range(len(piece))),
               key=lambda at: abs(complex(*np.atleast_1d(
                   control["edges"][at[0]]["pieces"][at[1]][at[2]]))))


def test_cli_verify_catches_a_nudged_control_coefficient(tmp_path, capsys):
    # one coefficient off by 1e-6 of the largest one is the same summary
    # but another control, far beyond the 1e-9 tolerance
    cfg_path = str(CONFIGS / "star.json")
    out = tmp_path / "run"
    assert main(["damp", "--config", cfg_path, "--out", str(out), "--q", "3"]) == 0
    control_path = out / "control.json"
    control = json.loads(control_path.read_text())
    e, i, k = _largest_coefficient(control)
    piece = control["edges"][e]["pieces"][i]
    big = abs(complex(*np.atleast_1d(piece[k])))
    if isinstance(piece[k], list):
        piece[k][0] += 1e-6 * big
    else:
        piece[k] += 1e-6 * big
    control_path.write_text(json.dumps(control))
    capsys.readouterr()
    assert main(["verify", "--config", cfg_path, "--solution", str(out)]) == 4
    err = capsys.readouterr().err
    assert "control mismatch" in err
    assert "FAIL" in err and err.count("FAIL") == 1  # the diagnostics still match


def test_cli_verify_accepts_a_control_piece_split_at_an_interior_point(tmp_path, capsys):
    # the same function with one more break: the piece's right part is
    # re-centred at the new break
    cfg_path = str(CONFIGS / "star.json")
    cfg = ProblemConfig.from_file(CONFIGS / "star.json")
    out = tmp_path / "run"
    assert main(["damp", "--config", cfg_path, "--out", str(out), "--q", "3"]) == 0
    control_path = out / "control.json"
    control = list(control_from_file(control_path, cfg))
    u = control[1]
    cut = u.breaks[1] + 0.37 * (u.breaks[2] - u.breaks[1])
    split = oracles.poly(u).refined([cut])
    assert split.npieces == u.npieces + 1 and not np.array_equal(split.coefs[2], u.coefs[1])
    control[1] = split
    control_path.write_text(control_text(cfg, tuple(control)))
    capsys.readouterr()
    assert main(["verify", "--config", cfg_path, "--solution", str(out)]) == 0
    assert "control matches" in capsys.readouterr().out


@pytest.mark.parametrize("q", ["0", "-2"])
@pytest.mark.parametrize("command", ["damp", "simulate"])
def test_cli_rejects_a_q_below_one(tmp_path, capsys, command, q):
    # 0 is rejected like any other value below 1, not read as "use solver.q"
    cfg_path = str(CONFIGS / "interval.json")
    args = [command, "--config", cfg_path, "--out", str(tmp_path / "o"), "--q", q]
    if command == "simulate":
        assert main(["damp", "--config", cfg_path, "--out", str(tmp_path / "d"), "--q", "2"]) == 0
        args += ["--control", str(tmp_path / "d" / "control.json")]
    capsys.readouterr()
    assert main(args) == 2
    assert "--q must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_without_q_solves_at_the_config_q(tmp_path, capsys):
    cfg_path = str(CONFIGS / "interval.json")
    assert main(["damp", "--config", cfg_path, "--out", str(tmp_path / "d")]) == 0
    assert json.loads((tmp_path / "d" / "summary.json").read_text())["q"] == 16
    assert main(["simulate", "--config", cfg_path, "--control", str(tmp_path / "d" / "control.json"),
                 "--out", str(tmp_path / "s")]) == 0
    assert json.loads((tmp_path / "s" / "summary.json").read_text())["q"] == 16


def test_cli_verify_catches_tampered_energy(tmp_path, capsys):
    cfg_path = str(CONFIGS / "interval.json")
    out = tmp_path / "run"
    main(["damp", "--config", cfg_path, "--out", str(out), "--q", "3"])
    capsys.readouterr()
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["energy"] *= 1.01
    summary_path.write_text(json.dumps(summary))
    assert main(["verify", "--config", cfg_path, "--solution", str(out)]) == 4
    assert "energy mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("key, tamper", [
    ("continuity", lambda v: {**v, "1": v["1"] + 1.0}),
    # json writes these as NaN and Infinity, which no tolerance test rejects
    ("energy", lambda v: math.nan),
    ("kirchhoff_max", lambda v: math.inf),
    # an integer no float can hold
    ("ndof", lambda v: 10**400),
], ids=["continuity", "nan", "inf", "huge"])
def test_cli_verify_catches_tampered_diagnostics(tmp_path, capsys, key, tamper):
    cfg_path = str(CONFIGS / "interval.json")
    out = tmp_path / "run"
    main(["damp", "--config", cfg_path, "--out", str(out), "--q", "3"])
    capsys.readouterr()
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary[key] = tamper(summary[key])
    summary_path.write_text(json.dumps(summary))
    assert main(["verify", "--config", cfg_path, "--solution", str(out)]) == 4
    fails = [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAIL:")]
    assert len(fails) == 1 and f"{key} mismatch" in fails[0]


def test_cli_verify_rejects_malformed_summary(tmp_path, capsys):
    cfg_path = str(CONFIGS / "interval.json")
    out = tmp_path / "run"
    main(["damp", "--config", cfg_path, "--out", str(out), "--q", "2"])
    capsys.readouterr()
    (out / "summary.json").write_text('{"energy": 1')
    assert main(["verify", "--config", cfg_path, "--solution", str(out)]) == 2
    err = capsys.readouterr().err
    assert "summary.json: line 1" in err and "Traceback" not in err


@pytest.mark.parametrize("q", ["x", None, True, [4], 2.5])
def test_cli_verify_rejects_a_stored_q_that_is_not_an_integer(tmp_path, capsys, q):
    cfg_path = str(CONFIGS / "interval.json")
    out = tmp_path / "run"
    main(["damp", "--config", cfg_path, "--out", str(out), "--q", "2"])
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["q"] = q
    summary_path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", "--config", cfg_path, "--solution", str(out)]) == 2
    assert "summary.json: q must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("q", [0, -3])
def test_cli_verify_rejects_a_stored_q_below_one(tmp_path, capsys, q):
    # a stored q of 0 or less used to reach build_mesh, whose message
    # does not say that the number came from summary.json
    cfg_path = str(CONFIGS / "interval.json")
    out = tmp_path / "run"
    main(["damp", "--config", cfg_path, "--out", str(out), "--q", "2"])
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["q"] = q
    summary_path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", "--config", cfg_path, "--solution", str(out)]) == 2
    assert f"summary.json: q must be an integer of at least 1, got {q}" in capsys.readouterr().err


def test_cli_convergence_table(tmp_path, capsys):
    cfg_path = str(CONFIGS / "interval.json")
    assert main(["convergence", "--config", cfg_path, "--q", "2,4,8,16"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("q,ndof,energy,optimality,kirchhoff_max,jump_1")
    assert len(lines) == 5  # header + one row per level, no smoothness note
    assert "smoothness loss" not in out
    energies = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_cli_convergence_short_ladder_has_no_smoothness_note(capsys):
    # the smooth history's top-order jump decays like h: 0.408 -> 0.249 at
    # q = 2, 4 on the interval.  On the doubling ladders of smoothness_loss
    # tau/2 is a node, so the history's break is a node jump that the mesh
    # resolves, not a persistent one
    for name, ladder in (("interval", "2,4"), ("interval", "2,4,8,16"), ("star", "2,4,8"),
                         ("smoothness_loss", "2,4"), ("smoothness_loss", "4,8"),
                         ("smoothness_loss", "2,4,8,16")):
        cfg_path = str(CONFIGS / f"{name}.json")
        assert main(["convergence", "--config", cfg_path, "--q", ladder]) == 0
        assert "smoothness loss" not in capsys.readouterr().out, (name, ladder)


def test_cli_convergence_flags_rough_history(capsys):
    # odd q keeps tau/2, where the history's break lands, inside an element;
    # the jump there stays at 1.000 and dominates every other one
    cfg_path = str(CONFIGS / "smoothness_loss.json")
    for ladder in ("3,9", "3,9,27"):
        assert main(["convergence", "--config", cfg_path, "--q", ladder]) == 0
        out = capsys.readouterr().out
        assert "smoothness loss detected" in out, ladder
        assert "order-3" in out


def test_cli_convergence_checks_kirchhoff_decay_on_a_star(capsys):
    # the only tree config with a branching vertex: the Kirchhoff residual
    # must shrink from the coarsest to the finest level; from q 1 to q 2 it
    # stays at 1.92e-5
    cfg_path = str(CONFIGS / "star.json")
    assert main(["convergence", "--config", cfg_path, "--q", "2,4,8"]) == 0
    assert "Kirchhoff" not in capsys.readouterr().err
    assert main(["convergence", "--config", cfg_path, "--q", "1,2"]) == 4
    assert "Kirchhoff residual did not decay" in capsys.readouterr().err


@pytest.mark.parametrize("name, ladder", [("interval", "8,4"), ("star", "4,4")])
def test_cli_convergence_ladder_that_does_not_increase_is_invalid_input(name, ladder, capsys):
    # a falling ladder used to end in "energy increased" and a repeated
    # level in "Kirchhoff residual did not decay" (exit 4), after solving
    # every level
    assert main(["convergence", "--config", str(CONFIGS / f"{name}.json"), "--q", ladder]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --q must strictly increase along the ladder, got '{ladder}'\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{tmp}/big.json", "--control", "{tmp}/d/control.json", "--out", "{tmp}/s"],
    ["damp", "--config", "{tmp}/phi.json", "--out", "{tmp}/o"],
], ids=["simulate-b1-1e308", "damp-history-1e308"])
def test_cli_overflow_prints_only_its_own_error_line(argv, tmp_path):
    # numpy's overflow warnings, with the source line that raised them, used
    # to come before the program's own message on stderr
    d = json.loads((CONFIGS / "star.json").read_text())
    assert main(["damp", "--config", str(CONFIGS / "star.json"), "--out", str(tmp_path / "d")]) == 0
    d["coefficients"][0]["data"] = 1e308
    (tmp_path / "big.json").write_text(json.dumps(d))
    d = json.loads((CONFIGS / "interval.json").read_text())
    d["history"] = {"kind": "polynomial", "data": [1e308, 1e308]}
    (tmp_path / "phi.json").write_text(json.dumps(d))
    src = str(Path(treedamp.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "treedamp.cli"] + [a.format(tmp=tmp_path) for a in argv],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 3
    assert run.stderr.startswith("numerical failure: ")
    assert run.stderr.count("\n") == 1 and run.stderr.endswith("overflowed on edge id 1\n"
                                                                if argv[0] == "simulate" else "nan\n")


def test_cli_convergence_ladder_passes_at_order_three(capsys):
    # star3: order 3, scaled pivot ratio 3.1e9 at q 64.  One corrected seminormal
    # step left the q 64 DOFs 1.5e-5 off and its energy above q 32's by
    # 1.8e-9, so the ladder failed with "energy increased" (exit 4)
    cfg_path = str(CONFIGS / "star3.json")
    assert main(["convergence", "--config", cfg_path, "--q", "8,16,32,64"]) == 0
    assert "energy increased" not in capsys.readouterr().err


def test_cli_exit_codes_for_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_minimal_dict(bogus=1)))
    assert main(["damp", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err

    assert main(["convergence", "--config", str(CONFIGS / "interval.json"),
                 "--q", "2,x"]) == 2
    capsys.readouterr()

    # control file that lacks the edge
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_minimal_dict()))
    ctl = tmp_path / "ctl.json"
    ctl.write_text(json.dumps({"edges": []}))
    assert main(["simulate", "--config", str(good), "--control", str(ctl),
                 "--out", str(tmp_path / "o2")]) == 2
    assert "lacks edge id" in capsys.readouterr().err


def _set_edge(**fields):
    return lambda d: d["edges"][0].update(fields)


@pytest.mark.parametrize("target, mutate, fragment", [
    pytest.param("control", _set_edge(pieces=[[0.0]]),
                 "control.edges[0].pieces: expected 2 pieces", id="missing-piece"),
    pytest.param("control", _set_edge(breaks=[0.0, 2.0, 1.5, 3.0], pieces=[[0.0]] * 3),
                 "control.edges[0]: breakpoints must be strictly increasing", id="unsorted-breaks"),
    pytest.param("control", lambda d: d.update(edges=[5]),
                 "control.edges[0]: expected an object", id="edge-not-object"),
    pytest.param("control", lambda d: d.update(edges=5),
                 "control.edges: expected a list", id="edges-not-list"),
    pytest.param("control", _set_edge(pieces=[[0.0], []]),
                 "control.edges[0].pieces[1]: expected a non-empty", id="empty-piece"),
    pytest.param("control", _set_edge(breaks=[0.0, "x", 3.0]),
                 "control.edges[0].breaks[1]: expected a real", id="non-numeric-break"),
    pytest.param("control", _set_edge(pieces=[[0.0], 1.0]),
                 "control.edges[0].pieces[1]: expected a non-empty", id="piece-not-list"),
    pytest.param("control", lambda d: d["edges"].append(dict(d["edges"][0])),
                 "control.edges[1].id: duplicate edge id", id="duplicate-edge"),
    pytest.param("control", _set_edge(id=7),
                 "control.edges[0].id: unknown edge id", id="unknown-edge"),
    pytest.param("control", _set_edge(breaks=[0.0, 1.5, 2.5]),
                 "control.edges[0].breaks: breakpoints must span", id="short-domain"),
    pytest.param("control", _set_edge(breaks=[], pieces=[]),
                 "control.edges[0]: need at least two breakpoints", id="no-breaks"),
    pytest.param("control", _set_edge(breaks=[0.0], pieces=[[1.0]]),
                 "control.edges[0]: need at least two breakpoints", id="one-break"),
    pytest.param("config", lambda d: d["coefficients"].append(
                     {"edge": 1, "family": "c", "k": 0, "kind": "piecewise",
                      "data": {"breaks": [], "pieces": [[1.0]]}}),
                 "config.coefficients[1].data: need at least two breakpoints",
                 id="coefficient-without-breaks"),
    pytest.param("config", lambda d: d.update(history={"kind": "piecewise",
                                                       "data": {"breaks": [0.0], "pieces": []}}),
                 "config.history.data: need at least two breakpoints", id="history-one-break"),
    pytest.param("config", lambda d: d.update(history=5),
                 "config.history: expected an object", id="history-not-object"),
    pytest.param("config", lambda d: d.update(history={"kind": "piecewise",
                                                       "data": {"breaks": 5, "pieces": []}}),
                 "config.history.data.breaks: expected a list", id="breaks-not-list"),
    # the cases below reach the whole-file batch checks, which hand every
    # failure to the per-entry walk for its message
    pytest.param("control", _set_edge(breaks=[0.0, True, 3.0]),
                 "control.edges[0].breaks[1]: expected a real number, got True", id="true-break"),
    pytest.param("control", _set_edge(pieces=[[0.0], [1.0, True]]),
                 "control.edges[0].pieces[1][1]: expected a real number, got True", id="true-piece"),
    pytest.param("control", _set_edge(pieces=[[0.0], [[1.0, True]]]),
                 "control.edges[0].pieces[1][0][1]: expected a real number, got True",
                 id="true-in-pair"),
    pytest.param("control", _set_edge(pieces=[[0.0], [float("nan")]]),
                 "control.edges[0].pieces[1][0]: number must be finite", id="nan-token"),
    pytest.param("control", _set_edge(breaks=[0.0, float("inf"), 3.0]),
                 "control.edges[0].breaks[1]: number must be finite", id="infinity-token"),
    pytest.param("control", _set_edge(pieces=[[0.0], [[1.0, -float("inf")]]]),
                 "control.edges[0].pieces[1][0][1]: number must be finite", id="infinity-in-pair"),
    pytest.param("control", _set_edge(pieces=[[0.0], [[1.0]]]),
                 "control.edges[0].pieces[1][0]: complex value must be a two-element",
                 id="short-pair"),
    pytest.param("control", _set_edge(pieces=[[[0.5, 0.0], 1.0, [1.0, 2.0, 3.0]], [0.0]]),
                 "control.edges[0].pieces[0][2]: complex value must be a two-element",
                 id="long-pair"),
    pytest.param("control", _set_edge(pieces=[[0.0], [None]]),
                 "control.edges[0].pieces[1][0]: expected a real number, got None", id="null-piece"),
    pytest.param("control", _set_edge(breaks=[0.0, None, 3.0]),
                 "control.edges[0].breaks[1]: expected a real number, got None", id="null-break"),
    pytest.param("control", _set_edge(pieces=[[0.0], [[[1.0, 2.0], 3.0]]]),
                 "control.edges[0].pieces[1][0][0]: expected a real number, got [1.0, 2.0]",
                 id="pair-in-pair"),
    pytest.param("control", _set_edge(breaks=[0.0, 1.5, 1.5, 3.0], pieces=[[0.0]] * 3),
                 "control.edges[0]: breakpoints must be strictly increasing", id="repeated-break"),
    pytest.param("control", lambda d: d["edges"].extend([dict(d["edges"][0], id=7)])
                 or d["edges"][0].update(pieces=[[0.0], [True]]),
                 "control.edges[0].pieces[1][0]: expected a real number, got True",
                 id="bad-number-before-bad-id"),
    pytest.param("config", lambda d: d.update(history={"kind": "polynomial", "data": [1.0, True]}),
                 "config.history.data[1]: expected a real number, got True", id="true-history"),
    pytest.param("config", lambda d: d["coefficients"][0].update(data=float("nan")),
                 "config.coefficients[0].data: number must be finite", id="nan-coefficient"),
    pytest.param("config", lambda d: d["coefficients"].append(
                     {"edge": 1, "family": "c", "k": 0, "kind": "polynomial", "data": [[0.1]]}),
                 "config.coefficients[1].data[0]: complex value must be a two-element",
                 id="short-pair-coefficient"),
    pytest.param("config", lambda d: d["coefficients"][0].update(data=None)
                 or d["coefficients"].append(dict(d["coefficients"][0], family="x")),
                 "config.coefficients[0].data: expected a real number, got None",
                 id="bad-number-before-bad-family"),
    pytest.param("config", lambda d: d.update(history={"kind": "constant", "data": True})
                 or d["coefficients"][0].update(data=0.0),
                 "leading coefficient b_1 on edge 1 reaches", id="coefficient-set-before-history"),
])
def test_cli_rejects_malformed_piecewise_input(tmp_path, capsys, target, mutate, fragment):
    files = {
        "config": _minimal_dict(),
        "control": {"edges": [{"id": 1, "breaks": [0.0, 1.5, 3.0], "pieces": [[0.0], [1.0, 0.5]]}]},
    }
    mutate(files[target])
    for name, d in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
    code = main(["simulate", "--config", str(tmp_path / "config.json"),
                 "--control", str(tmp_path / "control.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert fragment in capsys.readouterr().err


_HUGE = 10**400  # a JSON integer no float holds


@pytest.mark.parametrize("target, mutate, fragment", [
    pytest.param("config", lambda d: d.update(delay=_HUGE), "config.delay", id="delay"),
    pytest.param("config", lambda d: d["edges"][0].update(length=_HUGE), "config.edges[0].length",
                 id="length"),
    pytest.param("config", lambda d: d["coefficients"][0].update(data=[1.0, _HUGE]),
                 "config.coefficients[0].data[1]", id="coefficient"),
    pytest.param("config", lambda d: d.update(history={"kind": "polynomial", "data": [1.0, _HUGE]}),
                 "config.history.data[1]", id="history"),
    pytest.param("config", lambda d: d.update(history={"kind": "piecewise", "data": {
                     "breaks": [-1.0, _HUGE, 0.0], "pieces": [[1.0], [1.0]]}}),
                 "config.history.data.breaks[1]", id="history-break"),
    pytest.param("config", lambda d: d.update(solver={"tolerance": _HUGE}),
                 "config.solver.tolerance", id="tolerance"),
    pytest.param("control", _set_edge(pieces=[[0.0], [1.0, _HUGE]]),
                 "control.edges[0].pieces[1][1]", id="control-piece"),
    pytest.param("control", _set_edge(breaks=[0.0, _HUGE, 3.0]), "control.edges[0].breaks[1]",
                 id="control-break"),
])
def test_cli_rejects_an_integer_too_large_for_a_float(tmp_path, capsys, target, mutate, fragment):
    files = {
        "config": _minimal_dict(),
        "control": {"edges": [{"id": 1, "breaks": [0.0, 1.5, 3.0], "pieces": [[0.0], [1.0, 0.5]]}]},
    }
    mutate(files[target])
    for name, d in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
    for command in (["simulate", "--control", str(tmp_path / "control.json")], ["damp"]):
        if target == "control" and command == ["damp"]:
            continue
        code = main(command + ["--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{fragment}: number is too large for a float" in capsys.readouterr().err


_TREE = {"order": 1, "delay": 0.5,
         "edges": [{"id": 1, "parent": 0, "length": 3.0}, {"id": 2, "parent": 1, "length": 2.5},
                   {"id": 3, "parent": 1, "length": 2.0}]}
_LENGTHS = {1: 3.0, 2: 2.5, 3: 2.0}

_real_entries = st.one_of(st.floats(-1e6, 1e6), st.integers(-10**6, 10**6))
_entries = st.one_of(_real_entries, st.lists(_real_entries, min_size=2, max_size=2))


@st.composite
def _piecewise_record(draw, a, b):
    """Breaks spanning [a, b] up to the snap tolerance, and pieces of mixed
    reals and [re, im] pairs, of different lengths."""
    inner = draw(st.lists(st.floats(a, b), max_size=4, unique=True))
    ends = draw(st.lists(st.floats(-1e-10, 1e-10), min_size=2, max_size=2))
    breaks = [a + ends[0]] + sorted(x for x in inner if a < x < b) + [b + ends[1]]
    pieces = draw(st.lists(st.lists(_entries, min_size=1, max_size=4),
                           min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return breaks, pieces


def _assert_bitwise(got, want):
    assert got.breaks.tobytes() == want.breaks.tobytes()
    assert got.coefs.shape == want.coefs.shape and got.coefs.dtype == want.coefs.dtype
    assert got.coefs.tobytes() == want.coefs.tobytes()


@settings(max_examples=40, deadline=None)
@given(records=st.tuples(*(_piecewise_record(0.0, T) for T in _LENGTHS.values())),
       order=st.permutations([1, 2, 3]))
def test_control_parse_matches_the_per_entry_reference(tmp_path_factory, records, order):
    # mixed real and pair entries, ragged pieces, edges in any order: every
    # table is bitwise the one the entries give one at a time
    cfg = ProblemConfig.from_dict(dict(_TREE, coefficients=[
        {"edge": e, "family": "b", "k": 1, "kind": "constant", "data": 1.0} for e in _LENGTHS],
        history={"kind": "constant", "data": 1.0}))
    path = tmp_path_factory.mktemp("control") / "control.json"
    path.write_text(json.dumps({"edges": [
        {"id": eid, "breaks": records[eid - 1][0], "pieces": records[eid - 1][1]} for eid in order]}))
    back = control_from_file(path, cfg)
    for j, eid in enumerate(cfg.edge_ids, start=1):
        _assert_bitwise(back[j - 1], oracles.parse_piecewise(*records[eid - 1], 0.0, _LENGTHS[eid]))


@pytest.mark.filterwarnings("ignore:piecewise polynomial degree 999")
def test_control_parse_memory_grows_with_each_edge_own_widest_piece(tmp_path):
    # 2000 one-coefficient pieces on edge 1 and one 1000-coefficient piece on
    # edge 2: padded to the file's widest piece, edge 1's table alone took
    # 2000 x 1000 complex numbers, 30.6 MiB
    cfg = ProblemConfig.from_file(CONFIGS / "star.json")
    path = tmp_path / "control.json"
    path.write_text(json.dumps({"edges": [
        {"id": 1, "breaks": np.linspace(0.0, 2.0, 2001).tolist(), "pieces": [[0.5]] * 2000},
        {"id": 2, "breaks": [0.0, 2.0], "pieces": [[1e-3] * 1000]},
        {"id": 3, "breaks": [0.0, 2.0], "pieces": [[0.0]]}]}))
    tracemalloc.start()
    try:
        back = control_from_file(path, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.coefs.shape for p in back] == [(2000, 1), (1, 1000), (1, 1)]
    assert peak < 2 * 2**20


@st.composite
def _poly_record(draw, a, b):
    kind = draw(st.sampled_from(["constant", "polynomial", "piecewise"]))
    if kind == "constant":
        return {"kind": kind, "data": draw(_entries)}
    if kind == "polynomial":
        return {"kind": kind, "data": draw(st.lists(_entries, min_size=1, max_size=4))}
    breaks, pieces = draw(_piecewise_record(a, b))
    return {"kind": kind, "data": {"breaks": breaks, "pieces": pieces}}


def _reference_poly(record, a, b):
    def num(x):
        return complex(float(x[0]), float(x[1])) if isinstance(x, list) else complex(float(x), 0.0)
    kind, data = record["kind"], record["data"]
    if kind == "constant":
        return PiecewisePoly.constant(a, b, num(data))
    if kind == "polynomial":
        return PiecewisePoly.from_global_coefs(a, b, [num(x) for x in data])
    return oracles.parse_piecewise(data["breaks"], data["pieces"], a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_tables_match_the_per_entry_reference(data):
    # every coefficient record and the history, each kind, built in one
    # batch: bitwise the polynomials the entries give one record at a time
    records = [{"edge": e, "family": "b", "k": 1, "kind": "constant", "data": 1.0} for e in _LENGTHS]
    for e, T in _LENGTHS.items():
        for fam, k in (("b", 0), ("c", 0), ("c", 1)):
            if data.draw(st.booleans()):
                records.append({"edge": e, "family": fam, "k": k, **data.draw(_poly_record(0.0, T))})
    history = data.draw(_poly_record(-0.5, 0.0))
    cfg = ProblemConfig.from_dict(dict(_TREE, coefficients=records, history=history))
    _assert_bitwise(cfg.history, _reference_poly(history, -0.5, 0.0))
    for r in records:
        j = cfg.edge_ids.index(r["edge"]) + 1
        got = (cfg.coeffs.b if r["family"] == "b" else cfg.coeffs.c)[r["k"]][j - 1]
        _assert_bitwise(got, _reference_poly(r, 0.0, _LENGTHS[r["edge"]]))


_MUTATED_PROBLEM = dict(_TREE, coefficients=[
    {"edge": 1, "family": "b", "k": 1, "kind": "constant", "data": 1.0},
    {"edge": 2, "family": "b", "k": 1, "kind": "polynomial", "data": [1.0, 0.0, 0.01]},
    {"edge": 3, "family": "b", "k": 1, "kind": "piecewise",
     "data": {"breaks": [0.0, 1.0, 2.0], "pieces": [[1.0], [1.0, [0.0, 0.1]]]}},
    {"edge": 1, "family": "c", "k": 0, "kind": "constant", "data": [0.25, -0.5]},
    {"edge": 3, "family": "b", "k": 0, "kind": "piecewise",
     "data": {"breaks": [0.0, 0.5, 1.25, 2.0], "pieces": [[0.5], [2, 0.5], [[1.0, 1.0]]]}},
], history={"kind": "piecewise", "data": {"breaks": [-0.5, -0.25, 0.0],
                                          "pieces": [[1.0, 0.5], [1.125, [0.5, 0.25]]]}})
_MUTATED_CONTROL = {"edges": [
    {"id": 2, "breaks": [0.0, 1.0, 2.5], "pieces": [[0.0, 1.0], [[1.0, -1.0], 0.5, 0.25]]},
    {"id": 1, "breaks": [0.0, 3.0], "pieces": [[1.0, 2.0, 3.0]]},
    {"id": 3, "breaks": [0.0, 0.5, 1.0, 1.5, 2.0], "pieces": [[1], [2], [3], [4]]},
]}
_ODD_VALUES = [True, None, "x", float("nan"), float("inf"), _HUGE, [], {}, [1.0], [1.0, 2.0, 3.0],
               [[1.0, 2.0]], [1.0, True], -1, 0, 1, 2, 3, 7, 1.5, -0.0, 2.5, 3.0 + 1e-10,
               "polynomial", "piecewise", "c", [0.0, 1.0, 0.5, 3.0], [[0.0], [1.0]]]


def _mutated(doc: dict, rng: random.Random, root: str) -> dict:
    """``doc`` with one to three seeded changes under ``doc[root]``: a value
    replaced by an odd one, a key dropped or added, a list entry repeated,
    dropped or swapped with another."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice([1, 1, 2, 3])):
        if root not in doc:
            break
        at, stack = [], [((root,), doc[root])]
        while stack:  # every field under root, with its path
            path, value = stack.pop()
            at.append(path)
            items = value.items() if isinstance(value, dict) else (
                enumerate(value) if isinstance(value, list) else ())
            stack += [(path + (k,), v) for k, v in items]
        path = rng.choice(at)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        last, op = path[-1], rng.random()
        if op < 0.6:
            parent[last] = copy.deepcopy(rng.choice(_ODD_VALUES))
        elif isinstance(parent, dict):
            if op < 0.8:
                del parent[last]
            else:
                parent[rng.choice(["bogus", "id", "kind", "breaks"])] = 1
        elif op < 0.75:
            parent.insert(rng.randrange(len(parent) + 1), copy.deepcopy(parent[last]))
        elif op < 0.9:
            del parent[last]
        else:
            i = rng.randrange(len(parent))
            parent[i], parent[last] = parent[last], parent[i]
    return doc


def _document_order_records(records, path, keys, check, walk):
    """The rule of ``config._read_records`` without its batch: each record's
    keys, its own fields and then the walk of its numbers, in document
    order, and its polynomial built entry by entry."""
    slots, polys = {}, []
    for i, record in enumerate(records):
        where = path.format(i)
        config_mod._check_keys(record, keys, keys, where)
        slot, item, (a, b) = check(record, where, slots)
        walk(record, a, b, where)
        assert item is not None  # the walk accepts only records of sound structure
        slots[slot] = len(polys)
        polys.append(_reference_poly(record, a, b) if "kind" in record
                     else oracles.parse_piecewise(record["breaks"], record["pieces"], a, b))
    return slots, polys


@pytest.mark.parametrize("seed", range(4))
def test_record_reader_equals_the_document_order_pass(tmp_path, monkeypatch, seed):
    # seeded mutations of a problem's coefficient records and history and
    # of a control file's edges: the batched reader raises exactly the
    # error of the unbatched pass and accepts exactly what it accepts, with
    # bitwise the same tables
    rng = random.Random(seed)
    cfg = ProblemConfig.from_dict(_MUTATED_PROBLEM)
    path = tmp_path / "control.json"
    outcomes = set()

    def read(doc):
        try:
            if "order" not in doc:
                path.write_text(json.dumps(doc))
                return control_from_file(path, cfg)
            got = ProblemConfig.from_dict(doc)
            return [got.history] + [p for fam in (got.coeffs.b, got.coeffs.c)
                                    for row in fam for p in row]
        except ConfigError as exc:
            return str(exc)

    for i in range(250):
        doc = (_mutated(_MUTATED_PROBLEM, rng, rng.choice(["coefficients", "history"]))
               if i % 2 else _mutated(_MUTATED_CONTROL, rng, "edges"))
        with monkeypatch.context() as m:
            m.setattr(config_mod, "_read_records", _document_order_records)
            want = read(doc)
        got = read(doc)
        outcomes.add(isinstance(want, str))
        if isinstance(want, str):
            assert got == want, doc
        else:
            assert not isinstance(got, str), (got, doc)
            for p, r in zip(got, want, strict=True):
                _assert_bitwise(p, r)
    assert outcomes == {False, True}


@pytest.mark.parametrize("eid", [True, 1.0])
def test_cli_rejects_a_non_integer_coefficient_edge_id(tmp_path, capsys, eid):
    # True == 1 == 1.0 as dict keys, so a lookup alone accepts both as edge 1
    d = _minimal_dict()
    d["coefficients"].append({"edge": eid, "family": "b", "k": 0, "kind": "constant", "data": 0.5})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["damp", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config.coefficients[1].edge: unknown edge id" in capsys.readouterr().err


def test_cli_rejects_leading_coefficient_with_interior_zero(tmp_path, capsys):
    lead = {"edge": 1, "family": "b", "k": 1, "kind": "polynomial", "data": [-0.1, 1.0]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_minimal_dict(coefficients=[lead])))
    assert main(["damp", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "away from zero" in capsys.readouterr().err


def test_cli_rejects_leading_coefficient_with_a_double_zero(tmp_path, capsys):
    # b_1 = (t - 1.5)^2 touches zero inside the edge: |b_1|^2 has a triple
    # critical point there, which the roots of its derivative resolve only
    # to about eps^(1/3), so the zeros of b_1 itself are tried too
    d = json.loads((CONFIGS / "interval.json").read_text())
    d["coefficients"][0] = {"edge": 1, "family": "b", "k": 1, "kind": "polynomial",
                            "data": [2.25, -3, 1]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["damp", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "leading coefficient b_1 on edge 1 reaches |.| = 0.000e+00" in err
    assert not (tmp_path / "o").exists()


def _break_config(delta):
    # order 2 on [0, 3], tau = 1: every coefficient takes the same constant on
    # both sides of 1 + delta, next to the delay wavefront at 1
    def coef(value):
        if delta is None:
            return {"kind": "constant", "data": value}
        pieces = {"breaks": [0.0, 1.0 + delta, 3.0], "pieces": [[value], [value]]}
        return {"kind": "piecewise", "data": pieces}

    return _minimal_dict(order=2, coefficients=[
        {"edge": 1, "family": "b", "k": 2, **coef(1.0)},
        {"edge": 1, "family": "c", "k": 1, **coef(0.5)},
        {"edge": 1, "family": "b", "k": 0, **coef(0.5)},
    ], history={"kind": "polynomial", "data": [1.0, 1.0]}, solver={"q": 4})


@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-10])
def test_cli_damp_ignores_a_coefficient_break_that_changes_nothing(tmp_path, delta):
    # the break would mesh a sliver element of width delta; a break where no
    # coefficient changes its polynomial is not a break at all
    energies = []
    for name, d in (("plain", None), ("broken", delta)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_break_config(d)))
        assert main(["damp", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        energies.append(json.loads((tmp_path / name / "summary.json").read_text())["energy"])
    assert energies[0] == pytest.approx(3.0243625639410, rel=1e-12)
    assert energies[1] == pytest.approx(energies[0], rel=1e-12)


def test_cli_simulate_reports_an_overflow_as_a_numerical_failure(tmp_path, capsys):
    # b_1 = 1e308 on a star's root edge overflows the forward solve: exit 3
    # naming the overflow, and no summary or trajectory full of nan
    d = json.loads((CONFIGS / "star.json").read_text())
    assert main(["damp", "--config", str(CONFIGS / "star.json"), "--out", str(tmp_path / "d"),
                 "--q", "4"]) == 0
    d["coefficients"][0]["data"] = 1e308
    (tmp_path / "big.json").write_text(json.dumps(d))
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["simulate", "--config", str(tmp_path / "big.json"), "--control",
                   str(tmp_path / "d" / "control.json"), "--out", str(tmp_path / "s")])
    assert rc == 3
    assert "numerical failure: the simulated trajectory overflowed" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_cli_simulate_writes_no_summary_that_is_not_finite(tmp_path, capsys):
    # a control of 1e200 is simulated to a finite trajectory whose squared
    # equation residual overflows
    (tmp_path / "big.json").write_text(json.dumps(
        {"edges": [{"id": 1, "breaks": [0.0, 3.0], "pieces": [[1e200]]}]}))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["simulate", "--config", str(CONFIGS / "interval.json"), "--control",
                   str(tmp_path / "big.json"), "--out", str(tmp_path / "s")])
    assert rc == 3
    assert "a result overflowed" in capsys.readouterr().err
    assert not (tmp_path / "s" / "summary.json").exists()


def test_cli_damp_reports_a_mesh_no_array_can_index(tmp_path, capsys):
    d = json.loads((CONFIGS / "interval.json").read_text())
    d["edges"][0]["length"] = 1e300
    (tmp_path / "long.json").write_text(json.dumps(d))
    assert main(["damp", "--config", str(tmp_path / "long.json"), "--out", str(tmp_path / "o")]) == 2
    assert "error: a mesh of at least 1.6e+301 elements" in capsys.readouterr().err


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    import treedamp.cli as cli_mod

    def rebuilt(*a, **kw):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli_mod.argparse, "ArgumentParser", rebuilt)
    assert main(["convergence", "--config", str(CONFIGS / "interval.json"), "--q", "2,x"]) == 2
    assert "--q expects a comma-separated integer list" in capsys.readouterr().err


def test_cli_maps_numerical_failure_to_exit_3(tmp_path, capsys, monkeypatch):
    import treedamp.cli as cli_mod

    def boom(*a, **kw):
        raise IndefiniteGramError("forced failure")

    monkeypatch.setattr(cli_mod, "solve_damping", boom)
    rc = main(["damp", "--config", str(CONFIGS / "interval.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["Unable to allocate 14.9 GiB for an array with shape "
                                     "(2000000002,) and data type float64", ""])
def test_cli_maps_running_out_of_memory_to_exit_3(tmp_path, capsys, monkeypatch, message):
    # a delay of 1e-9 asks build_mesh for two billion nodes; the error is
    # forced here, so that no test makes that allocation
    import treedamp.cli as cli_mod

    def boom(*a, **kw):
        raise MemoryError(message)

    monkeypatch.setattr(cli_mod, "solve_damping", boom)
    rc = main(["damp", "--config", str(CONFIGS / "interval.json"), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == f"out of memory: {message or 'MemoryError'}\n"
    assert not (tmp_path / "o" / "summary.json").exists()


def test_cli_reports_degenerate_gram_with_mesh_and_conditioning(tmp_path, capsys, monkeypatch):
    # every coefficient forged to zero past validation: the real solver
    # fails to factorise, and the message names h_min and the conditioning
    import treedamp.cli as cli_mod
    from treedamp.expressions import CoefficientSet

    def degenerate(tree, coeffs, phi, **kw):
        bad = object.__new__(CoefficientSet)
        for name in ("tree", "n", "tau"):
            object.__setattr__(bad, name, getattr(coeffs, name))
        for name in ("b", "c"):
            zero = tuple(tuple(oracles.poly(p) * 0.0 for p in row) for row in getattr(coeffs, name))
            object.__setattr__(bad, name, zero)
        return solve_damping(tree, bad, phi, **kw)

    monkeypatch.setattr(cli_mod, "solve_damping", degenerate)
    rc = main(["damp", "--config", str(CONFIGS / "interval.json"), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "h_min = " in err and "scaled pivot ratio" in err


def test_control_exchange_format_is_exact(tmp_path):
    cfg = ProblemConfig.from_file(CONFIGS / "interval.json")
    sol = solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=3)
    path = tmp_path / "control.json"
    path.write_text(control_text(cfg, sol.control))
    back = control_from_file(path, cfg)
    for j in range(1, cfg.tree.m + 1):
        diff = oracles.poly(back[j - 1]) - sol.control[j - 1]
        assert diff.max_abs() == 0.0


@pytest.mark.parametrize("name", ["star.json", "smoothness_loss.json"])
def test_damp_control_file_reads_back_bitwise(tmp_path, name):
    # damp writes one edge record per line; what simulate and verify read
    # back is the solved control, bit for bit
    cfg = ProblemConfig.from_file(CONFIGS / name)
    assert main(["damp", "--config", str(CONFIGS / name), "--out", str(tmp_path), "--q", "4"]) == 0
    lines = (tmp_path / "control.json").read_text().splitlines()
    assert len(lines) == cfg.tree.m + 2
    sol = solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=4)
    back = control_from_file(tmp_path / "control.json", cfg)
    for got, want in zip(back, sol.control):
        np.testing.assert_array_equal(got.breaks, want.breaks)
        np.testing.assert_array_equal(got.coefs, want.coefs)


def test_trajectory_csv_floats_round_trip(tmp_path):
    cfg_path = str(CONFIGS / "interval.json")
    out = tmp_path / "run"
    main(["damp", "--config", cfg_path, "--out", str(out), "--q", "2"])
    cfg = ProblemConfig.from_file(cfg_path)
    sol = solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=2)
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    checked = 0
    for row in rows:
        edge, t, re0, im0 = row.split(",")
        t = float(t)
        if t >= sol.y.component(1).domain[1]:
            want = sol.y.component(1).left_limit(t)
        else:
            want = sol.y.component(1).eval(t)
        assert float(re0) == want.real  # 17 significant digits: exact
        assert float(im0) == want.imag
        checked += 1
    assert checked > 10


def test_trajectory_csv_bytes_are_pinned(tmp_path):
    # 17 significant digits with trailing zeros dropped: negative zero keeps
    # its sign, a subnormal and 1e300 keep every digit, an integral float
    # has no decimal point; the rows are chosen floats, fed to the layer
    # that formats the sampled values
    y0 = np.array([complex(-0.0, 5e-324), complex(3.0, -0.0), complex(1 / 3, 1e300),
                   complex(-2.5e-310, -7.0), complex(0.1 * 3, 2.0**53)])
    y1 = np.arange(1.0, 6.0) + 0j
    rows = np.column_stack([[0.0, 0.25, 0.5, 0.75, 1.0], y0.real, y0.imag, y1.real, y1.imag])
    _write_rows(tmp_path / "trajectory.csv", (7,), [5], rows, ["y0", "y1"])
    assert (tmp_path / "trajectory.csv").read_bytes() == (
        b"edge,t,re_y0,im_y0,re_y1,im_y1\n"
        b"7,0,-0,4.9406564584124654e-324,1,0\n"
        b"7,0.25,3,-0,2,0\n"
        b"7,0.5,0.33333333333333331,1.0000000000000001e+300,3,0\n"
        b"7,0.75,-2.5000000000000171e-310,-7,4,0\n"
        b"7,1,0.30000000000000004,9007199254740992,5,0\n"
    )


@st.composite
def _edge_function(draw):
    """A piecewise polynomial on [0, T] with cells of every scale: some
    1e-11 wide and some a few ulps wide, where an interior sample can round
    onto the next break."""
    T = draw(st.sampled_from([2.0, 3.0, 1e5]))
    pts = set(draw(st.lists(st.floats(0.0, T, exclude_min=True, exclude_max=True), max_size=4)))
    for x in draw(st.lists(st.floats(0.5, T - 0.5), max_size=2)):
        pts.add(x)
        pts.add(x + 1e-11)
        pts.add(x + draw(st.integers(1, 3)) * np.spacing(x))
    breaks = np.array([0.0] + sorted(p for p in pts if 0.0 < p < T) + [T])
    width = draw(st.integers(1, 4))
    coefs = draw(st.lists(st.lists(st.complex_numbers(max_magnitude=1e3), min_size=width,
                                   max_size=width),
                          min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return PiecewisePoly(breaks, coefs)


@settings(max_examples=60, deadline=None)
@given(funcs=st.lists(_edge_function(), min_size=1, max_size=4), nderiv=st.integers(1, 3))
def test_csv_bytes_equal_the_per_edge_oracle(tmp_path_factory, funcs, nderiv):
    # edges of different widths, sampled from one table, write the bytes of
    # the edge-by-edge sampler
    names = [f"y{k}" for k in range(nderiv)]
    edge_ids = tuple(range(3, 3 + len(funcs)))
    out = tmp_path_factory.mktemp("csv")
    _write_csv(out / "table.csv", SimpleNamespace(edge_ids=edge_ids), funcs, names)
    oracles.write_csv(out / "oracle.csv", edge_ids, funcs, names)
    assert (out / "table.csv").read_bytes() == (out / "oracle.csv").read_bytes()
