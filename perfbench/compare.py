"""Baselines and parent-versus-change comparisons for the treedamp benchmark.

    python3 perfbench/compare.py baseline
    python3 perfbench/compare.py run --parent DIR --change DIR --out DIR
    python3 perfbench/compare.py analyze DIR

Every run lasts BENCHMARK.json's ``run_seconds`` and is made in its own
process.

``baseline`` runs every workload of BENCHMARK.json RUNS times, with seeds
1 to RUNS, prints every end-to-end metric with its unit, checks that every
case passed, and writes the medians and spreads (quartile distance over
median) to perfbench/baseline.json.  It exits 1 when a case failed or the
spread of any end-to-end metric exceeds its bound.

``run`` measures two checkouts that carry the same benchmark files: for
each workload, PAIRS pairs of runs with a shared seed per pair (SEED0
onwards, seeds the baseline does not use), alternating which side goes
first.  Records land in ``--out``, and the analysis below follows.

``analyze`` applies, per (end-to-end metric, workload):

* the pair rule: the change improved the metric when it wins at least nine
  tenths of the pairs (ties count for neither) and the medians differ by
  more than the parent's own quartile distance;
* the no-regression check: the change's median may be worse than the
  parent's by at most the metric's bound.  Where the parent's spread is
  wider than the bound the verdict is "unresolved", unless every change run
  beats every parent run.

It also fails on any energy that differs between the two sides by more than
1e-12 relative, on a change that fails more cases than its parent, and on a
workload with fewer than PAIRS pairs.  Exit code 1 on any of these or on a
regression.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import ENERGY_RTOL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE_FILE = HERE / "baseline.json"
RUNS = 10
PAIRS = 10
SEED0 = 1000


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def spread(values) -> float:
    """Quartile distance over the median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(root: Path, workload: str, seed: int, seconds: int, record: Path) -> dict:
    """One benchmark run in its own process, from the checkout at ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--record", str(record)],
        cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# baseline


def baseline() -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    out = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    ok = True
    records = ROOT / ".perfbench_out" / "records"
    records.mkdir(parents=True, exist_ok=True)
    for w in spec["workloads"]:
        name = w["name"]
        values: dict = {}
        failed = 0
        for seed in range(1, RUNS + 1):
            result = run_once(ROOT, name, seed, seconds, records / f"{name}-{seed}.json")
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} = {v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()), flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            s = spread(vals)
            steady = s <= m["bound"]
            ok &= steady
            rows[m["name"]] = {"median": statistics.median(vals), "spread": s, "unit": m["unit"],
                               "bound": m["bound"], "values": vals}
            print(f"{name}: {m['name']} median {statistics.median(vals):.6g} {m['unit']}, "
                  f"spread {s:.4f} (bound {m['bound']}){'' if steady else '  WIDER THAN BOUND'}")
        print(f"{name}: {failed} failed cases")
        ok &= failed == 0
        out["workloads"][name] = {"failed": failed, "metrics": rows}
    BASELINE_FILE.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parent versus change


def _bench_digest(root: Path) -> str:
    """Hash of the files that decide what a run does and checks."""
    h = hashlib.sha256()
    files = sorted((root / "perfbench").glob("*.py")) + [
        root / "perfbench" / "reference.json", root / "BENCHMARK.json"]
    for p in files:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_pairs(parent: Path, change: Path, out: Path) -> int:
    parent, change = parent.resolve(), change.resolve()
    spec = load_spec()
    if _bench_digest(parent) != _bench_digest(change):
        print("the two checkouts carry different benchmark files; "
              "compare them with identical benchmark code", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    for w in (w["name"] for w in spec["workloads"]):
        for i in range(PAIRS):
            seed = SEED0 + i
            sides = [("parent", parent), ("change", change)]
            for side, root in sides if i % 2 == 0 else sides[::-1]:
                run_once(root, w, seed, spec["run_seconds"], out / f"{side}-{w}-{seed}.json")
                print(f"{w} seed {seed} {side} done", flush=True)
    return analyze(out, spec)


def _load_records(out: Path) -> dict:
    records: dict = {}
    for p in sorted(out.glob("*.json")):
        side, _, rest = p.stem.partition("-")
        if side in ("parent", "change"):
            rec = json.loads(p.read_text())
            prov = rec["provenance"]
            records.setdefault(prov["workload"], {}).setdefault(side, {})[prov["seed"]] = rec
    return records


def _case_values(rec: dict) -> dict:
    """Damp energies by case id, from every call of a run."""
    values: dict = {}
    for c in rec["calls"]:
        if c["command"] == "damp" and c["value"] is not None:
            values.setdefault(c["id"], []).append(c["value"])
    return values


def verdict(parent: list, change: list, bound: float, lower_is_better: bool = True) -> dict:
    """Pair rule and no-regression check for one (metric, workload)."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    improved = wins >= 0.9 * len(parent) and sign * (cm - pm) < 0 and abs(cm - pm) > q3 - q1
    worse = sign * (cm - pm) / abs(pm)
    all_better = all(sign * c < sign * p for c in change for p in parent)
    if improved:
        status = "improved"
    elif (q3 - q1) / abs(pm) > bound and not all_better:
        status = "unresolved"
    elif worse > bound:
        status = "regression"
    else:
        status = "ok"
    return {"status": status, "wins": wins, "pairs": len(parent), "parent_median": pm,
            "change_median": cm, "parent_quartiles": (q1, q3),
            "change_quartiles": tuple(statistics.quantiles(change, n=4)[::2])}


def analyze(out: Path, spec: dict | None = None) -> int:
    spec = spec or load_spec()
    records = _load_records(Path(out))
    bad = False
    for workload, sides in records.items():
        seeds = sorted(set(sides.get("parent", {})) & set(sides.get("change", {})))
        if len(seeds) < PAIRS:
            print(f"{workload}: {len(seeds)} pairs, fewer than the {PAIRS} the pair rule needs")
            bad = True
            continue
        P = [sides["parent"][s] for s in seeds]
        C = [sides["change"][s] for s in seeds]
        for p, c, s in zip(P, C, seeds):
            pv, cv = _case_values(p), _case_values(c)
            for cid in sorted(set(pv) & set(cv)):
                for a in pv[cid]:
                    for b in cv[cid]:
                        if abs(a - b) > ENERGY_RTOL * abs(a):
                            print(f"{workload} seed {s} {cid}: energy {a!r} (parent) vs {b!r} (change)")
                            bad = True
        pf, cf = sum(r["failed"] for r in P), sum(r["failed"] for r in C)
        if cf > pf:
            print(f"{workload}: change failed {cf} cases, parent {pf}")
            bad = True
        for m in spec["end_to_end"]:
            v = verdict([r["metrics"][m["name"]] for r in P], [r["metrics"][m["name"]] for r in C],
                        m["bound"], m["better"] == "lower")
            bad |= v["status"] == "regression"
            print(f"{workload:9s} {m['name']:13s} parent {v['parent_median']:.6g} "
                  f"[{v['parent_quartiles'][0]:.6g}, {v['parent_quartiles'][1]:.6g}]  change "
                  f"{v['change_median']:.6g} [{v['change_quartiles'][0]:.6g}, "
                  f"{v['change_quartiles'][1]:.6g}] {m['unit']}  wins {v['wins']}/{v['pairs']}  "
                  f"{v['status']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sub.add_parser("baseline", help="run every workload RUNS times and record medians")
    r = sub.add_parser("run", help="measure parent and change in alternating pairs")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--out", required=True)
    a = sub.add_parser("analyze", help="compare records written by 'run'")
    a.add_argument("dir")
    args = ap.parse_args(argv)
    if args.mode == "analyze":
        return analyze(Path(args.dir))
    if args.mode == "baseline":
        return baseline()
    return run_pairs(Path(args.parent), Path(args.change), Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
