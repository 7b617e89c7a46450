"""treedamp benchmark: closed-loop ``damp``/``simulate`` ladders through the CLI.

    python3 perfbench/run.py --workload configs --seed 1 --seconds 20 --trace 0

One process, one case at a time: each call of a case runs
``treedamp.cli.main`` in process and the next call starts when it returns.
A pass runs the workload's case list, calling each case again until its
calls add up to MIN_CASE_SECONDS; a new pass starts while less than
``--seconds`` of measuring have gone by.  Every call's output is checked
(see workloads.py).

Every timed call and set-up is scaled to one reference speed of the
machine by a calibration loop run just before, just after and at short
intervals during it (see speed.py); a case's time is the median of its
scaled calls in the run.

Set-up runs in a fresh interpreter: start, import, input generation and
reference/control manufacture, written to disk with the case list.  The
first set-up makes the inputs the run measures; more are done before the
passes, and after the last one, until there are SETUPS.  The measuring
process only imports the program and reads the case list, so its memory
before the first call is the interpreter's and the libraries'.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the median of
the set-ups), ``wall_s`` (the sum of the case times: one pass),
``max_case_s`` (the slowest case), ``min_case_s`` (the fastest) and
``peak_rss_mib`` (how far the program's calls raised the process's memory
high-water mark above its level before the first call).  Every case's
time is in the ``--record`` file.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of tracing.py instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record FILE``
also writes the full run (provenance, every call's answer and time) as JSON,
which is what compare.py reads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"

END_TO_END = {"setup_s": "s", "wall_s": "s", "max_case_s": "s", "min_case_s": "s",
              "peak_rss_mib": "MiB"}
MIN_CASE_SECONDS = 0.5
SETUPS = 7


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import treedamp from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "treedamp" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        _fail(f"no treedamp sources under {src} (run from a full checkout)")
    sys.path.insert(0, str(src))
    import treedamp.cli

    if Path(treedamp.cli.__file__).resolve().parent != (src / "treedamp").resolve():
        _fail(f"imported treedamp from {treedamp.cli.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# provenance


def _blas_threads():
    """Threads of the OpenBLAS numpy loaded, read through its own call."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = _blas_threads()
    except OSError:
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# running cases


def run_case(case, out_root: Path, key: str, scale, recorder=None) -> dict:
    """One closed-loop call of the CLI, timed, then checked.  ``key`` names
    this run of the case in the trace; ``scale`` (a speed.SpeedScale) also
    gives the call's time at the reference speed."""
    import treedamp.cli
    from workloads import CHECKS

    out = out_root / case.id
    shutil.rmtree(out, ignore_errors=True)
    if recorder is not None:
        recorder.case = key
    problems, value = [], None
    with scale.timed() as took:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = treedamp.cli.main(case.argv + ["--out", str(out)])
        except (Exception, SystemExit):  # a crashing case is a failed case
            code = None
            problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
    if code not in (0, None):
        problems.append(f"exit code {code}")
    if not problems:
        try:
            value, problems = CHECKS[case.command](out, case.expect)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    if recorder is not None:
        recorder.pauses += took.pauses
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0
        recorder.count("cli.bytes_written", written)
        recorder.case = ""
    shutil.rmtree(out, ignore_errors=True)
    for p in problems:
        print(f"FAIL {case.id}: {p}", file=sys.stderr)
    return {"id": case.id, "command": case.command, "key": key, "seconds": took.seconds,
            "scaled_s": took.scaled, "value": value, "ok": not problems, "problems": problems}


def run_pass(cases, out_root: Path, tag: str, scale, recorder=None) -> list:
    """Each case in turn, called again until its calls add up to
    MIN_CASE_SECONDS, so that short cases get several samples."""
    calls = []
    for case in cases:
        spent, rep = 0.0, 0
        while rep == 0 or spent < MIN_CASE_SECONDS:
            r = run_case(case, out_root, f"{tag}/{case.id}/{rep}", scale, recorder)
            r["traced"] = recorder is not None
            calls.append(r)
            spent += r["seconds"]
            rep += 1
    return calls


def generate(workload: str, seed: int, inputs: Path) -> list:
    """The workload's inputs and case list, written into ``inputs``."""
    from workloads import GENERATORS, load_reference, write_cases

    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    cases = GENERATORS[workload](seed, ROOT, inputs, load_reference().get(workload))
    write_cases(inputs, cases)
    return cases


def set_up(workload: str, seed: int, inputs: Path, scale) -> float:
    """Seconds a fresh interpreter takes to import the program and generate
    the workload's inputs and case list into ``inputs`` (``--setup-only``),
    at the reference speed.  The child samples the calibration loop while it
    works and prints the loop times, which are taken out of its time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--setup-only", str(inputs)],
                          capture_output=True, text=True, timeout=120)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        _fail(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    inside = json.loads(proc.stdout.strip().splitlines()[-1])
    return scale(took - sum(inside), inside)


def measure(cases, seconds: float, out_root: Path, scale, setup=None, setups=(), recorder=None):
    """Whole passes, started while less than ``seconds`` have gone by, so the
    last pass may end after ``seconds``.  ``setup`` is called before each
    pass, and after the last one, until there are SETUPS set-up times,
    counting those already in ``setups``.  With a recorder an untraced and
    a traced pass alternate.  Returns every call, the set-up times and the
    number of passes."""
    from tracing import Installed

    calls, setups, passes = [], list(setups), 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        if setup is not None and len(setups) < SETUPS:
            setups.append(setup())
        calls += run_pass(cases, out_root, f"p{passes}", scale)
        if recorder is not None:
            with Installed(recorder):
                calls += run_pass(cases, out_root, f"t{passes}", scale, recorder)
        passes += 1
    while setup is not None and len(setups) < SETUPS:
        setups.append(setup())
    return calls, setups, passes


def case_times(calls) -> dict:
    """Each case's time, the median of its calls at the reference speed, in
    case order."""
    times: dict = {}
    for c in calls:
        times.setdefault(c["id"], []).append(c["scaled_s"])
    return {cid: statistics.median(ts) for cid, ts in times.items()}


def max_rss_mib() -> float:
    """This process's memory high-water mark (set-ups run in children)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(calls, setups, rss_before: float) -> dict:
    """``rss_before`` is the high-water mark read after import and before the
    first call, so ``peak_rss_mib`` is what the program's calls add."""
    t = case_times(calls)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(t.values()),
        "max_case_s": max(t.values()),
        "min_case_s": min(t.values()),
        "peak_rss_mib": max_rss_mib() - rss_before,
    }


def per_layer(calls, recorder) -> dict:
    """Per-layer totals of one pass: for each case the median over its traced
    calls, summed over the cases (sizes take the largest case instead).
    Times are scaled to the reference speed like their call's."""
    from tracing import MAX_COUNTERS, per_layer_names

    by_call = recorder.totals_by_case()
    samples: dict = {}
    for c in calls:
        if c["traced"]:
            for name, v in by_call.get(c["key"], {}).items():
                if name.endswith("_s"):
                    v *= c["scaled_s"] / c["seconds"]
                samples.setdefault(name, {}).setdefault(c["id"], []).append(v)
    out = {}
    for name in per_layer_names()[:-1]:
        per_case = [statistics.median(v) for v in samples.get(name, {}).values()] or [0]
        out[name] = max(per_case) if name in MAX_COUNTERS else sum(per_case)
    traced = sum(case_times([c for c in calls if c["traced"]]).values())
    plain = sum(case_times([c for c in calls if not c["traced"]]).values())
    out["trace.overhead_s"] = traced - plain
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name == "cli.bytes_written":
        return "bytes"
    if name.endswith("_flops"):
        return "flop"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="write the full run as JSON to this file")
    ap.add_argument("--setup-only", metavar="DIR",
                    help="only import the program and generate the inputs into DIR")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    sys.path.insert(0, str(HERE))
    from speed import REFERENCE_S, SETUP_SAMPLE_S, SpeedScale, sampling

    if args.setup_only:
        with sampling(SETUP_SAMPLE_S) as pauses:
            import_program()
            generate(args.workload, args.seed, Path(args.setup_only))
        print(json.dumps([end - start for start, end in pauses]))
        return 0
    import_program()
    from workloads import WORKLOADS, load_cases

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    scale = SpeedScale()
    first_setup = set_up(args.workload, args.seed, work / "inputs", scale)
    cases = load_cases(work / "inputs")
    out_root = work / "out"

    rss_before = max_rss_mib()
    warm = run_case(cases[0], out_root, "warmup", scale)
    recorder = setups = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder()
        calls, _, passes = measure(cases, args.seconds, out_root, scale, recorder=recorder)
        metrics = per_layer(calls, recorder)
        units = {name: layer_unit(name) for name in metrics}
    else:
        calls, setups, passes = measure(
            cases, args.seconds, out_root, scale, setups=[first_setup],
            setup=lambda: set_up(args.workload, args.seed, work / "setup", scale))
        metrics = end_to_end(calls, setups, rss_before)
        units = END_TO_END

    attempted = 1 + len(calls)
    failed = (not warm["ok"]) + sum(not c["ok"] for c in calls)
    prov = provenance(args.workload, args.seed)
    shutil.rmtree(work, ignore_errors=True)

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"{args.workload}: {len(cases)} cases, {passes} passes, {attempted} calls "
          f"(1 warm-up), fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"speed: calibration loop median {statistics.median(scale.loops):.6g} s over "
          f"{len(scale.loops)} runs (reference {REFERENCE_S} s); unscaled wall time of the "
          f"timed calls {sum(c['seconds'] for c in calls):.6g} s")
    for name, v in metrics.items():
        print(f"  {name} = {v:.6g} {units[name]}")
    if recorder is not None:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        recorder.write(traces / f"{args.workload}-s{args.seed}.json")
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({"provenance": prov, "seconds": args.seconds, "trace": args.trace,
                       "setups": setups, "calibration_loops": scale.loops, "metrics": metrics, "attempted": attempted,
                       "failed": failed, "calls": [warm] + calls}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
