"""Record the reference energies the damp workloads are checked against.

    python3 perfbench/record_reference.py

Runs every ``configs`` and ``trees`` case on its base problem (history
unscaled, edge ids as generated) through ``treedamp.cli.main`` and writes
``reference.json`` with each energy printed to 17 significant digits.  Run
it only to re-record after a change that is meant to move the answers; the
commit it ran at is stored with the energies.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, _git_commit, import_program  # noqa: E402


def main() -> int:
    import_program()
    import treedamp.cli
    from workloads import REFERENCE_FILE, GENERATORS

    energies = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        for workload in ("configs", "trees"):
            inputs = tmp / workload
            inputs.mkdir()
            energies[workload] = {}
            for case in GENERATORS[workload](0, ROOT, inputs, None):
                out = tmp / "out" / workload / case.id
                with contextlib.redirect_stdout(io.StringIO()):
                    code = treedamp.cli.main(case.argv + ["--out", str(out)])
                if code != 0:
                    print(f"{workload}/{case.id}: exit code {code}", file=sys.stderr)
                    return 1
                energies[workload][case.id] = json.loads((out / "summary.json").read_text())["energy"]
                print(f"{workload}/{case.id}: {energies[workload][case.id]:.17g}")

    lines = ['{', f'  "recorded_at": {json.dumps(_git_commit())},', '  "energies": {']
    for w, (workload, table) in enumerate(energies.items()):
        lines.append(f'    "{workload}": {{')
        for i, (cid, e) in enumerate(table.items()):
            lines.append(f'      "{cid}": {e:.17g}' + ("," if i < len(table) - 1 else ""))
        lines.append("    }" + ("," if w < len(energies) - 1 else ""))
    lines += ["  }", "}"]
    REFERENCE_FILE.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
