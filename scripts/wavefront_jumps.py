#!/usr/bin/env python3
"""Track quasi-derivative jumps of the optimal trajectory across refinement.

A history whose n-th derivative steps at an interior instant keeps the
lower quasi-derivatives converging to continuous limits, while the order
n + 1 quasi-derivative keeps a fixed-height jump at the image of the step
under the delay shift.  The refinement ladder below holds that instant
strictly inside an element at every level, so the genuine jump is visible
next to the shrinking discretisation jitter.

    python3 scripts/wavefront_jumps.py
    python3 scripts/wavefront_jumps.py --q 3,9,27,81
"""

import argparse
from pathlib import Path

from treedamp.config import ProblemConfig
from treedamp.damping import solve_damping
from treedamp.diagnostics import (
    continuity_report,
    detect_persistent_jump,
    quasi_derivatives,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(Path(__file__).resolve().parents[1]
                                            / "configs" / "smoothness_loss.json"))
    ap.add_argument("--q", default="3,9,27",
                    help="elements per delay span, odd so tau/2 stays off the mesh")
    ap.add_argument("--edge", type=int, default=1)
    ap.add_argument("--at", type=float, default=None,
                    help="wavefront location, default tau/2")
    args = ap.parse_args()

    cfg = ProblemConfig.from_file(args.config)
    qs = [int(s) for s in args.q.split(",")]
    loc = (args.edge, cfg.tau / 2 if args.at is None else args.at)
    orders = list(range(cfg.n, 2 * cfg.n))

    reports = []
    print(f"# {args.config}: per-order max jumps, energy per level")
    print(f"{'q':>6} {'J':>16}" + "".join(f"{'order ' + str(k):>13}" for k in orders))
    for q in qs:
        sol = solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=q)
        rep = continuity_report(quasi_derivatives(sol.coeffs, sol.control))
        reports.append(rep)
        print(f"{q:>6} {sol.energy:>16.10f}"
              + "".join(f"{rep[k]['max_jump']:>13.3e}" for k in orders))

    top = 2 * cfg.n - 1
    print()
    print(f"largest order-{top} jumps at the finest level (edge, t, height)")
    finest = sorted(reports[-1][top]["jumps"], key=lambda r: -abs(r[2]))
    for j, t, m in finest[:8]:
        print(f"  edge {j}  t = {t:<10.6g} |jump| = {m:.6e}")

    verdict = detect_persistent_jump(
        [rep[top] for rep in reports], location=loc,
        exclude_radius=cfg.tau / qs[-1])
    print()
    print(f"candidate at edge {loc[0]}, t = {loc[1]}: "
          f"height {verdict['magnitude']:.6f}, "
          f"level-to-level change {verdict['change']:.2%}, "
          f"separation from the rest {verdict['separation']:.1f}x, "
          f"persistent = {verdict['persistent']}")


if __name__ == "__main__":
    main()
