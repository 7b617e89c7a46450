#!/usr/bin/env python3
"""Decay of the vertex balance defect under mesh refinement.

Solves the star fixture for a ladder of refinement levels and several
multiples of its coefficient perturbation, then tabulates the worst
Kirchhoff defect over the internal vertices.  The defect scales like
(perturbation) x (mesh width): the discrete optimum satisfies the balance
exactly when all lower-order coefficients vanish, and breaking them by an
amount eps moves the natural interface condition by O(eps h).

    python3 scripts/vertex_balance_study.py
    python3 scripts/vertex_balance_study.py --config configs/star.json --q 2,4,8,16,32
"""

import argparse
from pathlib import Path

from treedamp.config import ProblemConfig
from treedamp.expressions import CoefficientSet
from treedamp.damping import solve_damping
from treedamp.diagnostics import kirchhoff_residual, quasi_derivatives
from treedamp.piecewise import PiecewisePoly


def scaled_coeffs(cs: CoefficientSet, amp: float) -> CoefficientSet:
    """Multiply every non-mandatory coefficient by ``amp``."""
    terms = {(f, j): p if f == cs.n else PiecewisePoly(p.breaks, p.coefs * amp)
             for (f, j), p in cs.terms.items()}
    return CoefficientSet(cs.tree, cs.n, cs.tau, terms)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(Path(__file__).resolve().parents[1]
                                            / "configs" / "star.json"))
    ap.add_argument("--q", default="2,4,8,16,32")
    ap.add_argument("--amp", default="0.25,1.0,4.0",
                    help="perturbation multipliers, comma separated")
    args = ap.parse_args()

    cfg = ProblemConfig.from_file(args.config)
    qs = [int(s) for s in args.q.split(",")]
    amps = [float(s) for s in args.amp.split(",")]

    print(f"# {args.config}: worst Kirchhoff defect max_k |y^<k>(l_j) - sum y^<k>(0)|")
    header = f"{'q':>6}" + "".join(f"{'amp=' + str(a):>14}" for a in amps)
    print(header)
    table = []
    for q in qs:
        row = []
        for a in amps:
            sol = solve_damping(cfg.tree, scaled_coeffs(cfg.coeffs, a),
                                cfg.history, q=q)
            row.append(kirchhoff_residual(quasi_derivatives(sol.coeffs, sol.control))["max"])
        table.append(row)
        print(f"{q:>6}" + "".join(f"{d:>14.3e}" for d in row))

    print()
    print("per-doubling decay ratios")
    print(header)
    for (q, prev, cur) in zip(qs[1:], table, table[1:]):
        print(f"{q:>6}" + "".join(f"{p / c:>14.2f}" for p, c in zip(prev, cur)))


if __name__ == "__main__":
    main()
