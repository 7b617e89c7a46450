"""Edge operators, delayed reads, and the control cost."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treedamp.diagnostics import quasi_derivatives
from treedamp.piecewise import BREAK_RTOL, EdgePieces, PiecewisePoly
from treedamp.trees import build_tree, interval, star
from treedamp.expressions import (
    CoefficientError,
    CoefficientSet,
    apply_operator,
    lead_ins,
    operator_components,
    variation_weights,
)

import oracles
from oracles import advanced_part, delayed_part, eval_at, tree_function


def test_reduced_length_interval_and_star():
    tr = interval(3.0)
    assert oracles.reduced_length(tr, 1.0, 1) == pytest.approx(2.0)
    tr = star([2.0, 2.0, 2.0])
    assert oracles.reduced_length(tr, 0.5, 1) == pytest.approx(2.0)   # internal
    assert oracles.reduced_length(tr, 0.5, 2) == pytest.approx(1.5)   # boundary


def test_coefficient_set_requires_leading_term():
    tr = interval(2.0)
    with pytest.raises(CoefficientError, match="required"):
        CoefficientSet.build(tr, 1, 0.5, b={}, c={})


def test_coefficient_set_rejects_vanishing_leading_term():
    tr = interval(2.0)
    lead = PiecewisePoly.from_global_coefs(0.0, 2.0, [0.0, 1.0])  # zero at t = 0
    with pytest.raises(CoefficientError, match="away from zero"):
        CoefficientSet.build(tr, 1, 0.5, b={(1, 1): lead}, c={})


def test_coefficient_set_rejects_interior_zero_of_leading_term():
    # b_1(t) = t - 0.1 vanishes between sample points of the piece
    tr = interval(3.0)
    lead = PiecewisePoly.from_global_coefs(0.0, 3.0, [-0.1, 1.0])
    with pytest.raises(CoefficientError, match="away from zero"):
        CoefficientSet.build(tr, 1, 1.0, b={(1, 1): lead}, c={})


def test_coefficient_set_rejects_delay_not_below_shortest_edge():
    tr = star([2.0, 1.0, 3.0])
    with pytest.raises(CoefficientError, match="shortest edge"):
        CoefficientSet.build(tr, 1, 1.0, b={(1, j): 1.0 for j in range(1, 4)}, c={})


def test_coefficient_set_rejects_wrong_domain():
    tr = interval(2.0)
    bad = PiecewisePoly.constant(0.0, 1.5, 1.0)
    with pytest.raises(CoefficientError, match="domain"):
        CoefficientSet.build(tr, 1, 0.5, b={(1, 1): bad}, c={})


@pytest.mark.parametrize("b", [
    {(1, 1): 1.0, (2, 1): 5.0},
    {(1, 1): 1.0, (0, 7): 3.0},
    {(1, 1): 1.0, (-1, 1): 3.0},
    {(1, 1): 1.0, 1: 3.0},
])
def test_coefficient_set_rejects_keys_outside_orders_and_edges(b):
    tr = interval(2.0)
    (stray,) = set(b) - {(1, 1)}
    with pytest.raises(CoefficientError, match=re.escape(f"b[{stray!r}] is outside")):
        CoefficientSet.build(tr, 1, 0.5, b=b, c={})
    with pytest.raises(CoefficientError, match=re.escape(f"c[{stray!r}] is outside")):
        CoefficientSet.build(tr, 1, 0.5, b={(1, 1): 1.0}, c={stray: 1.0})


def test_coefficient_defaults_are_zero():
    tr = interval(2.0)
    cs = CoefficientSet.build(tr, 2, 0.5, b={(2, 1): 1.0}, c={})
    # only the given coefficient is stored; every other one reads as zero
    assert list(cs.terms) == [(2, 1)]
    assert cs.present[:, 0].tolist() == [False, False, True, False, False, False]
    assert oracles.coefficient(cs, 0, 1).max_abs() == 0.0
    assert oracles.coefficient(cs, 5, 1).max_abs() == 0.0


def test_breakpoints_collects_interior_coefficient_breaks():
    tr = interval(2.0)
    b0 = PiecewisePoly(np.array([0.0, 0.7, 2.0]), [np.array([1.0]), np.array([2.0])])
    cs = CoefficientSet.build(tr, 1, 0.5, b={(1, 1): 1.0, (0, 1): b0}, c={})
    edge, points = cs.breakpoints()
    assert list(edge) == [0] and list(points) == [0.7]


def test_breakpoints_skip_a_break_that_changes_nothing():
    # 1 + 2t split at 0.7 and written in local powers on both sides is one
    # polynomial; c_0 really switches at 1.3
    tr = interval(2.0)
    line = PiecewisePoly(np.array([0.0, 0.7, 2.0]), [np.array([1.0, 2.0]), np.array([2.4, 2.0])])
    step = PiecewisePoly(np.array([0.0, 1.3, 2.0]), [np.array([0.5]), np.array([0.25])])
    cs = CoefficientSet.build(tr, 1, 0.5, b={(1, 1): line}, c={(0, 1): step})
    edge, points = cs.breakpoints()
    assert list(edge) == [0] and list(points) == [1.3]


@st.composite
def broken_coefficient_sets(draw):
    """Coefficient sets on trees of 1-5 edges whose coefficients break at a
    few shared points of each edge.  At each break a coefficient keeps its
    polynomial or adds a constant of at least 0.1; one of the shared points
    has a twin within ``BREAK_RTOL`` that other families may break at."""
    m = draw(st.integers(min_value=1, max_value=5))
    parents = {1: 0} | {e: draw(st.integers(min_value=1, max_value=e - 1)) for e in range(2, m + 1)}
    tree = build_tree(parents, {e: draw(st.sampled_from([1.0, 2.5, 3.0])) for e in parents})
    n = draw(st.integers(min_value=1, max_value=3))
    small = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
    jump = st.sampled_from([0.0, 0.0, 0.1, -0.3j, 0.5])
    tables = {"b": {}, "c": {}}
    for j in range(1, m + 1):
        T = tree.length(j)
        for fam in ("b", "c"):
            for k in range(n + 1):
                lead = fam == "b" and k == n
                if not lead and not draw(st.booleans()):
                    continue
                twin = draw(st.booleans())
                pool = [0.3 * T, 0.55 * T + (0.4 * BREAK_RTOL * max(1.0, T) if twin else 0.0), 0.8 * T]
                cuts = sorted(draw(st.sets(st.sampled_from(pool), max_size=3)))
                coefs = [1.0] if lead else draw(st.lists(small, min_size=1, max_size=3))
                pieces, breaks = [], [0.0, *cuts, T]
                for a, b in zip(breaks[:-1], breaks[1:]):
                    pieces.append(PiecewisePoly.from_global_coefs(a, b, coefs).coefs[0])
                    coefs = [coefs[0] + draw(jump), *coefs[1:]]
                tables[fam][(k, j)] = PiecewisePoly(breaks, pieces)
    return CoefficientSet.build(tree, n, 0.5, b=tables["b"], c=tables["c"])


@settings(max_examples=60, deadline=None)
@given(broken_coefficient_sets())
def test_breakpoints_match_the_per_coefficient_rule(cs):
    # one pass over the families table keeps the breaks the per-coefficient
    # rule keeps; where two families break within BREAK_RTOL, either point
    # of the pair may stand for it
    edge, points = cs.breakpoints()
    assert np.all(np.diff(edge) >= 0)
    for j in range(1, cs.tree.m + 1):
        want = oracles.breakpoints(cs, j)
        got = points[edge == j - 1]
        assert len(got) == len(want)
        assert np.all(np.abs(got - want) <= BREAK_RTOL * max(1.0, cs.tree.length(j)))


def _tf_interval(coefs_y, coefs_phi, T=3.0, tau=1.0, n=1):
    y = PiecewisePoly.from_global_coefs(0.0, T, coefs_y)
    phi = PiecewisePoly.from_global_coefs(-tau, 0.0, coefs_phi)
    return tree_function(interval(T), n, (y,), phi)


def test_eval_delayed_reads_history_and_parent():
    # interval: negative times hit the history
    y = _tf_interval([0.0, 1.0], [2.0, 1.0])  # y = t, phi = 2 + t
    assert oracles.eval_delayed(y, 1, 0.5) == pytest.approx(0.5)
    assert oracles.eval_delayed(y, 1, -0.25) == pytest.approx(1.75)
    assert oracles.eval_delayed(y, 1, -0.25, k=1) == pytest.approx(1.0)

    # star: edge 2 at negative time reads the tail of edge 1
    tr = star([2.0, 2.0, 2.0])
    comps = (
        PiecewisePoly.from_global_coefs(0.0, 2.0, [0.0, 1.0]),   # t on edge 1
        PiecewisePoly.constant(0.0, 2.0, 5.0),
        PiecewisePoly.constant(0.0, 2.0, 7.0),
    )
    w = tree_function(tr, 1, comps, PiecewisePoly.zero(-1.0, 0.0))
    assert oracles.eval_delayed(w, 2, -0.5) == pytest.approx(1.5)  # y_1(2 - 0.5)
    assert oracles.eval_delayed(w, 3, -0.5, k=1) == pytest.approx(1.0)


def test_delayed_part_concatenates_history_head():
    y = _tf_interval([0.0, 0.0, 1.0], [1.0], T=3.0, tau=1.0)  # y = t^2, phi = 1
    dp = delayed_part(y, 1)
    assert dp.domain == (0.0, 3.0)
    assert eval_at(dp, 0.5) == pytest.approx(1.0)            # history window
    assert eval_at(dp, 2.5) == pytest.approx((2.5 - 1) ** 2)  # shifted main part
    # derivative order moves through the delayed read
    dp1 = dp.derivative(1)
    assert eval_at(dp1, 2.0) == pytest.approx(2.0 * (2.0 - 1.0))
    assert eval_at(dp1, 0.3) == pytest.approx(0.0)


def test_delayed_part_reads_parent_tail():
    tr = star([2.0, 2.0, 2.0])
    comps = (
        PiecewisePoly.from_global_coefs(0.0, 2.0, [0.0, 0.0, 1.0]),  # t^2
        PiecewisePoly.constant(0.0, 2.0, 0.0),
        PiecewisePoly.constant(0.0, 2.0, 0.0),
    )
    y = tree_function(tr, 1, comps, PiecewisePoly.zero(-0.5, 0.0))
    dp = delayed_part(y, 2)
    # on [0, tau): y_2(t - tau) = y_1(T_1 + t - tau)
    assert eval_at(dp, 0.2) == pytest.approx((2.0 + 0.2 - 0.5) ** 2)
    # past tau it reads edge 2 itself (zero)
    assert eval_at(dp, 1.0) == pytest.approx(0.0)


def test_advanced_part_is_adjoint_of_delayed_part():
    # sum over edges of <delayed_part(y, nu), g_nu> equals the sum of
    # <y_j, advanced_part(g, j)> over the active windows [0, l_j]
    tau = 0.5
    tr = star([2.0, 1.5, 2.5])
    rng = np.random.default_rng(5)

    def rand(T):
        return PiecewisePoly.from_global_coefs(0.0, T, rng.standard_normal(3) + 1j * rng.standard_normal(3))

    y = tree_function(tr, 1, tuple(rand(T) for T in tr.lengths), PiecewisePoly.zero(-tau, 0.0))
    g = [rand(T) for T in tr.lengths]
    delayed = sum(oracles.inner(delayed_part(y, nu), g[nu - 1]) for nu in range(1, 4))
    advanced = 0.0j
    for j in range(1, 4):
        adv = advanced_part(g, tr, tau, j)
        assert adv.domain == (0.0, oracles.reduced_length(tr, tau, j))
        advanced += oracles.inner(oracles.poly(y.component(j)).restrict(*adv.domain), adv)
    assert advanced == pytest.approx(delayed, rel=1e-12)


def test_apply_operator_hand_case():
    # L y = y' + 0.5 y'(. - tau) + 2 y + y(. - tau) on [0, 3], tau = 1
    # y = t^2, phi = 1 (so y(t - 1) = 1 on [0, 1), (t-1)^2 after)
    y = _tf_interval([0.0, 0.0, 1.0], [1.0], T=3.0, tau=1.0)
    cs = CoefficientSet.build(
        interval(3.0), 1, 1.0,
        b={(1, 1): 1.0, (0, 1): 2.0},
        c={(1, 1): 0.5, (0, 1): 1.0},
    )
    Ly = apply_operator(y, cs, 1)
    t = 0.4  # delayed reads in the history window
    assert eval_at(Ly, t) == pytest.approx(2 * t + 0.0 + 2 * t**2 + 1.0)
    t = 2.2  # delayed reads on the edge itself
    assert eval_at(Ly, t) == pytest.approx(2 * t + 0.5 * 2 * (t - 1) + 2 * t**2 + (t - 1) ** 2)


def test_energy_hand_case():
    # y = 1 - t/2 on [0, 2], phi = 1, L y = y': J = int_0^2 1/4 = 1/2
    y = _tf_interval([1.0, -0.5], [1.0], T=2.0, tau=0.5)
    cs = CoefficientSet.build(interval(2.0), 1, 0.5, b={(1, 1): 1.0}, c={})
    assert oracles.energy(y, cs) == pytest.approx(0.5, rel=1e-14)


def test_energy_product_polarises_energy():
    y = _tf_interval([1.0, -0.5, 0.25], [1.0], T=2.0, tau=0.5)
    cs = CoefficientSet.build(
        interval(2.0), 1, 0.5, b={(1, 1): 1.0, (0, 1): 0.3}, c={(0, 1): 0.2}
    )
    yy = oracles.energy_product(y, y, cs)
    assert yy.real == pytest.approx(oracles.energy(y, cs), rel=1e-13)
    assert abs(yy.imag) < 1e-13


def test_energy_product_is_sesquilinear():
    tr = interval(2.0)
    cs = CoefficientSet.build(tr, 1, 0.5, b={(1, 1): 1.0, (0, 1): 1.0}, c={(1, 1): 0.5})
    y = _tf_interval([1.0, 1.0], [0.0, 1.0], T=2.0, tau=0.5)
    w = _tf_interval([0.0, 0.0, 1.0], [0.5], T=2.0, tau=0.5)
    z = _tf_interval([2.0], [2.0], T=2.0, tau=0.5)
    a = 1.5 - 0.5j
    left = oracles.energy_product(oracles.scaled(y, a), w, cs)
    assert left == pytest.approx(a * oracles.energy_product(y, w, cs), rel=1e-12)
    right = oracles.energy_product(y, oracles.scaled(w, a), cs)
    assert right == pytest.approx(np.conj(a) * oracles.energy_product(y, w, cs), rel=1e-12)
    both = oracles.energy_product(y, w + z, cs)
    assert both == pytest.approx(
        oracles.energy_product(y, w, cs) + oracles.energy_product(y, z, cs), rel=1e-12
    )


def test_energy_is_nonnegative_quadratic():
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(
        tr, 1, 0.5,
        b={(1, j): 1.0 for j in range(1, 4)} | {(0, 1): 0.4},
        c={(1, 2): 0.3, (0, 3): -0.2},
    )
    rng = np.random.default_rng(7)
    for _ in range(5):
        comps = tuple(
            PiecewisePoly.from_global_coefs(0.0, 2.0, rng.standard_normal(3))
            for _ in range(3)
        )
        y = tree_function(tr, 1, comps, PiecewisePoly.from_global_coefs(-0.5, 0.0, rng.standard_normal(2)))
        assert oracles.energy(y, cs) >= 0.0


def _admissible_star_pair(rng, tau=0.5):
    """A trajectory y and an admissible perturbation w on an m = 3 star.

    Admissible: zero history, C^{n-1} vertex matching, rest on the final
    delay window of every boundary edge.
    """
    tr = star([2.0, 2.0, 2.0])
    comps = tuple(
        PiecewisePoly.from_global_coefs(0.0, 2.0, rng.standard_normal(4))
        for _ in range(3)
    )
    y = tree_function(tr, 1, comps, PiecewisePoly.from_global_coefs(-tau, 0.0, rng.standard_normal(2)))

    # w: cubic bump vanishing at 0 on the root, matched values at the vertex,
    # boundary components decaying to zero before T - tau and resting after.
    w1 = PiecewisePoly.from_global_coefs(0.0, 2.0, [0.0, 0.0, 1.0, -0.25])  # t^2 - t^3/4
    v = eval_at(w1, 2.0)
    rest = 2.0 - tau
    ramps = []
    for fall in (1.0, 2.0):
        # quadratic from v at 0 to 0 at rest with zero slope at rest
        a0 = v * fall
        ramp = PiecewisePoly(
            np.array([0.0, rest, 2.0]),
            [np.array([a0, -2 * a0 / rest, a0 / rest**2]), np.array([0.0])],
        )
        ramps.append(ramp)
    # vertex matching needs w_2(0) = w_3(0) = w_1(2): rescale the second ramp
    w2, w3 = ramps[0], oracles.poly(ramps[1]) * 0.5
    w = tree_function(tr, 1, (w1, w2, w3), PiecewisePoly.zero(-tau, 0.0))
    assert oracles.vertex_defect(w) < 1e-12 and oracles.history_defect(w) < 1e-12
    return tr, y, w


def test_energy_product_reindexed_matches_direct():
    rng = np.random.default_rng(11)
    tr, y, w = _admissible_star_pair(rng)
    cs = CoefficientSet.build(
        tr, 1, 0.5,
        b={(1, j): 1.0 for j in range(1, 4)}
        | {(0, 1): 0.7, (0, 2): -0.3},
        c={(1, 1): 0.4, (1, 3): 0.2, (0, 2): 0.6},
    )
    direct = oracles.energy_product(y, w, cs)
    reindexed = oracles.energy_product_reindexed(y, w, cs)
    assert reindexed == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_variation_weights_interval_weight():
    """On an interval the weight is b * Ly + advanced c * Ly, checked by hand."""
    T, tau = 3.0, 1.0
    tr = interval(T)
    cs = CoefficientSet.build(
        tr, 1, tau, b={(1, 1): 1.0, (0, 1): 0.5}, c={(1, 1): 0.25, (0, 1): 2.0}
    )
    y = _tf_interval([1.0, 1.0, 0.5], [1.0, 1.0], T=T, tau=tau)
    Ly = apply_operator(y, cs, 1)
    for k, bk, ck in ((0, 0.5, 2.0), (1, 1.0, 0.25)):
        (weight,) = variation_weights(cs, (Ly,), k)
        assert weight.domain == (0.0, T - tau)
        for t in (0.3, 1.1, 1.9):
            expect = bk * eval_at(Ly, t) + ck * eval_at(Ly, t + tau)
            assert eval_at(weight, t) == pytest.approx(expect, rel=1e-12)


def test_variation_weights_star_late_window_uses_children():
    tau = 0.5
    tr = star([2.0, 2.0, 2.0])
    cmap = {(1, 1): 0.3, (1, 2): 0.7, (1, 3): -0.2, (0, 2): 1.1}
    cs = CoefficientSet.build(
        tr, 1, tau, b={(1, j): 1.0 for j in range(1, 4)}, c=cmap
    )
    rng = np.random.default_rng(3)
    comps = tuple(
        PiecewisePoly.from_global_coefs(0.0, 2.0, rng.standard_normal(3))
        for _ in range(3)
    )
    y = tree_function(tr, 1, comps, PiecewisePoly.from_global_coefs(-tau, 0.0, rng.standard_normal(2)))
    ells = [apply_operator(y, cs, j) for j in range(1, 4)]
    T1 = 2.0
    for k in (0, 1):
        weight = variation_weights(cs, ells, k)[0]
        assert weight.domain == (0.0, T1)
        t = T1 - 0.2  # inside the final delay window
        bk = 1.0 if k == 1 else 0.0
        expect = bk * eval_at(ells[0], t)
        for nu in (2, 3):
            c_nu = oracles.coefficient(cs, cs.n + 1 + k, nu)
            expect += np.conj(eval_at(c_nu, t - (T1 - tau))) * eval_at(ells[nu - 1], t - (T1 - tau))
        assert eval_at(weight, t) == pytest.approx(expect, rel=1e-11, abs=1e-13)


def test_tree_function_defect_reports():
    tr = star([2.0, 2.0, 2.0])
    comps = (
        PiecewisePoly.constant(0.0, 2.0, 1.0),
        PiecewisePoly.constant(0.0, 2.0, 1.0),
        PiecewisePoly.constant(0.0, 2.0, 4.0),  # vertex mismatch of 3
    )
    y = tree_function(tr, 1, comps, PiecewisePoly.constant(-0.5, 0.0, 1.0))
    assert oracles.vertex_defect(y) == pytest.approx(3.0)
    assert oracles.history_defect(y) == pytest.approx(0.0)
    assert oracles.smoothness_defect(y) == pytest.approx(0.0)


def test_tree_function_arithmetic():
    y = _tf_interval([1.0, 2.0], [1.0])
    z = _tf_interval([3.0], [0.0])
    s = y + oracles.scaled(z, 2.0) - z
    assert eval_at(s.component(1), 1.0) == pytest.approx(1.0 + 2.0 + 3.0)
    assert eval_at(s.history, -0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):  # histories on different windows
        y + _tf_interval([3.0], [0.0], tau=0.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_energy_nonnegative_random(seed):
    rng = np.random.default_rng(seed)
    tr = interval(2.0)
    cs = CoefficientSet.build(
        tr, 1, 0.5,
        b={(1, 1): 1.0 + abs(rng.standard_normal()), (0, 1): rng.standard_normal()},
        c={(1, 1): rng.standard_normal(), (0, 1): rng.standard_normal()},
    )
    y = _tf_interval(rng.standard_normal(4), rng.standard_normal(3), T=2.0, tau=0.5)
    J = oracles.energy(y, cs)
    assert J >= 0.0
    assert oracles.energy_product(y, y, cs).real == pytest.approx(J, rel=1e-11, abs=1e-13)


# ----------------------------------------------------------------------
# the whole-tree tables against the edge-by-edge symbolic route


def _random_piecewise(rng, a, b, pieces, width):
    """Complex pieces of random widths up to ``width`` on random breaks,
    each within a third of a spacing of an equispaced grid."""
    breaks = np.linspace(a, b, pieces + 1)
    breaks[1:-1] += (b - a) / pieces * rng.uniform(-1 / 3, 1 / 3, pieces - 1)
    return oracles.Poly(breaks, [rng.standard_normal(w) + 1j * rng.standard_normal(w)
                                 for w in rng.integers(1, width + 1, pieces)])


def _random_problem(seed):
    """A random tree of 1-7 edges with non-uniform lengths, an operator of
    order 1-3 whose lower coefficients are piecewise, complex or absent, a
    complex piecewise history and a rough trajectory on random breaks."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 8))
    parents = {1: 0} | {i: int(rng.integers(1, i)) for i in range(2, m + 1)}
    tr = build_tree(parents, {i: float(rng.uniform(1.0, 3.0)) for i in parents})
    tau = float(rng.uniform(0.2, 0.9))
    b, c = {}, {}
    for j in range(1, m + 1):
        Tj = tr.length(j)
        b[(n, j)] = (1.5 + 0.5j) + 0.2 * _random_piecewise(rng, 0.0, Tj, 1, 2) * (1 / Tj)
        for k in range(n + 1):
            for table in (b, c):
                if (k, j) not in table and rng.random() < 0.7:
                    table[(k, j)] = _random_piecewise(rng, 0.0, Tj, int(rng.integers(1, 4)), 3)
    cs = CoefficientSet.build(tr, n, tau, b=b, c=c)
    comps = tuple(_random_piecewise(rng, 0.0, tr.length(j), int(rng.integers(1, 6)), 2 * n)
                  for j in range(1, m + 1))
    y = tree_function(tr, n, comps, _random_piecewise(rng, -tau, 0.0, int(rng.integers(1, 3)), 3))
    return cs, y


def _largest(funcs):
    return max(max(p.max_abs() for p in funcs), 1e-300)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_operator_table_matches_symbolic_route(seed):
    cs, y = _random_problem(seed)
    got = operator_components(y, cs)
    want = oracles.operator_components(y, cs)
    scale = max(np.abs(p.coefs).max() for p in want)
    # one table as wide as its widest edge, +0.0 past each edge's width
    pad = np.arange(got.table.shape[1]) >= got.widths[got.pieces.edge, None]
    assert got.table.shape[1] == got.widths.max()
    assert not got.table[pad].any()
    assert not np.signbit(got.table[pad].real).any() and not np.signbit(got.table[pad].imag).any()
    for j, (a, b) in enumerate(zip(got, want), start=1):
        np.testing.assert_array_equal(a.breaks, b.breaks)
        assert a.coefs.shape == b.coefs.shape
        assert np.abs(a.coefs - b.coefs).max() <= 1e-13 * scale
        single = apply_operator(y, cs, j)
        np.testing.assert_array_equal(single.breaks, a.breaks)
        assert np.abs(single.coefs - b.coefs).max() <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_variation_weights_and_quasi_derivatives_match_symbolic_route(seed):
    cs, y = _random_problem(seed)
    ells = oracles.operator_components(y, cs)
    weights = []
    for k in range(cs.n + 1):
        got, want = variation_weights(cs, ells, k), oracles.variation_weights(cs, ells, k)
        weights.append(want)
        scale = _largest(want)
        for a, b in zip(got, want):
            assert a.domain == b.domain
            assert (oracles.poly(a) - b).max_abs() <= 1e-12 * scale
    qd = quasi_derivatives(cs, ells)
    for j in range(1, cs.tree.m + 1):
        want = oracles.g_recursion([w[j - 1] for w in weights])
        for k, b in enumerate(want, start=cs.n):
            scale = _largest([qd.function(k, i) for i in range(1, cs.tree.m + 1)])
            assert (oracles.poly(qd.function(k, j)) - b).max_abs() <= 1e-12 * scale


def test_gather_picks_the_row_of_a_sliver_cell_deep_in_a_tree():
    # a chain of eight edges; on the last, at depth 7, a coefficient break
    # 1e-11 before a jump of the trajectory, and a jump of the parent's tail
    # whose delayed image lands 1e-11 after a coefficient break: each cell of
    # width 1e-11 must take the trajectory's row from the right piece
    tau, length = 0.5, 2.0
    tr = build_tree({i: i - 1 for i in range(1, 9)}, {i: length for i in range(1, 9)})
    rng = np.random.default_rng(3)
    x, eps = 0.7, 1e-11

    def rough(cuts):
        return PiecewisePoly(np.array([0.0, *cuts, length]),
                             [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                              for _ in range(len(cuts) + 1)])

    comps = [rough([1.0]) for _ in range(7)]
    comps[6] = rough([length - tau + 0.2 + eps])
    comps.append(rough([x + eps, 1.3]))
    step = PiecewisePoly(np.array([0.0, x, length]), [np.array([0.5]), np.array([-0.25j])])
    kink = PiecewisePoly(np.array([0.0, 0.2, length]), [np.array([1.0]), np.array([2.0, 0.5])])
    cs = CoefficientSet.build(tr, 1, tau, b={(1, j): 1.0 for j in range(1, 9)} | {(0, 8): step},
                              c={(0, 8): kink})
    y = tree_function(tr, 1, tuple(comps), PiecewisePoly.zero(-tau, 0.0))
    got = operator_components(y, cs)[7]
    want = oracles.apply_operator(y, cs, 8)
    np.testing.assert_array_equal(got.breaks, want.breaks)
    assert np.any(np.isclose(np.diff(got.breaks), eps, rtol=1e-3))
    for t in (x + eps / 2, 0.2 + eps / 2):
        direct = (eval_at(comps[7], t, 1) + eval_at(step, t) * eval_at(comps[7], t)
                  + eval_at(kink, t) * oracles.eval_delayed(y, 8, t - tau))
        assert eval_at(got, t) == pytest.approx(direct, rel=1e-12)
        assert eval_at(want, t) == pytest.approx(direct, rel=1e-12)


@st.composite
def lead_in_layouts(draw):
    """A random tree, a delay and one break array per edge (plus the
    history's when drawn): every parent's pieces straddle ``T - tau`` or
    end within 1e-12 of it."""
    m = draw(st.integers(1, 6))
    parent = [0] + [draw(st.integers(1, j - 1)) for j in range(2, m + 1)]
    tau = draw(st.floats(0.2, 1.0))
    lengths = [tau + draw(st.floats(0.1, 2.5)) for _ in range(m)]
    tree = build_tree({j: parent[j - 1] for j in range(1, m + 1)}, dict(enumerate(lengths, start=1)))
    breaks = []
    for j in range(1, tree.m + 1):
        T = tree.length(j)
        inner = set(draw(st.lists(st.floats(0.01, 0.99), max_size=4)))
        near = draw(st.sampled_from([None, -1e-12, -4e-13, 0.0, 4e-13, 1e-12]))
        if near is not None and oracles.children(tree, j):
            inner.add((T - tau + near) / T)
        breaks.append(np.array([0.0, *sorted(T * x for x in inner), T]))
    if draw(st.booleans()):
        cuts = draw(st.sets(st.floats(0.01, 0.99), max_size=2))
        breaks.append(np.array([-tau, *sorted(-tau * x for x in cuts), 0.0]))
    return tree, tau, breaks


@settings(max_examples=200, deadline=None)
@given(lead_in_layouts())
def test_lead_ins_match_the_per_edge_reference(layout):
    tree, tau, breaks = layout
    pieces = EdgePieces(np.concatenate(breaks), np.cumsum([0] + [len(b) - 1 for b in breaks]))
    history = len(breaks) > tree.m
    head = np.where(np.asarray(tree.parent) > 0, np.asarray(tree.parent) - 1, tree.m if history else -1)
    got = lead_ins(pieces, head, np.append(tree.lengths, [0.0] * history), tau)
    for a, b in zip(got, oracles.lead_ins(breaks, tree, tau)):
        np.testing.assert_array_equal(a, b)
