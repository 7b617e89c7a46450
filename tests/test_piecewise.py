"""The piecewise-polynomial exchange type, and the exact per-edge algebra
of the test oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from numpy.polynomial import polynomial as npoly

from treedamp.piecewise import (
    BREAK_RTOL,
    PiecewisePoly,
    _abs_extremes,
    _abs_min,
    _find,
    _poly_der,
    _poly_val,
    _sup_abs,
    _unique,
    derivative_powers,
    gauss_legendre,
)

import oracles
from oracles import Poly, eval_at, merge_breaks


def test_constructor_rejects_bad_breaks():
    with pytest.raises(ValueError):
        PiecewisePoly(np.array([0.0, 0.0]), [np.array([1.0])])
    with pytest.raises(ValueError):
        PiecewisePoly(np.array([1.0, 0.0]), [np.array([1.0])])
    with pytest.raises(ValueError):
        PiecewisePoly(np.array([0.0, 1.0, 2.0]), [np.array([1.0])])


@pytest.mark.parametrize("make", [
    lambda: PiecewisePoly([0.0, np.nan, 2.0], [[1.0], [1.0]]),
    lambda: PiecewisePoly([0.0, 1.0, np.inf], [[1.0], [1.0]]),
    lambda: PiecewisePoly([0.0, 1.0], [[1.0, np.nan]]),
    lambda: PiecewisePoly([0.0, 1.0, 2.0], [[1.0], [complex(0.0, np.inf)]]),
    lambda: PiecewisePoly.from_global_coefs(-1.0, 0.0, [np.inf]),
], ids=["nan-break", "inf-end", "nan-coefficient", "complex-inf", "inf-history"])
def test_constructor_rejects_non_finite_input(make):
    # a NaN break used to build, and an infinite history ended the solve in
    # an overflow of the optimal trajectory
    with pytest.raises(ValueError, match="must be finite"):
        make()


def test_coefs_is_a_read_only_zero_padded_table():
    p = PiecewisePoly([0.0, 1.0, 2.0], [np.array([1.0]), np.array([1.0, 2.0, 3.0])])
    assert p.coefs.shape == (2, 3) and p.max_degree == 2
    np.testing.assert_array_equal(p.coefs[0], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        p.coefs[0, 1] = 5.0
    q = oracles.poly(p)
    assert q.refined(q.breaks) is q


def test_eval_is_right_continuous_at_interior_break():
    p = PiecewisePoly(np.array([0.0, 1.0, 2.0]),
                      [np.array([0.0]), np.array([5.0])])
    assert eval_at(p, 1.0) == 5.0
    assert p.left_limit(1.0) == 0.0
    assert p.right_limit(1.0) == 5.0
    assert eval_at(p, 2.0) == 5.0  # closure at the right endpoint


def test_jumps_lists_interior_gaps():
    p = Poly(np.array([0.0, 1.0, 2.0, 3.0]),
                      [np.array([0.0]), np.array([2.0]), np.array([2.0])])
    [(t, gap)] = [(t, g) for t, g in p.jumps() if abs(g) > 0]
    assert t == 1.0 and gap == 2.0


def test_derivative_and_integral_of_cubic():
    p = Poly.from_global_coefs(0.0, 2.0, [1.0, 0.0, 0.0, 1.0])  # 1 + t^3
    d = p.derivative()
    ts = np.linspace(0.1, 1.9, 7)
    assert np.allclose(d.values(ts), 3 * ts**2)
    assert p.integral() == pytest.approx(2.0 + 2.0**4 / 4, rel=1e-14)
    assert eval_at(p.derivative(3), 0.5) == pytest.approx(6.0)


def test_shift_translates_graph():
    p = Poly.from_global_coefs(0.0, 1.0, [0.0, 1.0])  # t
    s = p.shift(2.0)
    assert s.domain == (2.0, 3.0)
    assert eval_at(s, 2.5) == pytest.approx(0.5)


def test_restrict_and_concat_roundtrip():
    p = Poly.from_global_coefs(0.0, 3.0, [1.0, 2.0, 1.0])
    left, right = p.restrict(0.0, 1.2), p.restrict(1.2, 3.0)
    glued = left.concat(right)
    ts = np.linspace(0.0, 2.99, 17)
    assert np.allclose(glued.values(ts), p.values(ts))


def test_restrict_outside_domain_raises():
    p = Poly.constant(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        p.restrict(-0.5, 0.5)


def test_product_multiplies_pointwise():
    p = Poly.from_global_coefs(0.0, 1.0, [1.0, 1.0])
    q = Poly(np.array([0.0, 0.5, 1.0]),
                      [np.array([2.0]), np.array([0.0, 1.0])])
    r = p * q
    ts = np.array([0.1, 0.3, 0.6, 0.9])
    assert np.allclose(r.values(ts), p.values(ts) * q.values(ts))


def test_inner_and_l2_norm_are_consistent():
    p = Poly.from_global_coefs(0.0, 2.0, [1.0, 1.0])  # 1 + t
    assert oracles.inner(p, p).real == pytest.approx(p.l2_norm_sq(), rel=1e-14)
    # <p, q> integrates p * conj(q); here the conjugation flips the sign of i
    q = Poly.constant(0.0, 2.0, 1j)
    assert oracles.inner(p, q) == pytest.approx(-1j * p.integral())


def test_conj_on_complex_coefficients():
    p = Poly.constant(0.0, 1.0, 1.0 + 2.0j)
    assert eval_at(p.conj(), 0.5) == 1.0 - 2.0j


def test_min_abs_is_exact_between_samples():
    # |t - 0.1| and |(t - 0.37)^2 + 1e-6 i| reach their minima off any sample grid
    p = Poly.from_global_coefs(0.0, 3.0, [-0.1, 1.0])
    assert p.min_abs() < 1e-15
    q = Poly(
        np.array([0.0, 0.2, 1.0]),
        [np.array([2.0]), np.array([0.17**2 + 1e-6j, -0.34, 1.0])],
    )
    assert q.min_abs() == pytest.approx(1e-6, rel=1e-6)
    assert Poly.constant(0.0, 1.0, -3.0 + 4.0j).min_abs() == pytest.approx(5.0)


def test_max_abs_is_exact_between_samples():
    # t(1 - t) peaks at t = 1/2, which no grid of 8 samples on [0, 1] hits
    p = Poly.from_global_coefs(0.0, 1.0, [0.0, 1.0, -1.0])
    assert p.max_abs() == pytest.approx(0.25, rel=1e-15)
    assert (1j * p).max_abs() == pytest.approx(0.25, rel=1e-15)
    assert Poly.constant(0.0, 1.0, -3.0 + 4.0j).max_abs() == pytest.approx(5.0)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_derivative_powers_match_derivative_coefficients(k):
    rng = np.random.default_rng(k)
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    s = np.array([-0.7, 0.0, 0.3, 1.0, 2.5])
    dk = c
    for _ in range(k):
        dk = _poly_der(dk)
    got = derivative_powers(s, k, len(c)) @ c
    assert got.shape == s.shape
    np.testing.assert_allclose(got, _poly_val(dk, s), rtol=1e-13, atol=1e-13)
    w = rng.standard_normal(len(s))
    np.testing.assert_allclose(derivative_powers(s, k, len(c), w) @ c, w * got, rtol=1e-13, atol=1e-13)


def test_merge_breaks_dedups_within_tolerance():
    merged = merge_breaks([np.array([0.0, 1.0]), np.array([1.0 + 1e-14, 2.0])], 1e-9)
    assert len(merged) == 3


@st.composite
def pw_polys(draw, a=0.0, b=2.0):
    cuts = draw(st.lists(
        st.floats(min_value=a + 0.05, max_value=b - 0.05,
                  allow_nan=False, allow_infinity=False),
        min_size=0, max_size=3, unique=True))
    pts = [a]
    for c in sorted(cuts):
        if c - pts[-1] > 1e-3:
            pts.append(c)
    if b - pts[-1] <= 1e-3:
        pts.pop()
    pts.append(b)
    breaks = np.array(pts)
    coefs = []
    coef = st.floats(min_value=-3, max_value=3, allow_nan=False)
    for _ in range(len(breaks) - 1):
        deg = draw(st.integers(min_value=0, max_value=3))
        re = draw(st.lists(coef, min_size=deg + 1, max_size=deg + 1))
        im = draw(st.lists(coef, min_size=deg + 1, max_size=deg + 1))
        coefs.append(np.array(re) + 1j * np.array(im))
    return Poly(breaks, coefs)


def _away_from_breaks(t, *polys):
    pts = np.concatenate([p.breaks for p in polys])
    return float(np.min(np.abs(pts - t))) > 1e-6


@settings(max_examples=40, deadline=None)
@given(pw_polys(), pw_polys(), st.floats(min_value=0.01, max_value=1.99))
def test_sum_matches_pointwise(p, q, t):
    assume(_away_from_breaks(t, p, q))
    s = p + q
    assert eval_at(s, t) == pytest.approx(eval_at(p, t) + eval_at(q, t), rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(pw_polys(), pw_polys(), st.floats(min_value=0.01, max_value=1.99))
def test_product_matches_pointwise(p, q, t):
    assume(_away_from_breaks(t, p, q))
    s = p * q
    assert eval_at(s, t) == pytest.approx(eval_at(p, t) * eval_at(q, t), rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(pw_polys())
def test_refinement_preserves_values(p):
    r = p.refined(np.linspace(0.1, 1.9, 5))
    mids = 0.5 * (p.breaks[:-1] + p.breaks[1:])
    assert np.allclose(r.values(mids), p.values(mids), atol=1e-10)
    assert r.integral() == pytest.approx(p.integral(), rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(pw_polys())
def test_l2_norm_nonnegative_and_additive(p):
    total = p.l2_norm_sq()
    assert total >= -1e-12
    parts = p.restrict(0.0, 1.0).l2_norm_sq() + p.restrict(1.0, 2.0).l2_norm_sq()
    assert parts == pytest.approx(total, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(pw_polys(), st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_shift_then_unshift_is_identity(p, dt):
    back = p.shift(dt).shift(-dt)
    mids = 0.5 * (p.breaks[:-1] + p.breaks[1:])
    assert np.allclose(back.values(mids), p.values(mids), atol=1e-9)


# ----------------------------------------------------------------------
# the whole-table operations against a per-piece reference


def _poly_shift(c, dx):
    """Re-centre ``p(s) = sum c_i s^i`` to powers of ``u = s - dx`` by the
    binomial expansion, one coefficient at a time."""
    q = np.zeros(len(c), dtype=complex)
    for i, ci in enumerate(c):
        for k in range(i + 1):
            q[k] += ci * math.comb(i, k) * dx ** (i - k)
    return q


def _ref_refined(p, extra):
    """Breaks and per-piece coefficients of ``p`` refined onto ``extra``,
    one piece at a time: each new piece re-centres the old piece holding
    its midpoint."""
    tol = oracles.break_tol(p)
    a, b = p.domain
    extra = [x for x in extra if a + tol < x < b - tol]
    breaks = merge_breaks([p.breaks, extra], tol) if extra else p.breaks
    pieces = []
    for i in range(len(breaks) - 1):
        j = oracles.piece_at(p, 0.5 * (breaks[i] + breaks[i + 1]))
        pieces.append(_poly_shift(np.array(p.coefs[j]), breaks[i] - p.breaks[j]))
    return breaks, pieces


def _assert_pieces(got, breaks, pieces, tol=1e-11):
    """``got`` has the given breaks and, row by row, the given coefficients
    followed by zero padding only."""
    np.testing.assert_array_equal(got.breaks, breaks)
    assert got.npieces == len(pieces)
    for row, ref in zip(got.coefs, pieces):
        ref = np.trim_zeros(ref, "b")
        np.testing.assert_allclose(row[: len(ref)], ref, rtol=tol, atol=tol)
        assert not row[len(ref) :].any()


@st.composite
def extra_breaks(draw, p):
    """Random points plus points within a few BREAK_RTOL of p's breaks."""
    pts = draw(st.lists(st.floats(min_value=-0.5, max_value=2.5), max_size=4))
    for t in draw(st.lists(st.sampled_from(list(p.breaks)), max_size=3)):
        pts.append(t + BREAK_RTOL * draw(st.sampled_from([-2.0, -0.5, 0.5, 2.0])))
    return pts


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_refined_matches_per_piece_shifts(data):
    p = data.draw(pw_polys())
    extra = data.draw(extra_breaks(p))
    r = p.refined(extra)
    _assert_pieces(r, *_ref_refined(p, extra))
    if np.array_equal(r.breaks, p.breaks):
        assert r is p


@settings(max_examples=60, deadline=None)
@given(pw_polys(), pw_polys())
def test_sum_and_product_match_per_piece_algebra(p, q):
    tol = max(oracles.break_tol(p), oracles.break_tol(q))
    merged = merge_breaks([p.breaks, q.breaks], tol)
    breaks, pp = _ref_refined(p, merged)
    _, qq = _ref_refined(q, merged)
    width = max(len(c) for c in pp + qq)
    padded = [np.pad(c, (0, width - len(c))) for c in pp + qq]
    sums = [a + b for a, b in zip(padded[: len(pp)], padded[len(pp) :])]
    _assert_pieces(p + q, breaks, sums)
    _assert_pieces(p - q, breaks, [a - b for a, b in zip(padded[: len(pp)], padded[len(pp) :])])
    _assert_pieces(p * q, breaks, [np.convolve(a, b) for a, b in zip(pp, qq)])


@settings(max_examples=40, deadline=None)
@given(pw_polys(), st.integers(min_value=0, max_value=4))
def test_derivative_matches_per_piece(p, k):
    pieces = [npoly.polyder(np.array(c), k) if len(c) > k else np.zeros(1) for c in p.coefs]
    _assert_pieces(p.derivative(k), p.breaks, pieces)


@settings(max_examples=40, deadline=None)
@given(pw_polys())
def test_antiderivative_and_jumps_match_per_piece(p):
    acc = 0.0
    for i, c in enumerate(p.coefs):
        ci = npoly.polyint(np.array(c))
        ci[0] = acc
        acc = _poly_val(ci, p.breaks[i + 1] - p.breaks[i])
    assert p.integral() == pytest.approx(complex(acc), rel=1e-12, abs=1e-12)

    jumps = p.jumps()
    assert [t for t, _ in jumps] == list(p.breaks[1:-1])
    for i, (_, gap) in enumerate(jumps, start=1):
        left = _poly_val(np.array(p.coefs[i - 1]), p.breaks[i] - p.breaks[i - 1])
        assert gap == pytest.approx(complex(p.coefs[i][0] - left), rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(pw_polys(), st.floats(min_value=0.05, max_value=1.95))
def test_restrict_then_concat_is_refinement(p, x):
    assume(_away_from_breaks(x, p))
    left, right = p.restrict(0.0, x), p.restrict(x, 2.0)
    breaks, pieces = _ref_refined(p, [x])
    cut = int(np.searchsorted(breaks, x))
    _assert_pieces(left, breaks[: cut + 1], pieces[:cut])
    _assert_pieces(right, breaks[cut:], pieces[cut:])
    _assert_pieces(left.concat(right), breaks, pieces)


def _ref_abs_extremes(p):
    """``(max, min)`` of ``|p|`` piece by piece: the piece ends and every
    real part of a root of ``d|p|^2/dt`` inside the piece, the roots from
    one ``np.roots`` call per piece."""
    values = []
    for c, h in zip(p.coefs, np.diff(p.breaks)):
        sq = np.convolve(c, np.conj(c)).real
        crit = np.roots(_poly_der(sq)[::-1]).real if len(sq) > 2 else np.zeros(0)
        s = np.concatenate([[0.0, h], crit[(crit > 0.0) & (crit < h)]])
        values.append(np.abs(_poly_val(c, s)))
    return max(v.max() for v in values), min(v.min() for v in values)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_abs_extremes_match_per_piece_roots(seed):
    # rows padded with zeros, constant rows, and rows whose d|p|^2/dt has a
    # double root inside the piece: p = z (1 + w (s - a)^3)
    rng = np.random.default_rng(seed)
    npieces = int(rng.integers(1, 6))
    breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, npieces))])
    coefs = []
    for h in np.diff(breaks):
        kind = rng.integers(3)
        z = complex(rng.standard_normal(), rng.standard_normal())
        if kind == 0:
            c = np.zeros(int(rng.integers(1, 6)), dtype=complex)
            c[0] = z
        elif kind == 1:
            w = int(rng.integers(1, 6))
            c = rng.standard_normal(w) + 1j * rng.standard_normal(w)
            c[int(rng.integers(1, w + 1)):] = 0.0
        else:
            a = rng.uniform(0.2, 0.8) * h
            w = rng.uniform(0.5, 2.0)
            c = z * (np.array([1.0, 0.0, 0.0, 0.0]) + w * np.array([-a**3, 3 * a**2, -3 * a, 1.0]))
        coefs.append(c)
    p = Poly(breaks, coefs)
    big, small = _ref_abs_extremes(p)
    assert p.max_abs() == pytest.approx(big, rel=1e-12)
    assert p.min_abs() == pytest.approx(small, rel=1e-12, abs=1e-15 * big)


coef = st.integers(min_value=-20, max_value=20).map(lambda k: k / 10)  # no roundoff-sized terms


@st.composite
def peaked_rows(draw):
    """A table of rows on ``[0, h]``, some random, one peaking inside: ``a (1
    - (s - m)^2 / w^2)``, plus a small tail, whose maximum ``|a|`` at ``m``
    lies above both its ends (``w > 0.8 h / sqrt(2)``) and above every
    random row (at most 190 on ``[0, 2]``).  No coefficient is roundoff-sized
    next to the others: the companion search does not resolve those."""
    h = draw(st.floats(min_value=0.05, max_value=2.0))
    rows = draw(st.lists(st.lists(st.builds(complex, coef, coef), min_size=1, max_size=6),
                         min_size=0, max_size=6))
    m = h * draw(st.floats(min_value=0.2, max_value=0.8))
    a = draw(st.floats(min_value=200.0, max_value=1e4)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
    w = h * draw(st.floats(min_value=0.6, max_value=1.0))
    peak = a * np.array([1.0 - m * m / w**2, 2.0 * m / w**2, -1.0 / w**2])
    tail = [complex(draw(coef), draw(coef)) * 1e-3 for _ in range(draw(st.integers(0, 3)))]
    rows.insert(draw(st.integers(0, len(rows))), list(peak) + tail)
    width = max(map(len, rows))
    table = np.array([r + [0.0] * (width - len(r)) for r in rows], dtype=complex)
    return table, np.full(len(table), h)


@settings(max_examples=200, deadline=None)
@given(peaked_rows())
def test_bounded_sup_equals_the_full_search(rows):
    # the rows a coefficient bound keeps below the largest end value are not
    # searched; the sup is still the full search's, bit for bit
    c, h = rows
    full = _abs_extremes(c, h)[0].max()
    ends = np.maximum(np.abs(c[:, 0]), np.abs(_poly_val(c, h))).max()
    assert full > ends  # the maximum is interior
    assert _sup_abs(c, h) == full


@pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-8, 1e-30, 1e-182, 1e-300])
def test_abs_extremes_ignore_a_roundoff_sized_leading_term(eps):
    # 150 + 200 s - 200 s^2 peaks at 200 (s = 0.5); a tiny s^3 term must not
    # become the companion matrix's divisor
    c = np.array([[150.0, 200.0, -200.0, eps]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big, small = _abs_extremes(c, np.array([1.0]))
    assert big[0] == pytest.approx(200.0, rel=1e-9)
    assert small[0] == pytest.approx(150.0, rel=1e-9)


@pytest.mark.parametrize("coefs, h, least", [
    ([2.25, -3.0, 1.0], 3.0, 0.0),  # (s - 1.5)^2
    ([0.25, -1.0, 1.0], 1.0, 0.0),  # (s - 0.5)^2
    ([2.25 + 1e-6, -3.0, 1.0], 3.0, 1e-6),  # (s - 1.5)^2 + 1e-6
    (list((0.6 - 0.8j) * np.array([1.44, -2.4, 1.0])), 2.0, 0.0),  # a complex double zero at 1.2
])
def test_abs_min_finds_the_minimum_at_a_double_zero(coefs, h, least):
    # where p has a double zero, d|p|^2/ds has a triple root, which the
    # companion eigenvalues resolve only to about eps^(1/3) (|p| 5.1e-11 in
    # the first row); the zeros of p itself give the minimum to roundoff
    c = np.array([coefs], dtype=complex)
    assert _abs_min(c, np.array([h]))[0] == pytest.approx(least, rel=1e-9, abs=1e-15)


@st.composite
def row_queries(draw):
    """Rows ordered by (edge, left), one to four per edge, on edge ids with
    gaps, and queries on those edges: at row ends (ties, ``-0.0`` against
    ``0.0``), before an edge's first row, past its last, and NaN."""
    t = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0]) | st.floats(-3.0, 3.0)
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    ids = np.cumsum(draw(st.lists(st.integers(min_value=1, max_value=3),
                                  min_size=len(sizes), max_size=len(sizes))))
    left = np.concatenate([np.sort(draw(st.lists(t, min_size=k, max_size=k))) for k in sizes])
    q_t = t | st.sampled_from(left.tolist() + [-np.inf, -9.0, 9.0, np.inf, np.nan])
    queries = draw(st.lists(st.tuples(st.sampled_from(ids.tolist()), q_t), min_size=1, max_size=30))
    q_edge, q = (np.array(c) for c in zip(*queries))
    return np.repeat(ids, sizes), left, q_edge, q.astype(float)


@settings(max_examples=300, deadline=None)
@given(row_queries())
@example((np.array([1, 1, 3]), np.array([0.0, 1.0, -0.0]), np.array([1, 1, 1, 1, 1, 3, 3, 3]),
          np.array([-1.0, 1.0, 5.0, np.nan, -0.0, np.nan, 0.0, -2.0])))
def test_find_matches_the_sort_of_rows_and_queries(case):
    edge, left, q_edge, q_t = case
    assert np.array_equal(_find(edge, left, q_edge, q_t), oracles.find_rows(edge, left, q_edge, q_t))


@pytest.mark.parametrize("values", [
    np.array([3, 1, 2, 3, 1]), np.array([0.5, -1.0, 0.5, 2.0]), np.zeros(0), np.array([[4, 4], [1, 7]]),
])
def test_unique_is_numpys(values):
    got, want = _unique(values), np.unique(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("k", range(1, 41))
def test_gauss_legendre_matches_leggauss(k):
    x, w = gauss_legendre(k)
    want_x, want_w = np.polynomial.legendre.leggauss(k)
    assert np.abs(x - want_x).max() <= 2.5e-16
    assert np.abs(w - want_w).max() <= 5e-15
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # relative to 2: one unit in the last place above 2 is 4.4e-16
    assert abs(w.sum() - 2.0) <= 4e-16 * 2.0
    for d in range(2 * k):
        assert (w * x**d).sum() == pytest.approx(2.0 / (d + 1) if d % 2 == 0 else 0.0, abs=1e-14)


def test_gauss_legendre_is_cached_read_only():
    x, w = gauss_legendre(7)
    assert not x.flags.writeable and not w.flags.writeable
    again = gauss_legendre(7)
    assert again[0] is x and again[1] is w
