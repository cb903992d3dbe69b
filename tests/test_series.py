import pytest
from hypothesis import given, settings, strategies as st

from hookcomb import (
    DISTINCT,
    ExpansionCheckFailed,
    MultiPoly,
    NonUnitConstantTerm,
    NonUnitDenominator,
    ODD,
    RationalGF,
    UNRESTRICTED,
    VariableMismatch,
    count_by_perimeter,
    d_distinct,
    enumerate_by_perimeter,
    excess_e,
    expand,
    fibonacci,
    g_class,
    gf_of_class,
    mod_one,
    pochhammer,
    poly_gens,
    series_inverse,
)

V3 = ("x", "y", "q")


def m3(coeff=1, x=0, y=0, q=0, qbound=None):
    return MultiPoly.monomial(V3, coeff, {"x": x, "y": y, "q": q}, qbound)


# ---------------------------------------------------------------------------
# ring arithmetic


def test_binomial_square():
    s = m3(1, 1, 0, 1) + m3(1, 0, 1, 1)  # xq + yq
    sq = s * s
    assert sq == m3(1, 2, 0, 2) + m3(2, 1, 1, 2) + m3(1, 0, 2, 2)


def test_telescoping_truncation():
    one = m3(1, qbound=3)
    yq = m3(1, 0, 1, 1, qbound=3)
    geom = one + yq + yq * yq + yq * yq * yq
    assert (one - yq) * geom == one  # the y^4 q^4 remainder falls past the bound


def test_hand_product():
    lhs = m3(1, 1, 1, 1) * (m3(1, 1, 0, 1) + m3(1, 1, 1, 2))
    assert lhs == m3(1, 2, 1, 2) + m3(1, 2, 2, 3)


def test_qbound_combines_as_min():
    a = m3(1, 0, 0, 1, qbound=5)
    b = m3(1, 0, 0, 1, qbound=3)
    assert (a + b).qbound == 3
    assert (a * b).qbound == 3


def test_variable_mismatch():
    other = MultiPoly.monomial(("y", "q"), 1, {"y": 1})
    with pytest.raises(VariableMismatch):
        m3(1) + other
    with pytest.raises(VariableMismatch):
        MultiPoly.monomial(("x", "y"), 1, {})  # no q variable


def test_pow_and_scale():
    s = m3(1, 1, 0, 1) + m3(1, 0, 1, 1)
    assert s**0 == m3(1)
    assert s**3 == s * s * s
    assert s.scale(-2) == -(s + s)


@settings(max_examples=60)
@given(st.data())
def test_ring_laws(data):
    def rand_poly():
        n_terms = data.draw(st.integers(0, 4))
        terms = {}
        for _ in range(n_terms):
            key = tuple(data.draw(st.integers(0, 3)) for _ in V3)
            terms[key] = data.draw(st.integers(-5, 5))
        return MultiPoly(V3, terms)

    a, b, c = rand_poly(), rand_poly(), rand_poly()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# expansion


def test_expand_unrestricted_by_hand():
    got = expand(gf_of_class(UNRESTRICTED), 3)
    want = (
        m3(1, 1, 1, 1)
        + m3(1, 2, 1, 2)
        + m3(1, 1, 2, 2)
        + m3(1, 3, 1, 3)
        + m3(2, 2, 2, 3)
        + m3(1, 1, 3, 3)
    )
    assert got == want


def test_expand_distinct_by_hand():
    got = expand(gf_of_class(DISTINCT), 3)
    assert got == m3(1, 1, 1, 1) + m3(1, 2, 1, 2) + m3(1, 3, 1, 3) + m3(1, 2, 2, 3)
    assert got.text() == "x*y*q + x^2*y*q^2 + x^2*y^2*q^3 + x^3*y*q^3"


def test_expand_geometric():
    (q,) = poly_gens("q")
    one = MultiPoly.constant(1, ("q",))
    assert expand(RationalGF(one, one - q), 2) == one + q + q * q


def test_expand_rejects_non_unit_denominator():
    (q,) = poly_gens("q")
    one = MultiPoly.constant(1, ("q",))
    with pytest.raises(NonUnitDenominator):
        RationalGF(one, q)  # constant term 0
    with pytest.raises(NonUnitDenominator):
        RationalGF(one, one + one)  # constant term 2


def test_expand_raises_when_multiply_back_fails(monkeypatch):
    from hookcomb import series

    real = series.series_inverse

    def off_by_q(den, qbound):
        return real(den, qbound) + MultiPoly.monomial(den.variables, 1, {"q": 1}, qbound)

    monkeypatch.setattr(series, "series_inverse", off_by_q)
    with pytest.raises(ExpansionCheckFailed):
        expand(gf_of_class(DISTINCT), 6)


def test_unrestricted_counts_from_series():
    series = expand(gf_of_class(UNRESTRICTED), 20).substitute({"x": 1, "y": 1})
    for n in range(1, 21):
        assert series.coefficient({"q": n}) == 2 ** (n - 1)


@pytest.mark.parametrize("c", [DISTINCT, g_class(2)], ids=str)
def test_multiply_back_at_every_qbound(c):
    # expand() verifies expansion * denominator == numerator internally;
    # exercise that check at every truncation order up to 40
    gf = gf_of_class(c)
    for qbound in range(0, 41):
        series = expand(gf, qbound)
        assert series * gf.denominator.with_qbound(qbound) == gf.numerator.with_qbound(qbound)


# ---------------------------------------------------------------------------
# pochhammer and inversion


def test_pochhammer_examples():
    yq = MultiPoly.monomial(("y", "q"), 1, {"y": 1, "q": 1})
    assert pochhammer(yq, 0, 10) == MultiPoly.constant(1, ("y", "q"), 10)
    got = pochhammer(yq, 2, 10)
    want = (
        MultiPoly.constant(1, ("y", "q"), 10)
        - MultiPoly.monomial(("y", "q"), 1, {"y": 1, "q": 1}, 10)
        - MultiPoly.monomial(("y", "q"), 1, {"y": 1, "q": 2}, 10)
        + MultiPoly.monomial(("y", "q"), 1, {"y": 2, "q": 3}, 10)
    )
    assert got == want
    neg = pochhammer(yq.scale(-1), 2, 10)
    assert neg == want.substitute({"y": MultiPoly.monomial(("y", "q"), -1, {"y": 1}, 10)})


def test_series_inverse_geometric():
    (q,) = poly_gens("q")
    one = MultiPoly.constant(1, ("q",))
    inv = series_inverse(one - q, 4)
    assert inv == sum((q**k for k in range(1, 5)), one.with_qbound(4))


def test_series_inverse_of_pochhammer_frozen():
    # fixed by the multiply-back oracle below
    xq = m3(1, 1, 0, 1)
    inv = series_inverse(pochhammer(xq, 2, 3), 3)
    want = m3(1) + m3(1, 1, 0, 1) + m3(1, 1, 0, 2) + m3(1, 2, 0, 2) + m3(1, 2, 0, 3) + m3(1, 3, 0, 3)
    assert inv == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_multiplies_back_to_one(n):
    xq = m3(1, 1, 0, 1)
    p = pochhammer(xq, n, 12)
    assert p * series_inverse(p, 12) == MultiPoly.constant(1, V3, 12)


def test_series_inverse_needs_unit_constant():
    (q,) = poly_gens("q")
    with pytest.raises(NonUnitConstantTerm):
        series_inverse(q, 4)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_fibonacci_counts():
    series = expand(gf_of_class(DISTINCT), 5).substitute({"x": 1, "y": 1})
    assert series.text() == "q + q^2 + 2*q^3 + 3*q^4 + 5*q^5"


def test_substitute_signed_counts():
    series = expand(gf_of_class(DISTINCT), 6).substitute({"x": 1, "y": -1})
    assert series.text() == "-q - q^2 + q^4 + q^5"
    for n in range(1, 7):
        assert series.coefficient({"q": n}) == excess_e(n)


def test_substitute_into_other_ring():
    p = m3(1, 2, 1, 1)  # x^2 y q
    y = MultiPoly.monomial(("y", "q"), 1, {"y": 1})
    got = p.substitute({"x": y, "y": y.scale(-1)})
    assert got == MultiPoly.monomial(("y", "q"), -1, {"y": 3, "q": 1})


def test_restrict_drops_zero_columns():
    p = m3(3, 0, 2, 1)
    assert p.restrict(("y", "q")) == MultiPoly.monomial(("y", "q"), 3, {"y": 2, "q": 1})
    with pytest.raises(VariableMismatch):
        m3(1, 1, 0, 0).restrict(("y", "q"))


# ---------------------------------------------------------------------------
# class generating functions


ALL_CLASSES = [UNRESTRICTED, DISTINCT, ODD] + [
    f(d) for d in (1, 2, 3) for f in (d_distinct, mod_one, g_class)
]


@pytest.mark.parametrize("c", ALL_CLASSES, ids=str)
def test_gf_matches_brute_force(c):
    qbound = 8
    series = expand(gf_of_class(c), qbound)
    acc = {}
    for n in range(1, qbound + 1):
        for p in enumerate_by_perimeter(n, c):
            key = (p.parts[0], p.length, n)
            acc[key] = acc.get(key, 0) + 1
    assert series == MultiPoly(V3, acc, qbound)


@pytest.mark.parametrize("c", ALL_CLASSES, ids=str)
def test_gf_xy_degrees_bounded(c):
    # every retained term has x- and y-degree at most q-degree + 1
    series = expand(gf_of_class(c), 10)
    for (ex, ey, eq), _ in series.terms.items():
        assert ex <= eq + 1 and ey <= eq + 1


def test_gclass_gf_example_shape():
    gf = gf_of_class(g_class(1))
    num = m3(1, 1, 1, 1) * (m3(1) - m3(1, 0, 1, 1) + m3(1, 2, 0, 2))
    den = m3(1) - m3(2, 0, 1, 1) + m3(1, 0, 2, 2) - m3(1, 3, 1, 4)
    assert gf.numerator == num
    assert gf.denominator == den


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gclass_collapses_to_gap_series(d):
    # at x = y = 1 the gclass form reduces to q / (1 - q - q^(d+1))
    collapsed = gf_of_class(g_class(d)).substitute({"x": 1, "y": 1})
    got = expand(collapsed, 30).restrict(("q",))
    (q,) = poly_gens("q")
    one = MultiPoly.constant(1, ("q",))
    want = expand(RationalGF(q, one - q - q ** (d + 1)), 30)
    assert got == want
    for n in range(1, 31):
        assert got.coefficient({"q": n}) == count_by_perimeter(n, g_class(d))


def test_distinct_counts_are_fibonacci_in_series():
    series = expand(gf_of_class(DISTINCT), 25).substitute({"x": 1, "y": 1})
    for n in range(1, 26):
        assert series.coefficient({"q": n}) == fibonacci(n)


# ---------------------------------------------------------------------------
# rendering


def test_text_zero_and_constants():
    assert MultiPoly.zero(V3).text() == "0"
    assert m3(7).text() == "7"
    assert m3(-1, 1, 0, 1).text() == "-x*q"


def test_json_terms_stable():
    p = m3(1, 1, 1, 1) + m3(-2, 0, 0, 2)
    assert p.json_terms() == [
        {"coeff": 1, "exponents": {"x": 1, "y": 1, "q": 1}},
        {"coeff": -2, "exponents": {"q": 2}},
    ]
