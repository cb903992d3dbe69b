from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hookcomb import (
    DISTINCT,
    MultiPoly,
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
from hookcomb.series import _packed, _shifts, _unpacked

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


def test_coefficient_rejects_names_that_are_not_variables():
    x, q = poly_gens("x", "q")
    p = MultiPoly.constant(5, ("x", "q")) + x * q
    assert p.coefficient({"x": 1, "q": 1}) == 1
    assert p.coefficient({}) == 5
    with pytest.raises(VariableMismatch):
        p.coefficient({"z": 3})
    with pytest.raises(VariableMismatch):
        p.coefficient({"x": 1, "q": 1, "y": 2})


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


def test_unrestricted_counts_from_series():
    series = expand(gf_of_class(UNRESTRICTED), 20).substitute({"x": 1, "y": 1})
    for n in range(1, 21):
        assert series.coefficient({"q": n}) == 2 ** (n - 1)


@pytest.mark.parametrize("c", [DISTINCT, g_class(2)], ids=str)
def test_multiply_back_at_every_qbound(c):
    # a test oracle, not a library check: expansion * denominator must give
    # back the numerator at every truncation order up to 40
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



@pytest.mark.parametrize("n, error", [(True, TypeError), (False, TypeError), (2.0, TypeError), (-1, ValueError)])
def test_pochhammer_and_power_refuse_bad_exponents(n, error):
    xq = m3(1, 1, 0, 1)
    with pytest.raises(error):
        pochhammer(xq, n, 5)
    with pytest.raises(error):
        xq**n

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
    with pytest.raises(NonUnitDenominator):
        series_inverse(q, 4)
    # the one unit check is RationalGF's
    with pytest.raises(NonUnitDenominator):
        series_inverse(MultiPoly.constant(2, ("q",)) + q, 4)


def test_series_inverse_keeps_the_smaller_bound():
    # 1 - q known only to q^0 is 1 there: its inverse is known to q^0 too,
    # not to the q^5 that was asked for
    p = MultiPoly(("q",), {(0,): 1, (1,): -1}, 0)
    inv = series_inverse(p, 5)
    assert inv.qbound == 0
    assert inv == MultiPoly.constant(1, ("q",), 0)
    assert series_inverse(p.with_qbound(5), 3).qbound == 3
    with pytest.raises(ValueError):
        series_inverse(p.with_qbound(None))


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 1): 0.5},
        {(1, 1): 1.0},
        {(1, 1): True},
        {(1, 1): Fraction(1)},
        {(1.0, 1): 1},
        {(1, 0.5): 1},
        {(True, 1): 1},
        {(1, 1): 0.0},
        {"ab": 1},
    ],
    ids=repr,
)
def test_rejects_non_integers(terms):
    with pytest.raises(TypeError):
        MultiPoly(("x", "q"), terms)


def test_scale_and_qbound_reject_non_integers():
    p = MultiPoly(("x", "q"), {(1, 1): 1})
    for c in (0.5, 2.0, True, Fraction(2)):
        with pytest.raises(TypeError):
            p.scale(c)
        with pytest.raises(TypeError):
            p.with_qbound(c)


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


@pytest.mark.parametrize(
    "assignment, text",
    [
        ({"x": 0}, "0"),
        ({"q": 2}, "2*x*y + 4*x^2*y + 8*x^2*y^2 + 8*x^3*y + 32*x^3*y^2 + 32*x^3*y^3 + 16*x^4*y + 96*x^4*y^2 + 32*x^5*y"),
        ({"x": 3, "y": -2, "q": 1}, "282"),
    ],
)
def test_substitute_integers(assignment, text):
    assert expand(gf_of_class(DISTINCT), 5).substitute(assignment).text() == text


def test_substitute_into_other_ring():
    p = m3(1, 2, 1, 1)  # x^2 y q
    y = MultiPoly.monomial(("y", "q"), 1, {"y": 1})
    got = p.substitute({"x": y, "y": y.scale(-1)})
    assert got == MultiPoly.monomial(("y", "q"), -1, {"y": 3, "q": 1})
    # the zero polynomial maps like the int 0
    zero = MultiPoly.zero(("y", "q"))
    assert p.substitute({"x": zero, "y": y}) == zero
    assert (p + m3(5)).substitute({"x": zero, "y": y}) == MultiPoly.constant(5, ("y", "q"))


@pytest.mark.parametrize(
    "assignment, error",
    [
        ({"x": m3(1) + m3(1, 0, 1)}, ValueError),
        ({"x": True}, TypeError),
        ({"x": 0.5}, TypeError),
        ({"x": m3(1, 0, 1), "y": MultiPoly.monomial(("y", "q"), 1, {"y": 1})}, VariableMismatch),
        ({"y": MultiPoly.monomial(("y", "q"), 1, {"y": 1})}, VariableMismatch),  # x is unassigned
        ({"X": 1, "y": 1}, VariableMismatch),  # X is not a variable
    ],
)
def test_substitute_refuses_bad_values(assignment, error):
    with pytest.raises(error):
        m3(1, 2, 1, 1).substitute(assignment)


def test_substitute_bound_comes_from_values_that_occur():
    p = m3(1, 1, 0, 1, qbound=10) + m3(1, 1, 0, 6, qbound=10)  # x q + x q^6
    short_y = m3(1, 0, 1, qbound=4)
    got = p.substitute({"x": short_y})
    assert got == m3(1, 0, 1, 1) and got.qbound == 4  # y q^6 falls past the bound
    assert p.substitute({"y": short_y}) == p and p.substitute({"y": short_y}).qbound == 10


def test_substitute_multiplies_no_polynomials(monkeypatch):
    series = expand(gf_of_class(g_class(2)), 20)
    want = series.substitute({"x": m3(1, 0, 1), "y": m3(-1, 0, 1), "q": 2})

    def refuse(*_):
        raise AssertionError("substitute multiplied polynomials")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    monkeypatch.setattr(MultiPoly, "__pow__", refuse)
    assert series.substitute({"x": m3(1, 0, 1), "y": m3(-1, 0, 1), "q": 2}) == want
    assert series.substitute({"x": 2, "y": 3}).qbound == 20


def test_substitute_matches_closed_form_of_any():
    # G_any = xyq / (1 - (x + y) q), so x = 2, y = 3 gives 6 * 5^(n-1) at q^n
    series = expand(gf_of_class(UNRESTRICTED), 40).substitute({"x": 2, "y": 3})
    assert series == MultiPoly(V3, {(0, 0, n): 6 * 5 ** (n - 1) for n in range(1, 41)}, 40)


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


def paper_denominators():
    # the paper's gap and residue denominators, 1 - xq - x^d y q^(d+1) and
    # 1 - yq - x^(d+1) q^(d+1), with any, distinct and odd at their d
    forms = [(UNRESTRICTED, m3(1) - m3(1, 1, 0, 1) - m3(1, 0, 1, 1)),
             (DISTINCT, m3(1) - m3(1, 1, 0, 1) - m3(1, 1, 1, 2)),
             (ODD, m3(1) - m3(1, 0, 1, 1) - m3(1, 2, 0, 2))]
    for d in range(1, 6):
        forms.append((d_distinct(d), m3(1) - m3(1, 1, 0, 1) - m3(1, d, 1, d + 1)))
        forms.append((mod_one(d), m3(1) - m3(1, 0, 1, 1) - m3(1, d + 1, 0, d + 1)))
    return [pytest.param(c, den, id=str(c)) for c, den in forms]


@pytest.mark.parametrize("c, den", paper_denominators())
def test_rule_closed_forms_are_the_papers(c, den):
    gf = gf_of_class(c)
    assert gf.numerator == m3(1, 1, 1, 1)
    assert gf.denominator == den


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gclass_collapses_to_gap_series(d):
    # at x = y = 1 the gclass form reduces to q / (1 - q - q^(d+1))
    got = expand(gf_of_class(g_class(d)), 30).substitute({"x": 1, "y": 1})
    _, _, q = poly_gens(*V3)
    one = MultiPoly.constant(1, V3)
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


# ---------------------------------------------------------------------------
# packed keys


@pytest.mark.parametrize(
    "variables, terms",
    [
        (("x", "y", "q"), {}),
        (("q",), {(0,): 1, (1,): -2, (7,): 5}),
        (
            ("a", "b", "q", "c", "d"),
            {(0, 0, 0, 0, 0): 3, (2**70, 1, 2, 0, 5): -1, (1, 2**70 + 3, 0, 2**71 - 1, 0): 7, (0, 0, 2**70, 0, 1): 2},
        ),
    ],
    ids=["empty", "q-only", "five-variables"],
)
def test_packed_keys_round_trip(variables, terms):
    width = max((max(e) for e in terms), default=0).bit_length() + 1
    qi = variables.index("q")
    shifts = _shifts(len(variables), qi, width)
    pairs = _packed(terms, shifts)
    # each key holds every exponent in its own field, q's on top
    assert pairs == [(sum(e << s for e, s in zip(exps, shifts)), c) for exps, c in terms.items()]
    assert shifts[qi] == width * (len(variables) - 1)
    assert _unpacked(dict(pairs), shifts, width) == terms


def test_unpacked_drops_zero_coefficients():
    shifts = _shifts(3, 2, 4)
    key = (1 << shifts[0]) + (2 << shifts[1]) + (3 << shifts[2])
    assert _unpacked({key: 0, 1 << shifts[2]: 4, 0: 0}, shifts, 4) == {(0, 0, 1): 4}
    assert _unpacked({key: 0}, shifts, 4) == {}


# ---------------------------------------------------------------------------
# the kernels against schoolbook arithmetic written from the definitions

# small exponents make products collide; values just below a power of two,
# and any value up to 2^70, test that no packed field carries into the next
EXPONENTS = st.one_of(
    st.integers(0, 3),
    st.sampled_from([2**k - 1 for k in (1, 8, 16, 31, 32, 63, 64, 70)]),
    st.integers(0, 2**70),
)
BOUNDS = st.one_of(st.none(), st.integers(0, 6))


def _ring(data):
    """1-4 variables with q at any index."""
    n = data.draw(st.integers(1, 4))
    others = ["a", "b", "c"][: n - 1]
    qi = data.draw(st.integers(0, n - 1))
    return tuple(others[:qi] + ["q"] + others[qi:])


def _poly(data, variables, qbound=BOUNDS):
    terms = data.draw(
        st.dictionaries(st.tuples(*[EXPONENTS] * len(variables)), st.integers(-3, 3), max_size=5)
    )
    return MultiPoly(variables, terms, data.draw(qbound))


def _unit(data, variables):
    """A polynomial whose q-degree-0 part is exactly 1; its q-degree >= 1
    exponents stay small enough that the inverse has few terms."""
    qi = variables.index("q")
    small = st.tuples(*[st.integers(1, 3) if i == qi else EXPONENTS for i in range(len(variables))])
    terms = data.draw(st.dictionaries(small, st.integers(-3, 3), max_size=3))
    terms[(0,) * len(variables)] = 1
    return MultiPoly(variables, terms, data.draw(BOUNDS))


def _min(a, b):
    return b if a is None else a if b is None else min(a, b)


def _truncate(terms, qi, qbound):
    return {e: c for e, c in terms.items() if c and (qbound is None or e[qi] <= qbound)}


def _schoolbook(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _layered_inverse(terms, qi, n, qbound):
    """r_0 = 1 and r_j = -(p_1 r_(j-1) + ... + p_j r_0), with p_i the
    q-degree-i part of ``terms``."""
    layers = [{(0,) * n: 1}]
    for j in range(1, qbound + 1):
        acc = {}
        for e1, c1 in terms.items():
            if 1 <= e1[qi] <= j:
                for key, c in _schoolbook({e1: c1}, layers[j - e1[qi]]).items():
                    acc[key] = acc.get(key, 0) - c
        layers.append({e: c for e, c in acc.items() if c})
    return {e: c for layer in layers for e, c in layer.items()}


def _assert_invariants(p):
    qi = p.variables.index("q")
    for exps, coeff in p.terms.items():
        assert type(coeff) is int and coeff != 0
        assert type(exps) is tuple and len(exps) == len(p.variables)
        assert all(type(e) is int and e >= 0 for e in exps)
        assert p.qbound is None or exps[qi] <= p.qbound


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_and_sum_match_schoolbook(data):
    variables = _ring(data)
    qi = variables.index("q")
    a, b = _poly(data, variables), _poly(data, variables)
    bound = _min(a.qbound, b.qbound)
    product, total = a * b, a + b
    for got in (product, total, a - b, -a, a.scale(data.draw(st.integers(-3, 3)))):
        _assert_invariants(got)
    assert product.qbound == total.qbound == bound
    assert dict(product.terms) == _truncate(_schoolbook(a.terms, b.terms), qi, bound)
    summed = dict(a.terms)
    for e, c in b.terms.items():
        summed[e] = summed.get(e, 0) + c
    assert dict(total.terms) == _truncate(summed, qi, bound)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inverse_and_expand_match_layered_definition(data):
    variables = _ring(data)
    qi, n = variables.index("q"), len(variables)
    den = _unit(data, variables)
    asked = data.draw(BOUNDS)
    bound = _min(asked, den.qbound)
    if bound is None:
        with pytest.raises(ValueError):
            series_inverse(den, asked)
        return
    inv = series_inverse(den, asked)
    _assert_invariants(inv)
    assert inv.qbound == bound
    assert dict(inv.terms) == _layered_inverse(den.terms, qi, n, bound)

    num = _poly(data, variables)
    qbound = data.draw(st.integers(0, 6))
    got = expand(RationalGF(num, den), qbound)
    _assert_invariants(got)
    assert got.qbound == qbound
    ref_inv = _layered_inverse(_truncate(den.terms, qi, qbound), qi, n, qbound)
    num_terms = _truncate(num.terms, qi, qbound)
    assert dict(got.terms) == _truncate(_schoolbook(num_terms, ref_inv), qi, qbound)

