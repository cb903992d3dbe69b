"""Sparse exact polynomials in x, y, q (and friends), truncated in q.

Everything here works in the ring Z[vars] with a hard cap on the q-degree:
terms whose q-exponent exceeds the bound are dropped, which makes these
polynomials a faithful model of formal power series in q with polynomial
coefficients.  All coefficients and exponents are Python ints, so every
computation is exact.

A ``qbound`` of ``None`` means "never truncate" (a plain polynomial);
binary operations, and :func:`series_inverse` with an explicit bound,
carry the smaller of the two bounds.

q is the last variable of every polynomial.  The product and division
kernels work on packed exponent vectors: each vector becomes one int with
one bit field per variable, the fields in tuple order from the bottom, so
q, the last variable, is in the top field.  Adding two packed keys then
multiplies the monomials, and because q sits on top, sorting packed keys
sorts by q-degree, so the q-bound becomes a cut on a sorted list.  The
field width is worked out per call from the operands, wide enough for
every exponent the call can produce, so a field never carries into the
next one:

- a product's exponents are at most the largest exponent of one factor
  plus the largest exponent of the other;
- in a quotient num / den to q-degree ``b``, every term of 1/den is a
  product of den's non-constant terms, each of q-degree at least 1, so an
  exponent there is at most ``b`` times the largest ratio of an exponent
  to the q-degree over those terms; adding the numerator's largest
  exponent bounds every partial sum of the layered division.

Keys are packed on entry and unpacked into exponent tuples on exit, one
variable's column of exponents at a time; the public term map stays
keyed by tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import add, and_, lshift, rshift
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .partitions import ConstraintClass, _require_int


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _packed(terms: Mapping[tuple[int, ...], int], width: int) -> list[tuple[int, int]]:
    """The (key, coefficient) pairs of a term map, packed one variable's
    column of exponents at a time, variable i at bit offset ``width * i``."""
    keys: Iterable[int] = repeat(0)
    for column, shift in zip(zip(*terms), count(0, width)):
        keys = map(add, keys, map(lshift, column, repeat(shift)))
    return list(zip(keys, terms.values()))


def _unpacked(terms: Mapping[int, int], n: int, width: int) -> dict[tuple[int, ...], int]:
    """The term map over ``n`` variables of a packed one, zeros dropped,
    unpacked one variable's column of exponents at a time; the bottom field
    needs no shift and the top one, q's, no mask."""
    mask = repeat((1 << width) - 1)
    top = width * (n - 1)
    keys = list(compress(terms, terms.values()))

    def column(shift: int) -> Iterable[int]:
        field = map(rshift, keys, repeat(shift)) if shift else keys
        return field if shift == top else map(and_, field, mask)

    return dict(zip(zip(*(column(width * i) for i in range(n))), filter(None, terms.values())))


class MultiPoly:
    """Sparse polynomial: a map from exponent vectors to int coefficients.

    The variable tuple must end with ``q``; the q-exponent of every stored
    term is at most ``qbound`` (when that is not None) and no zero
    coefficients are stored.  Exponents, coefficients and a bound must be
    ints, not bools; anything else raises :class:`TypeError`.  Instances are immutable by convention: the
    term map is exposed read-only and every operation builds a new value.
    """

    __slots__ = ("variables", "qbound", "_terms")

    def __init__(
        self,
        variables: tuple[str, ...],
        terms: Mapping[tuple[int, ...], int],
        qbound: int | None = None,
    ):
        if not variables or variables[-1] != "q":
            raise ValueError("the variable tuple must end with 'q'")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if qbound is not None:
            _require_int(qbound, "qbound", 0)
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            _require_int(coeff, "a coefficient")
            if not isinstance(exps, tuple):
                raise TypeError(f"an exponent vector must be a tuple, got {type(exps).__name__}")
            if len(exps) != len(variables):
                raise ValueError("exponent vector length does not match the variables")
            for e in exps:
                if type(e) is not int:
                    raise TypeError(f"an exponent must be an int, got {type(e).__name__}")
                if e < 0:
                    raise ValueError("negative exponents are not supported")
            if coeff == 0 or (qbound is not None and exps[-1] > qbound):
                continue
            clean[exps] = coeff
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "qbound", qbound)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, c: int, variables: tuple[str, ...], qbound: int | None = None) -> "MultiPoly":
        return cls(variables, {(0,) * len(variables): c}, qbound)

    @classmethod
    def monomial(
        cls,
        variables: tuple[str, ...],
        coeff: int = 1,
        exponents: Mapping[str, int] | None = None,
        qbound: int | None = None,
    ) -> "MultiPoly":
        exponents = exponents or {}
        unknown = set(exponents) - set(variables)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        vec = tuple(exponents.get(v, 0) for v in variables)
        return cls(variables, {vec: coeff}, qbound)

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType(self._terms)

    def coefficient(self, exponents: Mapping[str, int]) -> int:
        unknown = set(exponents).difference(self.variables)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        vec = tuple(exponents.get(v, 0) for v in self.variables)
        return self._terms.get(vec, 0)

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if self.variables != other.variables:
            raise ValueError(f"variables {self.variables} vs {other.variables}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        bound = _min_bound(self.qbound, other.qbound)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return _unchecked(self.variables, _truncated(out, bound), bound)

    def __neg__(self) -> "MultiPoly":
        return _unchecked(self.variables, {e: -c for e, c in self._terms.items()}, self.qbound)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        bound = _min_bound(self.qbound, other.qbound)
        n = len(self.variables)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return _unchecked(self.variables, {}, bound)
        width = (max(chain.from_iterable(a)) + max(chain.from_iterable(b))).bit_length()
        top = width * (n - 1)
        outer = _packed(a, width)
        inner = _packed(b, width)
        if bound is not None and (max(outer)[0] >> top) + (max(inner)[0] >> top) > bound:
            # some pair passes the bound: cut the sorted inner list, as
            # ka + kb < limit exactly when the pair's q-degree fits
            inner.sort()
            keys = [k for k, _ in inner]
            limit = (bound + 1) << top
            rows = ((ka, ca, inner[: bisect_left(keys, limit - ka)]) for ka, ca in outer)
        else:
            rows = ((ka, ca, inner) for ka, ca in outer)
        out: dict[int, int] = {}
        get = out.get
        for ka, ca, row in rows:
            for kb, cb in row:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        return _unchecked(self.variables, _unpacked(out, n, width), bound)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self):
        return hash((self.variables, frozenset(self._terms.items())))

    # -- reshaping ----------------------------------------------------------

    def substitute(self, assignment: Mapping[str, "MultiPoly | int"]) -> "MultiPoly":
        """Simultaneous substitution; unassigned variables map to themselves,
        and a key that is no variable here raises ``ValueError``.

        Each value is an int or a polynomial of at most one term c*m (a
        longer one raises ValueError), so a term with exponent e in the
        variable maps to one term, times c^e and shifted by e*m.  Polynomial
        values share one variable tuple, the result's (by default this
        polynomial's own).  The result keeps the smallest bound among this
        polynomial and the polynomial values whose variable occurs."""
        target = next((v.variables for v in assignment.values() if isinstance(v, MultiPoly)), self.variables)
        for v in assignment.values():
            if isinstance(v, MultiPoly):
                if v.variables != target:
                    raise ValueError("substitution images use differing variable tuples")
                if len(v._terms) > 1:
                    raise ValueError(f"a substitution value must be a single term, got {v.text()}")
            elif type(v) is not int:
                raise TypeError(f"a substitution value must be an int or a MultiPoly, got {type(v).__name__}")
        unknown = set(assignment).difference(self.variables)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        zero = (0,) * len(target)
        bound = self.qbound
        images: list[tuple[int, tuple[int, ...]]] = []  # each variable's image c*m as (c, m); () for m = 1
        for i, name in enumerate(self.variables):
            if name not in assignment:
                if name not in target:
                    raise ValueError(f"variable {name!r} is unassigned and missing from the target")
                images.append((1, tuple([int(v == name) for v in target])))
            elif type(val := assignment[name]) is int:
                images.append((val, ()))
            else:
                ((m, c),) = val._terms.items() or (((), 0),)
                images.append((c, m))
                if any(exps[i] for exps in self._terms):
                    bound = _min_bound(bound, val.qbound)
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self._terms.items():
            vec = zero
            for (c, m), e in zip(images, exps):
                if e:
                    coeff *= c**e
                    if m:
                        vec = tuple([a + e * b for a, b in zip(vec, m)])
            out[vec] = out.get(vec, 0) + coeff
        return _unchecked(target, _truncated(out, bound), bound)

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in the canonical order: q-degree, then exponent vector."""
        return sorted(self._terms.items(), key=lambda item: (item[0][-1], item[0]))

    def text(self) -> str:
        """Canonical text form: terms by (q-degree, exponent vector), as in
        ``x*y*q + x^2*y*q^2``."""
        if not self._terms:
            return "0"
        chunks: list[tuple[str, str]] = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(self.variables, exps) if e
            )
            mag = abs(coeff)
            if not mono:
                frag = str(mag)
            elif mag == 1:
                frag = mono
            else:
                frag = f"{mag}*{mono}"
            chunks.append(("-" if coeff < 0 else "+", frag))
        sign, frag = chunks[0]
        out = ("-" if sign == "-" else "") + frag
        for sign, frag in chunks[1:]:
            out += f" {sign} {frag}"
        return out

    def json_terms(self) -> list[dict]:
        """Stable JSON-ready term list (zero exponents omitted)."""
        return [
            {
                "coeff": coeff,
                "exponents": {v: e for v, e in zip(self.variables, exps) if e},
            }
            for exps, coeff in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        return f"MultiPoly({self.text()!r}, qbound={self.qbound})"


def _unchecked(variables: tuple[str, ...], terms: dict[tuple[int, ...], int], qbound: int | None) -> MultiPoly:
    """The :class:`MultiPoly` of ``terms``, without ``__init__`` and without
    validation: the caller guarantees that ``variables`` ends with q, every
    key is a tuple of non-negative ints of the right length, no coefficient
    is zero and no q-degree exceeds ``qbound``."""
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "qbound", qbound)
    object.__setattr__(p, "_terms", terms)
    return p


def _truncated(terms: dict[tuple[int, ...], int], qbound: int | None) -> dict[tuple[int, ...], int]:
    """``terms`` without zero coefficients or q-degrees above ``qbound``."""
    if qbound is None:
        return {e: c for e, c in terms.items() if c}
    return {e: c for e, c in terms.items() if c and e[-1] <= qbound}


def _monomials(variables: tuple[str, ...], qbound: int | None = None) -> Callable[..., MultiPoly]:
    """m(coeff=1, **exponents): the monomial over ``variables``, bound ``qbound``."""

    def m(coeff: int = 1, **exponents: int) -> MultiPoly:
        return MultiPoly.monomial(variables, coeff, exponents, qbound)

    return m


def series_inverse(p: MultiPoly, qbound: int | None = None) -> MultiPoly:
    """The expansion of 1 / ``p`` to the smaller of ``qbound`` and
    ``p.qbound``: p is known only to its own bound, so its inverse is too.
    The q-degree-0 part of ``p`` must be exactly the constant 1; then the
    inverse has integer polynomial coefficients."""
    bound = _min_bound(qbound, p.qbound)
    if bound is None:
        raise ValueError("an explicit qbound is required to invert an unbounded polynomial")
    return expand(RationalGF(MultiPoly.constant(1, p.variables, bound), p), bound)


def _divide(num: MultiPoly, den: MultiPoly, qbound: int) -> MultiPoly:
    """The quotient num / den to q-degree ``qbound``, layer by layer in q:
    r_j = num_j - (den_1 r_(j-1) + ... + den_j r_0), where den_i is the
    q-degree-i part of ``den``, whose q-degree-0 part :class:`RationalGF`
    has checked is exactly 1.  Only the few layers that den has are visited."""
    _require_int(qbound, "qbound", 0)
    n = len(den.variables)
    rest = {e: c for e, c in den._terms.items() if 0 < e[-1] <= qbound}
    reach = max((max(e) * qbound // e[-1] for e in rest), default=0)
    width = (max(chain.from_iterable(num._terms), default=0) + reach).bit_length()
    top = width * (n - 1)
    num_layers: list[dict[int, int]] = [{} for _ in range(qbound + 1)]
    for k, c in _packed(num._terms, width):
        if k >> top <= qbound:
            num_layers[k >> top][k] = c
    den_layers: dict[int, list[tuple[int, int]]] = {}
    for k, c in _packed(rest, width):
        den_layers.setdefault(k >> top, []).append((k, c))
    ordered = sorted(den_layers.items())
    quotient: list[list[tuple[int, int]]] = []
    for j, acc in enumerate(num_layers):
        get = acc.get
        for i, layer in ordered:
            if i > j:
                break
            prev = quotient[j - i]
            for kd, cd in layer:
                for kr, cr in prev:
                    k = kd + kr
                    acc[k] = get(k, 0) - cd * cr
        quotient.append(list(compress(acc.items(), acc.values())))
    terms: dict[int, int] = {}
    for acc in num_layers:
        terms.update(acc)
    return _unchecked(den.variables, _unpacked(terms, n, width), qbound)


def pochhammer(base: MultiPoly, n: int, qbound: int | None = None) -> MultiPoly:
    """Product (1 - base) (1 - base*q) ... (1 - base*q^(n-1)); 1 for n = 0."""
    _require_int(n, "n", 0)
    bound = _min_bound(base.qbound, qbound)
    result = MultiPoly.constant(1, base.variables, bound)
    q = MultiPoly.monomial(base.variables, 1, {"q": 1}, bound)
    shifted = MultiPoly(base.variables, base.terms, bound)
    one = MultiPoly.constant(1, base.variables, bound)
    for _ in range(n):
        result = result * (one - shifted)
        shifted = shifted * q
    return result


@dataclass(frozen=True)
class RationalGF:
    """A rational generating function num/den with den a series unit.

    The denominator's q-degree-0 part must be exactly the constant 1, which
    makes the power-series expansion unique at any truncation order; no
    quotient is checked anywhere else.
    """

    numerator: MultiPoly
    denominator: MultiPoly

    def __post_init__(self) -> None:
        den = self.denominator
        if self.numerator.variables != den.variables:
            raise ValueError("numerator and denominator must share variables")
        if {e: c for e, c in den._terms.items() if e[-1] == 0} != {(0,) * len(den.variables): 1}:
            raise ValueError("denominator must have q-degree-0 part exactly 1")


def expand(gf: RationalGF, qbound: int) -> MultiPoly:
    """Power-series expansion of ``gf`` truncated at q-degree ``qbound``:
    the one layered division of the GF's own polynomials.  The gate proves
    it: ``gf-coefficients`` against brute force for every class,
    ``pentagonal-analogue`` and ``refined-identity`` on their series."""
    return _divide(gf.numerator, gf.denominator, qbound)


def gf_of_class(c: ConstraintClass) -> RationalGF:
    """Closed rational form of sum x^(largest part) y^(length) q^(perimeter)
    over the partitions in class ``c``.

    Each form reads off the boundary word: the first E and last N give the
    factor x*y*q, and the middle letters contribute the geometric factor in
    the denominator: under the rule (g, m), runs E^m and blocks N*E^gap,
    where gap = m*ceil(g/m) is the least difference of two parts.
    """
    m = _monomials(("x", "y", "q"))
    one = m()
    xyq = m(x=1, y=1, q=1)
    if c.rule is not None:
        g, mod = c.rule
        gap = mod * -(-g // mod)
        return RationalGF(xyq, one - m(x=mod, q=mod) - m(x=gap, y=1, q=gap + 1))
    # residue-and-gap
    d = c.d
    num = xyq * (one - m(y=1, q=1) + m(x=d + 1, q=d + 1))
    den = one - m(2, y=1, q=1) + m(y=2, q=2) - m(x=2 * d + 1, y=1, q=2 * d + 2)
    return RationalGF(num, den)
