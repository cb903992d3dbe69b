"""Sparse exact polynomials in x, y, q (and friends), truncated in q.

Everything here works in the ring Z[vars] with a hard cap on the q-degree:
terms whose q-exponent exceeds the bound are dropped, which makes these
polynomials a faithful model of formal power series in q with polynomial
coefficients.  All coefficients are Python ints, so every computation is
exact.

A ``qbound`` of ``None`` means "never truncate" (a plain polynomial);
binary operations carry the smaller of the two operand bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .partitions import ConstraintClass


class VariableMismatch(ValueError):
    pass


class NonUnitConstantTerm(ValueError):
    pass


class NonUnitDenominator(ValueError):
    pass


class ExpansionCheckFailed(ArithmeticError):
    """An expansion times its denominator did not give back the numerator."""


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class MultiPoly:
    """Sparse polynomial: a map from exponent vectors to int coefficients.

    The variable tuple must contain ``q``; the q-exponent of every stored
    term is at most ``qbound`` (when that is not None) and no zero
    coefficients are stored.  Instances are immutable by convention: the
    term map is exposed read-only and every operation builds a new value.
    """

    __slots__ = ("variables", "qbound", "_terms", "_qi")

    def __init__(
        self,
        variables: tuple[str, ...],
        terms: Mapping[tuple[int, ...], int],
        qbound: int | None = None,
    ):
        if "q" not in variables:
            raise VariableMismatch("the variable tuple must contain 'q'")
        if len(set(variables)) != len(variables):
            raise VariableMismatch("duplicate variable names")
        qi = variables.index("q")
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            if coeff == 0:
                continue
            if len(exps) != len(variables):
                raise VariableMismatch("exponent vector length does not match the variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponents are not supported")
            if qbound is not None and exps[qi] > qbound:
                continue
            clean[exps] = coeff
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "qbound", qbound)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_qi", qi)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, variables: tuple[str, ...], qbound: int | None = None) -> "MultiPoly":
        return cls(variables, {}, qbound)

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
            raise VariableMismatch(f"unknown variables {sorted(unknown)}")
        vec = tuple(exponents.get(v, 0) for v in variables)
        return cls(variables, {vec: coeff}, qbound)

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType(self._terms)

    def coefficient(self, exponents: Mapping[str, int]) -> int:
        vec = tuple(exponents.get(v, 0) for v in self.variables)
        return self._terms.get(vec, 0)

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if self.variables != other.variables:
            raise VariableMismatch(f"variables {self.variables} vs {other.variables}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return MultiPoly(self.variables, out, _min_bound(self.qbound, other.qbound))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self._terms.items()}, self.qbound)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        bound = _min_bound(self.qbound, other.qbound)
        qi = self._qi
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                if bound is not None and e1[qi] + e2[qi] > bound:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(self.variables, out, bound)

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.constant(1, self.variables, self.qbound)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: int) -> "MultiPoly":
        return MultiPoly(self.variables, {e: c * v for e, v in self._terms.items()}, self.qbound)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self):
        return hash((self.variables, frozenset(self._terms.items())))

    # -- reshaping ----------------------------------------------------------

    def with_qbound(self, qbound: int | None) -> "MultiPoly":
        return MultiPoly(self.variables, self._terms, qbound)

    def substitute(self, assignment: Mapping[str, "MultiPoly | int"]) -> "MultiPoly":
        """Simultaneous substitution; unassigned variables map to themselves.

        Integer values are taken as constants.  All polynomial values must
        share one variable tuple, which becomes the result's tuple (it
        defaults to this polynomial's own tuple).
        """
        target: tuple[str, ...] | None = None
        for v in assignment.values():
            if isinstance(v, MultiPoly):
                if target is None:
                    target = v.variables
                elif v.variables != target:
                    raise VariableMismatch("substitution images use differing variable tuples")
        if target is None:
            target = self.variables
        images: dict[str, MultiPoly] = {}
        for name in self.variables:
            if name in assignment:
                val = assignment[name]
                images[name] = (
                    MultiPoly.constant(val, target, self.qbound) if isinstance(val, int) else val
                )
            else:
                if name not in target:
                    raise VariableMismatch(f"variable {name!r} is unassigned and missing from the target")
                images[name] = MultiPoly.monomial(target, 1, {name: 1}, self.qbound)
        result = MultiPoly.zero(target, self.qbound)
        powers: dict[tuple[str, int], MultiPoly] = {}
        for exps, coeff in self._terms.items():
            term = MultiPoly.constant(coeff, target, self.qbound)
            for name, e in zip(self.variables, exps):
                if e:
                    key = (name, e)
                    if key not in powers:
                        powers[key] = images[name] ** e
                    term = term * powers[key]
            result = result + term
        return result

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in the canonical order: q-degree, then exponent vector."""
        qi = self._qi
        return sorted(self._terms.items(), key=lambda item: (item[0][qi], item[0]))

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


def poly_gens(*names: str, qbound: int | None = None) -> tuple[MultiPoly, ...]:
    """Generator monomials for each name over the shared variable tuple."""
    variables = tuple(names)
    return tuple(MultiPoly.monomial(variables, 1, {n: 1}, qbound) for n in names)


def series_inverse(p: MultiPoly, qbound: int | None = None) -> MultiPoly:
    """The r with p * r = 1 up to the q-degree bound.

    Requires the q-degree-0 part of ``p`` to be exactly the constant 1;
    then the inverse has integer polynomial coefficients and is found layer
    by layer from r_j = -(p_1 r_{j-1} + ... + p_j r_0).
    """
    if qbound is None:
        qbound = p.qbound
    if qbound is None:
        raise ValueError("an explicit qbound is required to invert an unbounded polynomial")
    zero_vec = (0,) * len(p.variables)
    qi = p.variables.index("q")
    p_layers: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, coeff in p.terms.items():
        if exps[qi] <= qbound:
            p_layers.setdefault(exps[qi], {})[exps] = coeff
    if p_layers.get(0) != {zero_vec: 1}:
        raise NonUnitConstantTerm("the q-degree-0 part must be exactly 1")
    r_layers: dict[int, dict[tuple[int, ...], int]] = {0: {zero_vec: 1}}
    for j in range(1, qbound + 1):
        acc: dict[tuple[int, ...], int] = {}
        for i in range(1, j + 1):
            pi = p_layers.get(i)
            rj = r_layers.get(j - i)
            if not pi or not rj:
                continue
            for e1, c1 in pi.items():
                for e2, c2 in rj.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    acc[key] = acc.get(key, 0) - c1 * c2
        acc = {e: c for e, c in acc.items() if c}
        if acc:
            r_layers[j] = acc
    flat: dict[tuple[int, ...], int] = {}
    for layer in r_layers.values():
        flat.update(layer)
    return MultiPoly(p.variables, flat, qbound)


def pochhammer(base: MultiPoly, n: int, qbound: int | None = None) -> MultiPoly:
    """Product (1 - base) (1 - base*q) ... (1 - base*q^(n-1)); 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    bound = _min_bound(base.qbound, qbound)
    result = MultiPoly.constant(1, base.variables, bound)
    q = MultiPoly.monomial(base.variables, 1, {"q": 1}, bound)
    shifted = base.with_qbound(bound)
    one = MultiPoly.constant(1, base.variables, bound)
    for _ in range(n):
        result = result * (one - shifted)
        shifted = shifted * q
    return result


@dataclass(frozen=True)
class RationalGF:
    """A rational generating function num/den with den a series unit.

    The denominator's q-degree-0 part must be exactly the constant 1, which
    makes the power-series expansion unique at any truncation order.
    """

    numerator: MultiPoly
    denominator: MultiPoly

    def __post_init__(self) -> None:
        if self.numerator.variables != self.denominator.variables:
            raise VariableMismatch("numerator and denominator must share variables")
        qi = self.denominator.variables.index("q")
        zero_vec = (0,) * len(self.denominator.variables)
        q0 = {e: c for e, c in self.denominator.terms.items() if e[qi] == 0}
        if q0 != {zero_vec: 1}:
            raise NonUnitDenominator("denominator must have q-degree-0 part exactly 1")


def expand(gf: RationalGF, qbound: int) -> MultiPoly:
    """Power-series expansion of ``gf`` truncated at q-degree ``qbound``.

    The result is checked by multiplying back: expansion * denominator must
    reproduce the numerator up to the bound, or :class:`ExpansionCheckFailed`
    is raised.
    """
    if qbound < 0:
        raise ValueError("qbound must be non-negative")
    num = gf.numerator.with_qbound(qbound)
    den = gf.denominator.with_qbound(qbound)
    result = num * series_inverse(den, qbound)
    if result * den != num:
        raise ExpansionCheckFailed("expansion failed the multiply-back check")
    return result


def gf_of_class(c: ConstraintClass) -> RationalGF:
    """Closed rational form of sum x^(largest part) y^(length) q^(perimeter)
    over the partitions in class ``c``.

    Each form reads off the boundary word: the first E and last N give the
    factor x*y*q, and the middle letters contribute the geometric factor in
    the denominator (for the gap classes, block-by-block).
    """
    V = ("x", "y", "q")

    def m(coeff: int = 1, x: int = 0, y: int = 0, q: int = 0) -> MultiPoly:
        return MultiPoly.monomial(V, coeff, {"x": x, "y": y, "q": q})

    one = m(1)
    xyq = m(1, 1, 1, 1)
    family, d = c.family
    if family == "gap":
        return RationalGF(xyq, one - m(1, 1, 0, 1) - m(1, d, 1, d + 1))
    if family == "residue":
        return RationalGF(xyq, one - m(1, 0, 1, 1) - m(1, d + 1, 0, d + 1))
    # residue-and-gap
    num = xyq * (one - m(1, 0, 1, 1) + m(1, d + 1, 0, d + 1))
    den = one - m(2, 0, 1, 1) + m(1, 0, 2, 2) - m(1, 2 * d + 1, 1, 2 * d + 2)
    return RationalGF(num, den)
