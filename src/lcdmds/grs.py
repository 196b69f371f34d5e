"""Generalized Reed-Solomon codes as first-class specifications.

A GrsSpec records locators a = (a_1..a_n) of pairwise distinct field
elements, nonzero multipliers v = (v_1..v_n) and a dimension k. Codewords are
(v_1 f(a_1), ..., v_n f(a_n)) over all polynomials f of degree < k; extended
specs take the locators to be all q field elements and append the coefficient
of X^(k-1) as an extra coordinate, giving length q + 1.

The dual of a non-extended spec is again a GRS spec on the same locators with
multipliers u_i / v_i, where u_i = prod_{j != i} (a_i - a_j)^(-1). Membership
of a codeword in the dual can be decided without any linear algebra by
interpolating a witness polynomial and testing its degree; in_dual implements
that route, independent of the null-space machinery in linear.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import FieldMismatch, ParameterError
from .fields import Field, json_int
from .linear import LinearCode
from .poly import Poly, interpolate


@lru_cache(maxsize=65536)
def _dual_multipliers_cached(F: Field, locators: tuple[int, ...]) -> tuple[int, ...]:
    mul, sub, inv = F.mul, F.sub, F.inv
    out = []
    for i, ai in enumerate(locators):
        prod = 1
        for j, aj in enumerate(locators):
            if j != i:
                prod = mul(prod, sub(ai, aj))
        out.append(inv(prod))
    return tuple(out)


def dual_multipliers(F: Field, locators) -> tuple[int, ...]:
    """u_i = prod over j != i of (a_i - a_j)^(-1), for distinct locators.

    When the locators are all q field elements every u_i equals -1, and when
    they form an additive subgroup H every u_i equals the inverse of the
    product of the nonzero elements of H; both identities are exercised by
    the test suite.
    """
    locs = tuple(F.check(a) for a in locators)
    if len(set(locs)) != len(locs):
        raise ParameterError("duplicate locator")
    return _dual_multipliers_cached(F, locs)


@dataclass(frozen=True)
class GrsSpec:
    field: Field
    locators: tuple[int, ...]
    multipliers: tuple[int, ...]
    k: int
    extended: bool = False

    def __post_init__(self):
        F = self.field
        locs = tuple(F.check(a) for a in self.locators)
        mults = tuple(F.check(v) for v in self.multipliers)
        object.__setattr__(self, "locators", locs)
        object.__setattr__(self, "multipliers", mults)
        if len(set(locs)) != len(locs):
            raise ParameterError("duplicate locator")
        if len(mults) != len(locs):
            raise ParameterError("need one multiplier per locator")
        if any(v == 0 for v in mults):
            raise ParameterError("multipliers must be nonzero")
        if not 1 <= self.k <= len(locs):
            raise ParameterError(f"dimension must satisfy 1 <= k <= {len(locs)}")
        if self.extended and len(locs) != F.q:
            raise ParameterError("extended spec must use all q field elements")

    @property
    def n(self) -> int:
        return len(self.locators)

    @property
    def length(self) -> int:
        """Code length: n, or q + 1 for extended specs."""
        return self.n + 1 if self.extended else self.n

    def generator(self) -> LinearCode:
        """The k x length Vandermonde-with-multipliers generator matrix.

        Built once per spec; every call returns the same LinearCode.
        """
        return self._generator

    @cached_property
    def _generator(self) -> LinearCode:
        F = self.field
        mul = F.mul
        rows = []
        powers = [1] * self.n
        for r in range(self.k):
            row = [mul(v, w) for v, w in zip(self.multipliers, powers)]
            if self.extended:
                row.append(1 if r == self.k - 1 else 0)
            rows.append(row)
            powers = [mul(w, a) for w, a in zip(powers, self.locators)]
        return LinearCode(F, rows)

    def codeword(self, f: Poly) -> tuple[int, ...]:
        """(v_1 f(a_1), ..., v_n f(a_n)), plus f_(k-1) when extended."""
        F = self.field
        if f.field != F:
            raise FieldMismatch(f"{f.field!r} vs {F!r}")
        if f.degree > self.k - 1:
            raise ParameterError(f"message degree {f.degree} exceeds k - 1 = {self.k - 1}")
        word = [F.mul(v, f.eval(a)) for v, a in zip(self.multipliers, self.locators)]
        if self.extended:
            word.append(f.coeff(self.k - 1))
        return tuple(word)

    def dual(self) -> "GrsSpec":
        """Dual spec: same locators, dimension n - k, multipliers u_i / v_i."""
        if self.extended:
            raise ParameterError(
                "extended specs have no GRS-shaped dual here; use generator().dual()"
            )
        if self.k >= self.n:
            raise ParameterError("dual of a full-space spec is zero-dimensional")
        F = self.field
        u = dual_multipliers(F, self.locators)
        vprime = tuple(F.div(ui, vi) for ui, vi in zip(u, self.multipliers))
        return GrsSpec(F, self.locators, vprime, self.n - self.k, extended=False)

    def in_dual(self, f: Poly) -> bool:
        """Whether the codeword of f lies in the dual of this code.

        Non-extended: interpolate g through (a_i, v_i^2 f(a_i) / u_i) and
        test deg g <= n - k - 1. Extended: interpolate g through
        (a_i, v_i^2 f(a_i)) over all q elements and test deg g <= q - k with
        the coefficient of X^(q-k) in g equal to that of X^(k-1) in f.
        """
        F = self.field
        if f.field != F:
            raise FieldMismatch(f"{f.field!r} vs {F!r}")
        if f.degree > self.k - 1:
            raise ParameterError(f"message degree {f.degree} exceeds k - 1 = {self.k - 1}")
        points = [(a, F.mul(s, f.eval(a))) for s, a in zip(self._dual_scale, self.locators)]
        g = interpolate(F, points)
        if self.extended:
            return g.degree <= F.q - self.k and g.coeff(F.q - self.k) == f.coeff(self.k - 1)
        return g.degree <= self.n - self.k - 1

    @cached_property
    def _dual_scale(self) -> tuple[int, ...]:
        """in_dual's per-locator scale: v_i^2 / u_i, or v_i^2 when extended."""
        F = self.field
        vsq = [F.mul(v, v) for v in self.multipliers]
        if self.extended:
            return tuple(vsq)
        u = dual_multipliers(F, self.locators)
        return tuple(F.div(w, ui) for w, ui in zip(vsq, u))

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "locators": list(self.locators),
            "multipliers": list(self.multipliers),
            "k": self.k,
            "extended": self.extended,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GrsSpec":
        F = Field.from_dict(d["field"])
        return cls(
            F,
            tuple(d["locators"]),
            tuple(d["multipliers"]),
            json_int(d["k"], "k"),
            bool(d.get("extended", False)),
        )
