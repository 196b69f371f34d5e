"""Generalized Reed-Solomon codes as first-class specifications.

A GrsSpec records locators a = (a_1..a_n) of pairwise distinct field
elements, nonzero multipliers v = (v_1..v_n) and a dimension k. Codewords are
(v_1 f(a_1), ..., v_n f(a_n)) over all polynomials f of degree < k; extended
specs take the locators to be all q field elements and append the coefficient
of X^(k-1) as an extra coordinate, giving length q + 1.

The dual of a spec of length m and dimension k is again a spec on the same
locators, of dimension m - k, with multipliers v_i / s_i and the same
extended flag. The scale is s_i = v_i^2 / u_i, where u_i = prod_{j != i}
(a_i - a_j)^(-1) for a plain spec and u_i = 1 for an extended one: there the
locators are all of GF(q), and the sum of a^t over a in GF(q) is 0 for
t < q - 1 and -1 for t = q - 1, which the extra coordinate cancels.
Membership of a codeword in the dual is decided without linear algebra,
independent of linear.py: in_dual reads the degree of the witness polynomial
through the scaled values off its Newton coefficients (divided_differences),
from two read-only tables it makes on its first call: the powers s_i a_i^t,
t < k (n k entries), and poly.inverse_differences of the locators (n(n-1)/2).

construct.spec_verdict proves a code, with no generator(), from the power sums
h_m = sum v_i^2 a_i^m: G G^T is their Hankel matrix, +1 at h_(2k-2) if extended.

The u_i above and the window family's multipliers are products of
differences of locators; difference_products computes each one as a sum of
logs on the field's tables, in batches of linear.BATCH_ENTRIES.

A GrsSpec checks its locators, multipliers, k and extended flag when it is
made (from_dict unpacks, and raises ParameterError on a malformed record),
and a Poly its messages, so dual(), codeword and in_dual run unchecked on the
field's tables; dual_multipliers and inverse_differences, called once per
spec for in_dual's tables, check the locators again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linear
from .errors import FieldMismatch, LcdMdsError, ParameterError
from .fields import Field, json_int
from .poly import Poly, divided_differences, inverse_differences
from .poly import interpolate  # noqa: F401 (perfbench wraps grs.interpolate)


def difference_products(F: Field, points, others) -> np.ndarray:
    """For each point a, the product of (a - x) over the x in others with x != a.

    One FieldArrays.submul per batch of points makes their differences; each
    product is a row sum of their logs mod q - 1 and one exp lookup, in which
    the x = a terms drop out with no mask, as log 0 = 2(q - 1). The caller checks.
    """
    arrays, x = F.arrays, np.array(others, dtype=np.int64)
    a = np.array(points, dtype=np.int64)[:, None]
    step = max(1, linear.BATCH_ENTRIES // max(1, x.size))
    logs = (arrays.log[arrays.submul(a[i : i + step], 1, x)] for i in range(0, len(a) or 1, step))
    return arrays.exp[np.concatenate([d.sum(axis=1) for d in logs]) % arrays.q1]


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
    return tuple(F.arrays.inv[difference_products(F, locs, locs)].tolist())


@dataclass(frozen=True)
class GrsSpec:
    field: Field
    locators: tuple[int, ...]
    multipliers: tuple[int, ...]
    k: int
    extended: bool = False

    def __post_init__(self):
        if self.extended.__class__ is not bool:
            raise ParameterError(f"extended must be true or false, got {self.extended!r}")
        json_int(self.k, "k")
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

    def generator(self) -> linear.LinearCode:
        """The LinearCode of _rows, made once per spec, for the generic oracles."""
        return self._generator

    @cached_property
    def _generator(self) -> linear.LinearCode:
        return linear.LinearCode(self.field, self._rows)

    @cached_property
    def _rows(self) -> np.ndarray:
        """The k x length Vandermonde-with-multipliers generator matrix, read-only."""
        rows = self._vandermonde(self.multipliers, self.length)
        if self.extended:
            rows[-1, -1] = 1
        rows.flags.writeable = False
        return rows

    def _vandermonde(self, scale, width: int) -> np.ndarray:
        """The k x width matrix of s_i a_i^r, r < k, with zeros past column n."""
        arrays = self.field.arrays
        scale = np.array(scale, dtype=np.int64)
        locators = np.array(self.locators, dtype=np.int64)
        rows = np.zeros((self.k, width), dtype=np.int64)
        powers = np.ones(self.n, dtype=np.int64)  # a^r, with 0^0 = 1
        for r in range(self.k):
            rows[r, : self.n] = arrays.mul(scale, powers)
            powers = arrays.mul(powers, locators)
        return rows

    def _check_message(self, f: Poly) -> None:
        """FieldMismatch or ParameterError unless f, over the field, has degree < k."""
        if f.field != self.field:
            raise FieldMismatch(f"{f.field!r} vs {self.field!r}")
        if f.degree > self.k - 1:
            raise ParameterError(f"message degree {f.degree} exceeds k - 1 = {self.k - 1}")

    def codeword(self, f: Poly) -> tuple[int, ...]:
        """(v_1 f(a_1), ..., v_n f(a_n)), plus f_(k-1) when extended."""
        self._check_message(f)
        word = [self.field._mul(v, f.eval(a)) for v, a in zip(self.multipliers, self.locators)]
        if self.extended:
            word.append(f.coeff(self.k - 1))
        return tuple(word)

    def dual(self) -> "GrsSpec":
        """Dual spec: same locators and kind, dimension length - k, multipliers v_i / s_i."""
        if self.k >= self.length:
            raise ParameterError("dual of a full-space spec is zero-dimensional")
        F = self.field
        vprime = tuple(F._mul(v, F._inv[s]) for v, s in zip(self.multipliers, self._dual_scale))
        return GrsSpec(F, self.locators, vprime, self.length - self.k, self.extended)

    def in_dual(self, f: Poly) -> bool:
        """Whether the codeword of f lies in the dual of this code.

        With d = length - k, the interpolant g through (a_i, s_i f(a_i)) must
        have deg g < d, and when extended also g_(d-1) = f_(k-1). Its Newton
        coefficients d_j answer both: d_j = 0 for every j >= d, and then
        d_(d-1) is g_(d-1). A call reads the spec's two tables: no Poly.eval, no inverse.
        """
        self._check_message(f)
        F, submul, ys = self.field, self.field._submul, [0] * self.n
        for minus_c, powers in zip([F._neg[c] for c in f.coeffs], self._dual_powers):
            ys = [submul(y, minus_c, power) for y, power in zip(ys, powers)]  # y_i + f_t s_i a_i^t
        g, d = divided_differences(F, ys, self._inverse_differences), self.length - self.k
        return not any(g[d:]) and (not self.extended or g[d - 1] == f.coeff(self.k - 1))

    @cached_property
    def _dual_powers(self) -> tuple[tuple[int, ...], ...]:  # s_i a_i^t, one row per t < k
        return tuple(map(tuple, self._vandermonde(self._dual_scale, self.n).tolist()))

    @cached_property
    def _inverse_differences(self) -> tuple[tuple[int, ...], ...]:
        return tuple(inverse_differences(self.field, self.locators))

    @cached_property
    def _dual_scale(self) -> tuple[int, ...]:
        """s_i = v_i^2 / u_i, with u_i = 1 when extended."""
        F = self.field
        u = (1,) * self.n if self.extended else dual_multipliers(F, self.locators)
        return tuple(F._mul(F._mul(v, v), F._inv[ui]) for v, ui in zip(self.multipliers, u))

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
        """The spec of a record from to_dict; ParameterError if malformed."""
        try:
            F, k, extended = Field.from_dict(d["field"]), d["k"], d.get("extended", False)
            return cls(F, tuple(d["locators"]), tuple(d["multipliers"]), k, extended)
        except (KeyError, TypeError, ValueError) as exc:
            raise exc if isinstance(exc, LcdMdsError) else ParameterError(f"malformed spec: {exc}")
