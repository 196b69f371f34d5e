"""Dense univariate polynomials over a Field.

Coefficients are stored low degree first with no trailing zeros; the zero
polynomial is the empty tuple and its degree is -inf, so degree-bound tests
like deg g <= n - k - 1 hold for it uniformly.

Elements are checked where they enter (the coefficients given to Poly, the x
given to eval, the points given to interpolate), and the Horner and
divided-difference loops then run unchecked on the field's tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .fields import Field

NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class Poly:
    field: Field
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = [self.field.check(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, x: int) -> int:
        """Horner evaluation at a field element."""
        F = self.field
        F.check(x)
        add, mul = F._add, F._mul
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc

    def coeff(self, i: int) -> int:
        """Coefficient of X^i; zero beyond the degree."""
        if i < 0:
            raise ParameterError("coefficient index must be nonnegative")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __repr__(self):
        if not self.coeffs:
            return f"Poly({self.field!r}, 0)"
        terms = " + ".join(
            f"{c}*X^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c
        )
        return f"Poly({self.field!r}, {terms})"


def interpolate(field: Field, points) -> Poly:
    """Unique polynomial of degree < m through m points, by divided differences.

    The x-coordinates must be pairwise distinct; exact in O(m^2) field ops.
    """
    pts = list(points)
    if not pts:
        raise ParameterError("interpolation needs at least one point")
    xs = [field.check(x) for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ParameterError("duplicate interpolation node")
    ys = [field.check(y) for _, y in pts]

    add, sub, mul, inv = field._add, field._sub, field._mul, field._inv
    m = len(pts)
    d = list(ys)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            d[i] = mul(sub(d[i], d[i - 1]), inv[sub(xs[i], xs[i - j])])
    # Horner-expand the Newton form into plain coefficients
    out = [0] * m
    out[0] = d[m - 1]
    deg = 0
    for j in range(m - 2, -1, -1):
        nx = field._neg[xs[j]]
        deg += 1
        for t in range(deg, 0, -1):
            out[t] = add(out[t - 1], mul(out[t], nx))
        out[0] = add(mul(out[0], nx), d[j])
    return Poly(field, out)
