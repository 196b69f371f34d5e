"""Dense univariate polynomials over a Field.

Coefficients are stored low degree first with no trailing zeros; the zero
polynomial is the empty tuple and its degree is -inf, so degree-bound tests
like deg g <= n - k - 1 hold for it uniformly.

Elements are checked where they enter (the coefficients given to Poly, the x
given to eval, the points given to interpolate), and the Horner and
divided-difference loops then run unchecked, one Field._submul (a - b c) a step.
divided_differences, the Newton coefficients interpolate expands, checks
nothing: it reads the rows inverse_differences makes (and checks) per xs, one
at a time, so interpolate runs in O(m) memory. Nor does linear_complexity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .fields import Field, json_int

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
        submul, nx = F._submul, F._neg[F.check(x)]
        acc = 0
        for c in reversed(self.coeffs):
            acc = submul(c, acc, nx)  # c + acc x
        return acc

    def coeff(self, i: int) -> int:
        """Coefficient of X^i; zero beyond the degree."""
        if json_int(i, "coefficient index") < 0:
            raise ParameterError("coefficient index must be nonnegative")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __repr__(self):
        if not self.coeffs:
            return f"Poly({self.field!r}, 0)"
        terms = " + ".join(
            f"{c}*X^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c
        )
        return f"Poly({self.field!r}, {terms})"


def inverse_differences(field: Field, xs):
    """Rows j = 1..m-1 of 1/(x_i - x_(i-j)), i = j..m-1, each made as it is
    read (a table is their tuple); ParameterError on repeated xs, at once."""
    if len(set(xs)) != len(xs):
        raise ParameterError("duplicate interpolation node")
    inv, sub = field.inv, field.sub
    return (tuple(inv(sub(b, a)) for a, b in zip(xs, xs[j:])) for j in range(1, len(xs)))


def divided_differences(field: Field, ys, inverses) -> list[int]:
    """Newton coefficients d_0..d_(m-1) of the interpolant through (x_i, y_i), for
    checked ys and the rows of inverse differences of the xs, in order. Its
    degree is the last j with d_j != 0, and d_j is then its leading coefficient."""
    submul, mul, d = field._submul, field._mul, list(ys)
    for j, row in enumerate(inverses, 1):  # d_i = (d_i - d_(i-1)) / (x_i - x_(i-j)), i >= j
        low = d[j - 1]  # d_(i-1) as the previous row left it
        for i, w in enumerate(row, j):
            high = d[i]
            d[i] = mul(submul(high, 1, low), w)
            low = high
    return d


def interpolate(field: Field, points) -> Poly:
    """Unique polynomial of degree < m through m points, by divided differences.

    The x-coordinates must be pairwise distinct; exact in O(m^2) field ops.
    """
    pts = list(points)
    if not pts:
        raise ParameterError("interpolation needs at least one point")
    xs = [field.check(x) for x, _ in pts]
    ys = [field.check(y) for _, y in pts]

    submul, m = field._submul, len(pts)
    d = divided_differences(field, ys, inverse_differences(field, xs))
    # Horner-expand the Newton form: multiply by X - x_j, then add d_j
    out = [0] * m
    out[0] = d[m - 1]
    for j in range(m - 2, -1, -1):
        for t in range(m - 1 - j, 0, -1):
            out[t] = submul(out[t - 1], out[t], xs[j])
        out[0] = submul(d[j], out[0], xs[j])
    return Poly(field, out)


def linear_complexity(field: Field, s) -> int:
    """The length L of the shortest recurrence s_j + c_1 s_(j-1) + ... +
    c_L s_(j-L) = 0, j >= L, of a checked sequence, by Berlekamp-Massey (1969)."""
    submul, mul, inv, neg = field._submul, field._mul, field._inv, field._neg
    c, b, last, L, shift = [1], [1], 1, 0, 1
    for j, d in enumerate(s):
        for i in range(1, L + 1):
            d = submul(d, neg[c[i]], s[j - i])  # d + c_i s_(j-i), the discrepancy
        if d:
            old, ratio = c, mul(d, inv[last])
            c = c + [0] * (len(b) + shift - len(c))
            for i, bi in enumerate(b, shift):
                c[i] = submul(c[i], ratio, bi)  # c - (d / last) x^shift b
            if 2 * L <= j:
                L, b, last, shift = j + 1 - L, old, d, 0
        shift += 1
    return L
