"""Generic linear codes over a Field, given by full-row-rank generator matrices.

This module holds the verification oracles everything else is checked
against: reduced row echelon form and rank, dual codes via null spaces,
intersection and hull dimensions, and two independent MDS tests (exhaustive
enumeration of one codeword per projective point, and nonsingularity of
every k-column submatrix).
Matrices are sequences of rows of canonical element indices. Their elements
are checked once, in _matrix; then RREF (one Gauss-Jordan step per pivot)
and the product G Gt behind the hull run on the field's shared FieldArrays.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, combinations, islice
from math import comb, log10

import numpy as np

from .errors import BudgetExceeded, FieldMismatch, ParameterError
from .fields import Field, json_int

# The one default work budget, for the library and the CLI alike: at most
# this many enumerated codewords or eliminated column subsets per MDS check.
DEFAULT_BUDGET = 10**6

ROUTE_ENUMERATION = "enumeration"
ROUTE_COLUMN_SUBSETS = "column_subsets"

# The column-subset kernel eliminates max(1, SUBSET_BATCH_ENTRIES // k^2)
# k x k submatrices at a time, which bounds its working set whatever C(n, k).
SUBSET_BATCH_ENTRIES = 1 << 14


def _amount(value: int, text: str) -> str:
    """value in full up to 12 digits, else text with its order of magnitude."""
    if value < 10**12:
        return str(value)
    exponent = int(log10(value))
    mantissa = round(10 ** (log10(value) - exponent), 1)
    if mantissa >= 10:
        mantissa, exponent = mantissa / 10, exponent + 1
    return f"{text} (~{mantissa:.1f}e{exponent})"


def mds_route(q: int, n: int, k: int, budget: int = DEFAULT_BUDGET) -> str:
    """The MDS route an [n, k] code over GF(q) takes within the budget.

    Enumeration when q^k fits (the budget counts q^k although only one
    codeword per projective point is weighed), else column subsets when
    C(n, k) fits; raises BudgetExceeded when neither does, before any work.
    The only place MDS work is compared with the budget.
    """
    if k == 0:
        raise ParameterError("zero-dimensional code has no MDS predicate")
    if q**k <= budget:
        return ROUTE_ENUMERATION
    if comb(n, k) <= budget:
        return ROUTE_COLUMN_SUBSETS
    raise BudgetExceeded(
        f"MDS check: neither {_amount(q**k, f'{q}^{k}')} codewords nor "
        f"{_amount(comb(n, k), f'C({n}, {k})')} column subsets fit the budget {budget}"
    )


def _matrix(field: Field, rows) -> list[list[int]]:
    out = [[field.check(x) for x in row] for row in rows]
    if out and len({len(r) for r in out}) != 1:
        raise ParameterError("matrix rows have unequal lengths")
    return out


def rref(field: Field, rows):
    """Reduced row echelon form.

    Returns (rref_rows, rank, pivot_columns). Deterministic: the pivot for
    each column is the first row, top to bottom, with a nonzero entry there.
    """
    M = _matrix(field, rows)
    if not M:
        return (), 0, ()
    arrays = field.arrays
    A = np.array(M, dtype=np.int64)
    pivots = []
    for c in range(A.shape[1]):
        r = len(pivots)
        below = np.flatnonzero(A[r:, c])
        if not below.size:
            continue
        # no swap: row r moves to the pivot's place, the scaled pivot row to r
        pr = r + below[0]
        pivot_row = arrays.mul(A[pr], arrays.inv(A[pr, c]))
        A[pr] = A[r]
        A = arrays.sub(A, arrays.mul(A[:, c : c + 1], pivot_row))
        A[r] = pivot_row
        pivots.append(c)
    return tuple(map(tuple, A.tolist())), len(pivots), tuple(pivots)


def mat_mul(field: Field, A, B):
    """Exact matrix product over the field: in an extension field the base-p
    digits of the entry-wise products are summed mod p along the inner axis."""
    A = _matrix(field, A)
    B = _matrix(field, B)
    if A and B and len(A[0]) != len(B):
        raise ParameterError("inner dimensions do not match")
    if not (A and B):
        return [[] for _ in A]
    a, b, p = np.array(A, dtype=np.int64), np.array(B, dtype=np.int64), field.p
    if field.e == 1:
        return (a @ b % p).tolist()
    arrays = field.arrays
    sums = arrays.digits[arrays.mul(a[:, :, None], b)].sum(axis=1, dtype=np.int64) % p
    return (sums @ p ** np.arange(field.e)).tolist()


def _all_nonsingular(arrays, stack) -> bool:
    """Whether every matrix in a (B, k, k) stack is nonsingular.

    Gaussian elimination on all B matrices at once, overwriting the stack:
    the pivot of column c is the first nonzero entry at or below row c. Row c
    is not read after step c, so the pivot row is copied out and row c moved
    into its place rather than swapped.
    """
    rows = np.arange(stack.shape[0])
    for c in range(stack.shape[1]):
        nonzero = stack[:, c:, c] != 0
        if not nonzero.any(axis=1).all():
            return False
        pr = c + nonzero.argmax(axis=1)
        pivot_row = stack[rows, pr]
        stack[rows, pr] = stack[:, c]
        f = arrays.mul(stack[:, c + 1 :, c], arrays.inv(pivot_row[:, c])[:, None])
        below = stack[:, c + 1 :, c + 1 :]
        below[...] = arrays.sub(below, arrays.mul(f[:, :, None], pivot_row[:, None, c + 1 :]))
    return True


class LinearCode:
    """An [n, k] linear code; the generator must have full row rank.

    k = 0 (empty generator) is allowed so duals of full-space codes exist.
    """

    def __init__(self, field: Field, gen, n: int | None = None):
        M = _matrix(field, gen)
        if n is None and not M:
            raise ParameterError("zero-dimensional code needs an explicit length")
        length = len(M[0]) if M else int(n)
        if n is not None and int(n) != length:
            raise ParameterError("explicit length disagrees with the generator")
        if length < 1:
            raise ParameterError("code length must be positive")
        if len(M) > length:
            raise ParameterError("more generator rows than the length allows")
        _, rank, _ = rref(field, M)
        if rank != len(M):
            raise ParameterError("generator rows are linearly dependent")
        self.field = field
        self.gen = tuple(tuple(row) for row in M)
        self.n = length
        self.k = len(M)

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over {self.field!r})"

    def _same_space(self, other: "LinearCode"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if self.n != other.n:
            raise ParameterError(f"length mismatch: {self.n} vs {other.n}")

    def same_row_space(self, other: "LinearCode") -> bool:
        self._same_space(other)
        a, ra, _ = rref(self.field, self.gen)
        b, rb, _ = rref(other.field, other.gen)
        return a[:ra] == b[:rb]

    def dual(self) -> "LinearCode":
        """The dual code under the standard inner product, in RREF."""
        F = self.field
        R, _, pivots = rref(F, self.gen)
        rows = []
        for f in (j for j in range(self.n) if j not in pivots):
            w = [0] * self.n
            w[f] = 1
            for r, pc in enumerate(pivots):
                w[pc] = F.neg(R[r][f])
            rows.append(w)
        if not rows:
            return LinearCode(F, [], n=self.n)
        return LinearCode(F, rref(F, rows)[0])  # rows are independent

    def intersection_dim(self, other: "LinearCode") -> int:
        """dim(C1 and C2) = k1 + k2 - rank of the stacked generators."""
        self._same_space(other)
        _, rank, _ = rref(self.field, list(self.gen) + list(other.gen))
        return self.k + other.k - rank

    def hull_dimension(self) -> int:
        """dim(C and C-dual) = k - rank(G Gt)."""
        gt = [[row[j] for row in self.gen] for j in range(self.n)]
        _, rank, _ = rref(self.field, mat_mul(self.field, self.gen, gt))
        return self.k - rank

    def is_lcd(self) -> bool:
        return self.hull_dimension() == 0

    # -- minimum distance / MDS oracles --

    def minimum_distance(self, budget: int = DEFAULT_BUDGET) -> int:
        """Minimum Hamming weight over all nonzero codewords.

        Exhaustive enumeration of one codeword per projective point, which
        weighs (q^k - 1)/(q - 1) of them; raises BudgetExceeded unless
        mds_route picks enumeration (use is_mds, which can fall back to
        column subsets).
        """
        q, k = self.field.q, self.k
        if mds_route(q, self.n, k, budget) != ROUTE_ENUMERATION:
            raise BudgetExceeded(
                f"minimum distance: {_amount(q**k, f'{q}^{k}')} codewords "
                f"exceed the budget {budget}"
            )
        return self._enumerate_min_weight()

    def _enumerate_min_weight(self) -> int:
        """Minimum weight over one nonzero codeword per projective point.

        c*x weighs as much as x for every nonzero c, so only messages whose
        first nonzero entry is 1 are weighed: (q^k - 1)/(q - 1) codewords.
        Going up from the last row, row r is weighed as gen[r] + span of the
        rows below it, and then that span grows by every multiple of gen[r].
        A set of m codewords is an (e, n, m) array of base-p digits. A digit
        of x + y is zero exactly where x's digit is the negated digit of y.
        Digits are unsigned and wide enough for 2(p - 1), so min(s, s - p)
        reduces a sum s mod p (s - p wraps around when s < p).
        """
        F, arrays = self.field, self.field.arrays
        p, e, q = F.p, F.e, F.q
        n, k = self.n, self.k
        digits = arrays.digits
        dtype, count = digits.dtype.type, np.min_scalar_type(n)
        gen = np.array(self.gen, dtype=np.int64)
        # scaled[:, r, :, c] is the (e, n) digit array of c * gen[r]
        scaled = np.take(digits.T, arrays.mul(gen[:, :, None], np.arange(q)), axis=1)
        span = np.zeros((e, n, 1), dtype=dtype)
        best = n
        for r in range(k - 1, -1, -1):
            negated = (p - scaled[:, r, :, 1:2]) % p
            nonzero = reduce(np.logical_or, span != negated)
            best = min(best, int(nonzero.sum(axis=0, dtype=count).min()))
            if r:
                grown = np.add(span[:, :, None, :], scaled[:, r, :, :, None], order="C")
                span = grown.reshape(e, n, -1)
                np.minimum(span, span - dtype(p), out=span)
        return best

    def mds_by_column_subsets(self) -> bool:
        """MDS iff every k-subset of generator columns is nonsingular.

        The subsets are eliminated in batches by one exact numpy kernel; the
        scan stops at the first batch that holds a singular subset. It runs
        whatever C(n, k); mds_check decides when it fits the budget.
        """
        if self.k == 0:
            raise ParameterError("zero-dimensional code has no MDS predicate")
        k = self.k
        columns = np.array(self.gen, dtype=np.int64).T
        arrays = self.field.arrays
        batch = max(1, SUBSET_BATCH_ENTRIES // k**2)
        subsets = chain.from_iterable(combinations(range(self.n), k))
        while True:
            cols = np.fromiter(islice(subsets, batch * k), dtype=np.int64)
            if not cols.size:
                return True
            # stack[b] is the transpose of subset b's submatrix: as singular
            stack = columns[cols.reshape(-1, k)]
            if not _all_nonsingular(arrays, stack):
                return False

    def mds_check(self, budget: int = DEFAULT_BUDGET):
        """(is_mds, route, min_distance) using the first route within budget.

        min_distance is None when the column-subset route decided.
        """
        if mds_route(self.field.q, self.n, self.k, budget) == ROUTE_ENUMERATION:
            d = self._enumerate_min_weight()
            return d == self.n - self.k + 1, ROUTE_ENUMERATION, d
        return self.mds_by_column_subsets(), ROUTE_COLUMN_SUBSETS, None

    def is_mds(self, budget: int = DEFAULT_BUDGET) -> bool:
        return self.mds_check(budget)[0]

    def verdict(self, budget: int = DEFAULT_BUDGET) -> dict:
        """Hull dimension and MDS check, as the JSON-ready LCD/MDS verdict.

        The MDS check runs first, so an over-budget code costs no hull.
        """
        mds, route, dist = self.mds_check(budget)
        hull = self.hull_dimension()
        return {
            "hull_dimension": hull,
            "is_lcd": hull == 0,
            "is_mds": mds,
            "mds_route": route,
            "min_distance": dist,
        }

    # -- serialization --

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "n": self.n,
            "k": self.k,
            "generator": [list(row) for row in self.gen],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearCode":
        F, n = Field.from_dict(d["field"]), d.get("n")
        return cls(F, d["generator"], n=None if n is None else json_int(n, "n"))
