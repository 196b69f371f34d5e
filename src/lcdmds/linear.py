"""Generic linear codes over a Field, given by full-row-rank generator matrices.

This module holds the verification oracles everything else is checked
against: RREF and rank, duals via null spaces, hull dimensions, and one MDS
check, LinearCode.mds_check, whose two named routes mds_route picks from
(q, n, k) and the budget: enumeration of one codeword per projective point,
which also gives the minimum distance, and column subsets, every k-column
submatrix nonsingular, by eliminations shared along a prefix tree.
_matrix checks a list of rows element by element, or an int64 array by one
range test; _generator_array adds every generator rule but the rank, so a
caller can meet the budget before any elimination. A LinearCode keeps its
generator G as a read-only array and row-reduces once, [G Gt | G]: G Gt lies
in the column space of G, so there are k pivots iff the rows are
independent, and the pivots among the first k columns count rank(G Gt),
which gives the hull dimension k - rank(G Gt) (Massey 1992). Each pivot is
one fused FieldArrays.submul, A - column x row.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import comb, log10

import numpy as np

from .errors import BudgetExceeded, ParameterError
from .fields import Field, json_int

# The one default work budget, for the library and the CLI alike: at most
# this many enumerated codewords or eliminated column subsets per MDS check.
DEFAULT_BUDGET = 10**6

ROUTE_ENUMERATION = "enumeration"
ROUTE_COLUMN_SUBSETS = "column_subsets"

# Entries per depth of the column-subset kernel: it extends at most
# max(1, SUBSET_BATCH_ENTRIES // (r w)) prefixes at a time, where the chunk
# carries r reduced rows over w live columns (w <= n), which bounds its
# working set whatever C(n, k).
SUBSET_BATCH_ENTRIES = 1 << 13
PRODUCT_BATCH_ENTRIES = 1 << 20  # products per chunk of an extension-field _product


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


def _matrix(field: Field, rows):
    """rows, checked, as a new (r, c) int64 array; (0, 0) when there are none."""
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.int64 or rows.ndim != 2:
            raise ParameterError(f"matrix array must be 2-D int64, not {rows.ndim}-D {rows.dtype}")
        if rows.size and not 0 <= rows.min() <= rows.max() < field.q:
            raise ParameterError(f"matrix array entries must be element indices of {field!r}")
        return rows.copy()
    if not isinstance(rows, (list, tuple)):
        raise ParameterError(f"not a list of rows or an int64 array: {type(rows).__name__}")
    out = [[field.check(x) for x in row] for row in rows]
    if out and len({len(r) for r in out}) != 1:
        raise ParameterError("matrix rows have unequal lengths")
    return np.array(out, dtype=np.int64).reshape(len(out), len(out[0]) if out else 0)


def _generator_array(field: Field, gen, n):
    """gen as a new (k, n) int64 array, checked by every LinearCode rule but the rank."""
    n = n if n is None else json_int(n, "n")
    G = _matrix(field, gen)
    k = len(G)
    if n is None and not k:
        raise ParameterError("zero-dimensional code needs an explicit length")
    length = G.shape[1] if k else n
    if n is not None and n != length:
        raise ParameterError("explicit length disagrees with the generator")
    if length < 1:
        raise ParameterError("code length must be positive")
    if k > length:
        raise ParameterError("more generator rows than the length allows")
    return G.reshape(k, length)


def rref(field: Field, rows):
    """Reduced row echelon form.

    Returns (rref_rows, rank, pivot_columns). Deterministic: the pivot for
    each column is the first row, top to bottom, with a nonzero entry there.
    """
    R, pivots = _rref(field, _matrix(field, rows))
    return tuple(map(tuple, R.tolist())), len(pivots), pivots


def _rref(field: Field, A):
    """(rref array, pivot columns) of a checked (rows, columns) int64 array,
    which it overwrites."""
    arrays = field.arrays
    pivots = []
    for c in range(A.shape[1]):
        r = len(pivots)
        if r == A.shape[0]:
            break
        below = A[r:, c].nonzero()[0]
        if not below.size:
            continue
        # no swap: row r moves to the pivot's place, the scaled pivot row to r
        pr = r + below[0]
        pivot_row = arrays.mul(A[pr], arrays.inv[A[pr, c]])
        A[pr] = A[r]
        A = arrays.submul(A, A[:, c : c + 1], pivot_row)
        A[r] = pivot_row
        pivots.append(c)
    return A, tuple(pivots)


def _product(field: Field, a, b):
    """a @ b over the field for checked int64 arrays, PRODUCT_BATCH_ENTRIES products a chunk."""
    p = field.p
    if field.e == 1:
        return a @ b % p
    arrays, step = field.arrays, max(1, PRODUCT_BATCH_ENTRIES // max(1, b.size))
    chunks = (a[i : i + step, :, None] for i in range(0, len(a) or 1, step))
    sums = [arrays.digits[arrays.mul(x, b)].sum(axis=1, dtype=np.int64) for x in chunks]
    return np.concatenate(sums) % p @ p ** np.arange(field.e)


def _distinct_points(field: Field, rows, later) -> bool:
    """Whether, in each (2, n) matrix of a (B, 2, n) stack, the columns that
    later marks are nonzero and pairwise independent: distinct points of the
    projective line, so that every 2 x 2 submatrix they form is nonsingular.
    """
    arrays, q = field.arrays, field.q
    top, bottom = rows[:, 0], rows[:, 1]
    if (later & (top == 0) & (bottom == 0)).any():
        return False
    # a point is its slope bottom/top, or q at infinity; unmarked columns get
    # labels above q that match nothing
    slope = np.where(top != 0, arrays.mul(bottom, arrays.inv[top]), q)
    slope = np.where(later, slope, q + 1 + np.arange(rows.shape[2]))
    slope.sort(axis=1)
    return not (slope[:, 1:] == slope[:, :-1]).any()


class LinearCode:
    """An [n, k] linear code; the generator must have full row rank.

    k = 0 (empty generator) is allowed so duals of full-space codes exist.
    array is the generator as a read-only (k, n) int64 array, gen its rows.
    """

    def __init__(self, field: Field, gen, n: int | None = None):
        G = _generator_array(field, gen, n)
        k, length = G.shape
        _, pivots = _rref(field, np.hstack((_product(field, G, G.T), G)))
        if len(pivots) != k:
            raise ParameterError("generator rows are linearly dependent")
        G.flags.writeable = False
        self.field, self.array, self.n, self.k = field, G, length, k
        self._hull = k - sum(c < k for c in pivots)

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over {self.field!r})"

    @cached_property
    def gen(self) -> tuple[tuple[int, ...], ...]:
        """The generator rows as tuples of element indices."""
        return tuple(map(tuple, self.array.tolist()))

    def dual(self) -> "LinearCode":
        """The dual code under the standard inner product, in RREF."""
        F = self.field
        R, pivots = _rref(F, self.array.copy())
        free = np.setdiff1d(np.arange(self.n), pivots)
        # one row per free column f: 1 at f and -R[r, f] at the pivot column of row r
        rows = np.zeros((free.size, self.n), dtype=np.int64)
        rows[np.arange(free.size), free] = 1
        rows[:, list(pivots)] = F.arrays.neg[R[:, free]].T
        return LinearCode(F, _rref(F, rows)[0], n=self.n)  # rows are independent

    def hull_dimension(self) -> int:
        """dim(C and C-dual) = k - rank(G Gt), from the RREF made with the code."""
        return self._hull

    def is_lcd(self) -> bool:
        return self.hull_dimension() == 0

    # -- the MDS check and its two route kernels --

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
        # scaled[:, r, :, c] is the (e, n) digit array of c * gen[r]
        scaled = np.take(digits.T, arrays.mul(self.array[:, :, None], np.arange(q)), axis=1)
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

    def _mds_by_column_subsets(self) -> bool:
        """MDS iff every k-subset of generator columns is nonsingular.

        The subsets c_1 < ... < c_k are the leaves of a prefix tree, walked
        depth first, and each prefix c_1 < ... < c_d does its elimination once
        for all its extensions. It carries N G, where N is k - d rows spanning
        the vectors orthogonal to its columns (I_k at the root). Extended by a
        column c > c_d, the prefix stays independent iff column c of N G is
        nonzero; the pivot on that column's first nonzero entry is cleared
        from the other rows and the pivot row dropped. At depth k - 2 two rows
        are left, and every completion c_{k-1} < c_k is nonsingular iff the
        columns after c_{k-2} are distinct points of the projective line.
        Prefixes are extended in chunks of at most SUBSET_BATCH_ENTRIES
        entries per depth, and the walk stops at the first singular subset.
        A chunk carries only its live columns, those after the smallest
        column it extends by: no column at or before a prefix's last is read
        again. Its pending (prefix, column) pairs go column by column, so the
        pairs of one chunk share few columns and drop many.
        It runs whatever C(n, k); mds_check decides when it fits the budget.
        """
        F, n, gen = self.field, self.n, self.array
        if self.k == 1:
            return bool(gen.all())
        # (rows of a chunk of prefixes, the first column lo they carry, and
        # their pending (prefix, column) pairs)
        stack = []

        def visit(rows, lo, last) -> bool:
            """Test a (B, 2, n - lo) chunk at once, or queue a deeper one's extensions."""
            columns = lo + np.arange(rows.shape[2])
            later = columns > last[:, None]
            if rows.shape[1] == 2:
                return _distinct_points(F, rows, later)
            # an extension by c leaves room for the r - 1 columns after c;
            # pairs go column by column, so a chunk of them spans few columns
            col, prefix = np.nonzero((later & (columns <= n - rows.shape[1])).T)
            stack.append((rows, lo, prefix, lo + col))
            return True

        if not visit(gen[None], 0, np.array([-1])):
            return False
        arrays = F.arrays
        while stack:
            rows, lo, prefix, col = stack.pop()
            step = max(1, SUBSET_BATCH_ENTRIES // rows[0].size)
            if len(col) > step:
                stack.append((rows, lo, prefix[step:], col[step:]))
            prefix, col = prefix[:step], col[:step]
            m = np.arange(len(col))
            w = rows[prefix, :, col - lo]
            if not w.any(axis=1).all():
                return False
            # keep the live columns only: those after the chunk's smallest
            start = col.min() + 1
            rows = rows[prefix, :, start - lo :]
            pivot = (w != 0).argmax(axis=1)
            pivot_row = rows[m, pivot]
            f = arrays.mul(w, arrays.inv[w[m, pivot]][:, None])
            rows = arrays.submul(rows, f[:, :, None], pivot_row[:, None, :])
            # the pivot row is now zero: the last row moves into its place
            rows[m, pivot] = rows[:, -1]
            if not visit(rows[:, :-1], start, col):
                return False
        return True

    def mds_check(self, budget: int = DEFAULT_BUDGET):
        """(is_mds, route, min_distance): the one public MDS check.

        mds_route picks the route, ROUTE_ENUMERATION or ROUTE_COLUMN_SUBSETS,
        or raises BudgetExceeded (and ParameterError for k = 0) before any
        work. min_distance is None when the column-subset route decided.
        """
        if mds_route(self.field.q, self.n, self.k, budget) == ROUTE_ENUMERATION:
            d = self._enumerate_min_weight()
            return d == self.n - self.k + 1, ROUTE_ENUMERATION, d
        return self._mds_by_column_subsets(), ROUTE_COLUMN_SUBSETS, None

    def verdict(self, budget: int = DEFAULT_BUDGET) -> dict:
        """Hull dimension and MDS check, as the JSON-ready LCD/MDS verdict.

        The hull comes from the code's one RREF; only the MDS check meets the budget.
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
            "generator": self.array.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearCode":
        return cls(Field.from_dict(d["field"]), d["generator"], n=d.get("n"))
