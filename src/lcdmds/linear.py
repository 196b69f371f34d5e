"""Generic linear codes over a Field, given by full-row-rank generator matrices.

This module holds the generic oracles that verify runs and tests check
against: RREF and rank, duals via null spaces, hull dimensions, and one MDS
check, LinearCode.mds_check, whose two named routes mds_route picks from
(q, n, k) and the budget. Both first ask _grs_certificate, one RREF [I | A]
of G and O(k(n - k)) checks that A is a generalized Cauchy matrix, which
decides every GRS and extended GRS code. Enumeration of one codeword per
projective point gives the minimum distance: n - k + 1 for a certified
code (GrsSpec.verdict weighs none either), else the least weight that
_enumerate_min_weight finds, going up the rows in one loop, weighing a
span of the last rows, within 2^8 BATCH_ENTRIES entries, against one
target n-vector at a time. Column subsets, every k-column submatrix
nonsingular, walks only a code the certificate declines, by eliminations
shared along a prefix tree. Each of the walk's pivot steps updates only
the r - 1 rows it keeps, a chunk at a time sized by the child it makes,
and when 2k > n it walks the n - k rows of a dual generator, as a code is
MDS iff its dual is.
_matrix checks a list of rows element by element, or an int64 array by one
range test; _generator_array adds every generator rule but the rank, so a
code record's one reader, read_code_record (code_record is its one writer),
lets verify meet the budget before any elimination. A LinearCode keeps G as a
read-only array and k - rank(G Gt), the hull dimension (Massey 1992), from
one k x k elimination of G Gt. As rank(G Gt) <= rank(G), a nonsingular G Gt
proves the rows independent; only a singular one asks for the RREF of G,
LinearCode._echelon, made at most once a code: the rank check, the
certificate, the walk's dual side and dual() all read it.
Each pivot is one fused FieldArrays.submul, A - column x row.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import comb, log10

import numpy as np

from .errors import BudgetExceeded, LcdMdsError, ParameterError
from .fields import Field, json_int

# The one default work budget, for the library and the CLI alike: at most
# this many enumerated codewords or eliminated column subsets per MDS check.
DEFAULT_BUDGET = 10**6

ROUTE_ENUMERATION = "enumeration"
ROUTE_COLUMN_SUBSETS = "column_subsets"

# Entries in one batch of every batched kernel (the child arrays of the
# column-subset walk, _product, grs.difference_products), or in one row when
# a row holds more; the enumeration's span, and the multiples of the rows
# it holds, stay within 2^8 of them.
BATCH_ENTRIES = 1 << 13


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
    codeword per projective point is weighed, and a certified code none),
    else column subsets when C(n, k) fits; raises BudgetExceeded when
    neither does, before any work.
    The only place MDS work meets the budget. ParameterError for a budget
    that is not an integer >= 0, or for a shape no code has: q, n and k must
    be integers, q >= 2 and 0 < k <= n.
    """
    if json_int(budget, "budget") < 0:
        raise ParameterError(f"budget must not be negative, got {budget}")
    if json_int(k, "k") == 0:
        raise ParameterError("zero-dimensional code has no MDS predicate")
    if json_int(q, "q") < 2 or not 0 < k <= json_int(n, "n"):
        raise ParameterError(f"no [{n}, {k}] code over GF({q}): need q >= 2 and 0 < k <= n")
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
    """a @ b over the field for checked int64 arrays, BATCH_ENTRIES products a chunk."""
    p = field.p
    if field.e == 1:
        return a @ b % p
    arrays, step = field.arrays, max(1, BATCH_ENTRIES // max(1, b.size))
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


def _minus_span(arrays, q: int, t, rows):
    """t - h, an n-vector, for every h in the span of the rows of an (m, n)
    array: the coefficients of h are walked depth first, and each nonzero
    one costs one FieldArrays.submul on the vector of its prefix."""
    if len(rows):
        for c in range(q):
            yield from _minus_span(arrays, q, arrays.submul(t, c, rows[0]) if c else t, rows[1:])
    else:
        yield t


def _enumerate_min_weight(F: Field, G) -> int:
    """Minimum weight of the code of a checked, full-rank (k, n) array G, k >= 1.

    c*x weighs as much as x for every nonzero c, so only messages whose
    first nonzero entry is 1 are weighed: (q^k - 1)/(q - 1) codewords.
    A span of codewords holds the last rows r + 1..k - 1, the most whose
    e n q^(k-1-r) digit entries stay within 2^8 BATCH_ENTRIES ([10, 4]
    over GF(9) ends at 14,580), and only their multiples are built.
    Going up from the last row, row i leads the codewords G[i] + h + s,
    s in the span held so far and h in the span of rows i + 1..r (h = 0
    for i >= r). Each h is weighed by one comparison of the span with the
    digits of the n-vector -(G[i] + h) from _minus_span: a digit of
    x + y is zero exactly where x's digit is that of -y. Then, for i > r,
    the span grows by every multiple of G[i]. A set of m codewords is
    an (e, n, m) array of base-p digits, unsigned and wide enough for
    2(p - 1), so min(s, s - p) reduces a sum s mod p (s - p wraps around
    when s < p).
    """
    arrays, (k, n) = F.arrays, G.shape
    p, e, q = F.p, F.e, F.q
    digits = arrays.digits.T
    dtype, count = digits.dtype.type, np.min_scalar_type(n)
    r = k - 1
    while r > 0 and e * n * q ** (k - r) <= 2**8 * BATCH_ENTRIES:
        r -= 1
    # multiples[:, i - r - 1, :, c] is the (e, n) digit array of c * G[i]
    multiples = np.take(digits, arrays.mul(G[r + 1 :, :, None], np.arange(q)), axis=1)

    least = n
    span = np.zeros((e, n, 1), dtype=dtype)
    for i in range(k - 1, -1, -1):
        # h = 0 alone while i >= r
        lead = arrays.neg[G[i]]
        for t in (lead,) if i >= r else _minus_span(arrays, q, lead, G[i + 1 : r + 1]):
            weights = reduce(np.logical_or, span != digits[:, t, None]).sum(axis=0, dtype=count)
            least = min(least, int(weights.min()))
        if i > r:
            grown = np.add(span[:, :, None, :], multiples[:, i - r - 1, :, :, None], order="C")
            span = grown.reshape(e, n, -1)
            np.minimum(span, span - dtype(p), out=span)
    return least


class LinearCode:
    """An [n, k] linear code; the generator must have full row rank.

    k = 0 (empty generator) is allowed so duals of full-space codes exist.
    array is the generator as a read-only (k, n) int64 array, gen its rows.
    """

    def __init__(self, field: Field, gen, n: int | None = None):
        G = _generator_array(field, gen, n)
        G.flags.writeable = False
        self.field, self.array, (self.k, self.n) = field, G, G.shape
        rank = len(_rref(field, _product(field, G, G.T))[1])
        if rank < self.k and len(self._echelon[1]) < self.k:
            raise ParameterError("generator rows are linearly dependent")
        self._hull = self.k - rank

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over {self.field!r})"

    @cached_property
    def _echelon(self):
        """(R, pivot columns): the RREF of G, read-only, made at most once a code."""
        R, pivots = _rref(self.field, self.array.copy())
        R.flags.writeable = False
        return R, pivots

    @cached_property
    def gen(self) -> tuple[tuple[int, ...], ...]:
        """The generator rows as tuples of element indices."""
        return tuple(map(tuple, self.array.tolist()))

    def dual(self) -> "LinearCode":
        """The dual code under the standard inner product, in RREF."""
        R, pivots = _rref(self.field, self._dual_rows())
        R.flags.writeable = False
        dual = LinearCode.__new__(LinearCode)
        dual._echelon = R, pivots  # the rows are their own RREF: its rank check reads it
        dual.__init__(self.field, R, n=self.n)
        return dual

    def _dual_rows(self):
        """An (n - k, n) array of independent rows spanning the dual, from the RREF R
        of G (_echelon): one row per free column f, 1 at f and -R[r, f] at the
        pivot column of row r."""
        F = self.field
        R, pivots = self._echelon
        free = np.setdiff1d(np.arange(self.n), pivots)
        rows = np.zeros((free.size, self.n), dtype=np.int64)
        rows[np.arange(free.size), free] = 1
        rows[:, list(pivots)] = F.arrays.neg[R[:, free]].T
        return rows

    def hull_dimension(self) -> int:
        """dim(C and C-dual) = k - rank(G Gt), from the k x k elimination of G Gt
        made with the code (which reads G's RREF only when G Gt is singular)."""
        return self._hull

    def is_lcd(self) -> bool:
        return self.hull_dimension() == 0

    # -- the MDS check and its route kernels --

    def _grs_certificate(self) -> bool | None:
        """Whether every k-subset of generator columns is nonsingular, read
        from the code's one RREF [I | A] of G (_echelon), or None when A is
        not a generalized Cauchy matrix, the form of every GRS code (Roth and
        Seroussi 1985).

        If the first k columns are not the pivots, they are singular. Else
        the code is MDS iff every square submatrix of A is nonsingular, so a
        zero of A decides it, and k = 1 or n - k <= 1 leaves no other
        submatrix. Else the rows are scaled to make A's first column ones (a
        locator at infinity, which covers extended codes), and B = 1/A on
        the other columns. A has the Cauchy form B_ij = D_1j (x_i - y_j),
        with x_0 = 0, x_1 = 1 and y = -B[0] / D[1], iff D = B - B[0] is
        x D[1] for a column x. Its square submatrices are then all
        nonsingular iff the x_i are distinct and the y_j are distinct: a
        repeated x or y makes two rows or two columns of A proportional, as
        does a zero of D[1] before x is formed.
        """
        F, k, n = self.field, self.k, self.n
        arrays = F.arrays
        R, pivots = self._echelon
        A = R[:, k:]
        if pivots[-1] != k - 1 or not A.all():
            return False
        if k == 1 or n - k <= 1:
            return True
        B = arrays.inv[arrays.mul(A[:, 1:], arrays.inv[A[:, :1]])]
        D = arrays.submul(B, 1, B[0])
        if not D[1].all():
            return False
        scale = arrays.inv[D[1]]
        x = arrays.mul(D, scale)
        if (x != x[:, :1]).any():
            return None
        y = arrays.mul(arrays.neg[B[0]], scale)
        return np.unique(x[:, 0]).size == k and np.unique(y).size == y.size

    def _mds_by_column_subsets(self) -> bool:
        """MDS iff every k-subset of generator columns is nonsingular.

        A code is MDS iff its dual is, so when 2k > n the walk runs on the
        n - k rows of a dual generator instead, and either side with at most
        one row is MDS iff that row (if any) has no zero entry. The subsets
        c_1 < ... < c_r of the side's r rows are the leaves of a prefix tree,
        walked depth first, and each prefix c_1 < ... < c_d does its
        elimination once for all its extensions. It carries N G, where N is
        r - d rows spanning the vectors orthogonal to its columns (I_r at the
        root). Extended by a column c > c_d, the prefix stays independent iff
        column c of N G is nonzero; the pivot on that column's first nonzero
        entry is cleared from the r - d - 1 other rows, which alone make the
        child. At depth r - 2 two rows are left, and every completion
        c_{r-1} < c_r is nonsingular iff the columns after c_{r-2} are
        distinct points of the projective line. The walk stops at the first
        singular subset. A child carries only its live columns, those after
        the smallest column its chunk extends by: no column at or before a
        prefix's last is read again. Pending (prefix, column) pairs go column
        by column, so the pairs of one chunk share few columns and drop many,
        and a chunk takes as many pairs as fit BATCH_ENTRIES entries in the
        child it makes. It runs whatever C(n, k); mds_check decides when it
        fits the budget.
        """
        F, n = self.field, self.n
        gen = self._dual_rows() if 2 * self.k > n else self.array
        if len(gen) <= 1:
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
            # each pair's child is r - 1 rows of the columns after the
            # chunk's first, and the first pair has the smallest column
            r, start = rows.shape[1], col[0] + 1
            step = max(1, BATCH_ENTRIES // ((r - 1) * (n - start)))
            if len(col) > step:
                stack.append((rows, lo, prefix[step:], col[step:]))
            prefix, col = prefix[:step], col[:step]
            m = np.arange(len(col))
            w = rows[prefix, :, col - lo]
            if not w.any(axis=1).all():
                return False
            pivot = (w != 0).argmax(axis=1)
            # the r - 1 rows other than each pair's pivot row, in order
            others = np.arange(r - 1) + (np.arange(r - 1) >= pivot[:, None])
            f = arrays.mul(w[m[:, None], others], arrays.inv[w[m, pivot]][:, None])
            pivot_row = rows[prefix, pivot, start - lo :]
            rows = arrays.submul(rows[prefix[:, None], others, start - lo :],
                                 f[:, :, None], pivot_row[:, None, :])
            if not visit(rows, start, col):
                return False
        return True

    def mds_check(self, budget: int = DEFAULT_BUDGET):
        """(is_mds, route, min_distance): the one public MDS check.

        mds_route picks the route, ROUTE_ENUMERATION or ROUTE_COLUMN_SUBSETS,
        or raises BudgetExceeded (and ParameterError for k = 0) before any
        work. Then _grs_certificate decides every GRS and extended GRS code
        from G's one RREF. On the enumeration route a certified code has
        min_distance n - k + 1, and any other is weighed by
        _enumerate_min_weight. On the column-subset route min_distance is
        None, and only a code the certificate declines is walked.
        """
        F, n, k = self.field, self.n, self.k
        route = mds_route(F.q, n, k, budget)
        mds = self._grs_certificate()
        if route == ROUTE_ENUMERATION:
            d = n - k + 1 if mds else _enumerate_min_weight(F, self.array)
            return d == n - k + 1, route, d
        if mds is None:
            mds = self._mds_by_column_subsets()
        return mds, route, None

    def verdict(self, budget: int = DEFAULT_BUDGET) -> dict:
        """Hull dimension and MDS check, as the JSON-ready LCD/MDS verdict.

        The hull was stored when the code was made; only the MDS check meets the budget.
        """
        mds, route, dist = self.mds_check(budget)
        return verdict_record(self.hull_dimension(), mds, route, dist)

    # -- serialization --

    def to_dict(self) -> dict:
        return code_record(self.field, self.array)

    @classmethod
    def from_dict(cls, d: dict) -> "LinearCode":
        F, G = read_code_record(d)
        return cls(F, G, n=G.shape[1])


def verdict_record(hull: int, is_mds: bool, route: str, min_distance: int | None) -> dict:
    """The JSON-ready LCD/MDS verdict: the one writer for LinearCode.verdict and GrsSpec.verdict."""
    return {"hull_dimension": hull, "is_lcd": hull == 0, "is_mds": is_mds, "mds_route": route,
            "min_distance": min_distance}


def code_record(field: Field, G) -> dict:
    """The JSON record (field, n, k, generator) of the code G generates, with no LinearCode made."""
    return {"field": field.to_dict(), "n": G.shape[1], "k": len(G), "generator": G.tolist()}


def read_code_record(d) -> tuple[Field, np.ndarray]:
    """(field, G checked by _generator_array) from a code record; ParameterError if malformed."""
    try:
        F = Field.from_dict(d["field"])
        return F, _generator_array(F, d["generator"], d.get("n"))
    except (KeyError, TypeError, ValueError) as exc:
        raise exc if isinstance(exc, LcdMdsError) else ParameterError(f"malformed code record: {exc}")
