"""Shared test oracles, deliberately independent of the library's fast paths."""

from itertools import combinations, product

import pytest

from lcdmds import Field, GrsSpec, LinearCode, ParameterError, linear


@pytest.fixture
def field_builds(monkeypatch):
    """The order of each Field whose tables are built while the test runs."""
    builds = []
    build = Field._build_tables

    def counted(self):
        builds.append(self.q)
        build(self)

    monkeypatch.setattr(Field, "_build_tables", counted)
    return builds


def dot(F, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def in_dual_direct(spec, f):
    """Membership of codeword(f) in the dual, by plain inner products with G."""
    code = spec.generator()
    c = spec.codeword(f)
    F = spec.field
    return all(dot(F, row, c) == 0 for row in code.gen)


def brute_min_distance(code):
    """Minimum weight by pure-Python message enumeration (no numpy)."""
    F = code.field
    best = None
    for msg in product(range(F.q), repeat=code.k):
        if not any(msg):
            continue
        word = [0] * code.n
        for m, row in zip(msg, code.gen):
            if m:
                word = [F.add(w, F.mul(m, x)) for w, x in zip(word, row)]
        wt = sum(1 for x in word if x)
        if best is None or wt < best:
            best = wt
    return best


def min_distance_by_columns(code):
    """Minimum distance of a code with k <= 2, from its columns alone.

    A nonzero codeword vanishes on the zero columns and, when k = 2, on the
    nonzero columns proportional to one fixed column; so d is n minus the
    zero columns minus the largest class of proportional nonzero columns.
    """
    F = code.field
    if code.k > 2:
        raise ValueError("needs k <= 2")
    classes = {}
    zero = 0
    for col in zip(*code.gen):
        lead = next((x for x in col if x), None)
        if lead is None:
            zero += 1
            continue
        point = tuple(F.div(x, lead) for x in col) if code.k == 2 else ()
        classes[point] = classes.get(point, 0) + 1
    largest = max(classes.values()) if code.k == 2 else 0
    return code.n - zero - largest


def subsets_nonsingular_scalar(code):
    """MDS iff every k-column submatrix is nonsingular, one subset at a time.

    Scalar Gaussian elimination on Field ops: the reference for the batched
    kernel in LinearCode._mds_by_column_subsets.
    """
    F = code.field
    k = code.k
    mul, sub, inv = F.mul, F.sub, F.inv
    for cols in combinations(range(code.n), k):
        M = [[row[c] for c in cols] for row in code.gen]
        for c in range(k):
            pr = next((i for i in range(c, k) if M[i][c]), None)
            if pr is None:
                return False
            M[c], M[pr] = M[pr], M[c]
            piv = inv(M[c][c])
            for i in range(c + 1, k):
                f = M[i][c]
                if f:
                    f = mul(f, piv)
                    M[i] = [sub(x, mul(f, y)) for x, y in zip(M[i], M[c])]
    return True


def rref_scalar(F, rows):
    """Gauss-Jordan elimination on Field ops, one entry at a time.

    The reference for linear.rref: same pivot rule, same return value.
    """
    M = [list(row) for row in rows]
    if not M:
        return (), 0, ()
    mul, sub, inv = F.mul, F.sub, F.inv
    pivots = []
    r = 0
    for c in range(len(M[0])):
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        s = inv(M[r][c])
        M[r] = [mul(s, x) for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [sub(x, mul(f, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return tuple(tuple(row) for row in M), r, tuple(pivots)


def same_row_space(a, b):
    """Whether two codes over one field and length span the same space, by
    comparing their scalar RREFs."""
    assert a.field == b.field and a.n == b.n
    return rref_scalar(a.field, a.gen)[0] == rref_scalar(b.field, b.gen)[0]


def intersection_dim(a, b):
    """dim(A and B) = k_a + k_b - the scalar rank of the stacked generators."""
    assert a.field == b.field and a.n == b.n
    return a.k + b.k - rref_scalar(a.field, a.gen + b.gen)[1]


def enumerated_min_distance(code):
    """The minimum distance weighed by the enumeration kernel, with no GRS
    certificate: the reference for every closed-form distance."""
    return linear._enumerate_min_weight(code.field, code.array)


def mat_mul_scalar(F, A, B):
    """Matrix product by Field ops, one entry at a time: the reference for linear._product."""
    out = []
    for row in A:
        acc = [0] * (len(B[0]) if B else 0)
        for a, brow in zip(row, B):
            for j, b in enumerate(brow):
                acc[j] = F.add(acc[j], F.mul(a, b))
        out.append(acc)
    return out


def digit_add(F, a, b):
    """a + b by adding base-p digits mod p: the reference for the Zech table."""
    p, total, weight = F.p, 0, 1
    while a or b:
        total += (a % p + b % p) % p * weight
        a, b, weight = a // p, b // p, weight * p
    return total


def digit_mul(p, modulus, a, b):
    """The index of a b in GF(p)[X]/(modulus), one digit product at a time."""
    e = len(modulus) - 1
    da, db = ([x // p**i % p for i in range(e)] for x in (a, b))
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for t in range(2 * e - 2, e - 1, -1):  # x^t = x^(t - e) (x^e - modulus)
        for j in range(e):
            prod[t - e + j] -= prod[t] * modulus[j]
    return sum(c % p * p**i for i, c in enumerate(prod[:e]))


def digit_neg(F, a):
    """-a by negating each base-p digit mod p."""
    p, total, weight = F.p, 0, 1
    while a:
        total += -(a % p) % p * weight
        a, weight = a // p, weight * p
    return total


def conditions_oracle(q, p, e, n, k):
    """Independent restatement of the five covered parameter conditions."""
    conds = []
    if n == q + 1:
        conds.append(1)
    if n > 1 and (q - 1) % n == 0:
        conds.append(2)
    if any(n == p**level for level in range(1, e + 1)):
        conds.append(3)
    if n < q and n + k >= q + 1:
        conds.append(4)
    if n < q and 2 * n - k < q <= 2 * n:
        conds.append(5)
    return conds


def multiplicative_order_brute(F, x):
    """Order of x by repeated multiplication, no log tables."""
    acc = x
    order = 1
    while acc != 1:
        acc = F.mul(acc, x)
        order += 1
    return order


def random_full_rank_code(F, n, k, rng):
    while True:
        gen = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        try:
            return LinearCode(F, gen)
        except ParameterError:
            continue


def random_grs_spec(F, rng, max_k=None):
    n = rng.randint(2, F.q)
    k = rng.randint(1, min(n - 1, max_k) if max_k else n - 1)
    locs = tuple(rng.sample(range(F.q), n))
    mults = tuple(rng.randrange(1, F.q) for _ in range(n))
    return GrsSpec(F, locs, mults, k)


def all_messages(F, k):
    """Every polynomial of degree < k, as coefficient tuples."""
    return product(range(F.q), repeat=k)


def field_tables_scalar(p, e, modulus):
    """Field tables by one digit-polynomial product at a time: the reference
    for Field._build_tables.

    Returns the primitive element and the exp, log, Zech, negation and
    inverse tables, laid out as the Field attributes of the same names.
    """
    q = p**e
    q1 = q - 1

    def digits(a):
        return [a // p**i % p for i in range(e)]

    def index(coeffs):
        return sum(c % p * p**i for i, c in enumerate(coeffs))

    def mul(a, b):
        return digit_mul(p, modulus, a, b)

    def power(a, m):
        out = 1
        for _ in range(m.bit_length()):
            if m & 1:
                out = mul(out, a)
            a, m = mul(a, a), m >> 1
        return out

    primes = [r for r in range(2, q1 + 1) if q1 % r == 0 and all(r % d for d in range(2, r))]
    g = next(g for g in range(1, q) if all(power(g, q1 // r) != 1 for r in primes))
    exp = [1]
    while len(exp) < q1:
        exp.append(mul(exp[-1], g))
    log = [2 * q1] * q  # the sentinel log 0
    for i, x in enumerate(exp):
        log[x] = i
    return {
        "primitive_element": g,
        "_exp": exp + exp + [0] * (2 * q1 + 1),
        "_log": log,
        "_zech": [log[index([d + (i == 0) for i, d in enumerate(digits(x))])] for x in exp],
        "_neg": [index([-d for d in digits(a)]) for a in range(q)],
        "_inv": [0] + [exp[-log[a] % q1] for a in range(1, q)],
    }


def difference_products_scalar(F, points, others):
    """The product of (a - x) over the x in others with x != a, for each point
    a, one Field op at a time: the reference for grs.difference_products."""
    out = []
    for a in points:
        prod = 1
        for x in others:
            if x != a:
                prod = F.mul(prod, F.sub(a, x))
        out.append(prod)
    return out


def poly_remainder(f, g, p):
    """f mod g over GF(p) for a monic g, coefficient lists low degree first."""
    r, d = list(f), len(g) - 1
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        for j, gj in enumerate(g):
            r[i - d + j] = (r[i - d + j] - c * gj) % p
    return r[:d]


def is_irreducible_by_trial_division(coeffs, p):
    """Whether a monic f over GF(p) has no monic factor of degree 1..deg(f)/2,
    by dividing by each one: the reference for fields.is_irreducible."""
    e = len(coeffs) - 1
    return all(
        any(poly_remainder(coeffs, list(low) + [1], p))
        for d in range(1, e // 2 + 1)
        for low in product(range(p), repeat=d)
    )
