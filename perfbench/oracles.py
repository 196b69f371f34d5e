"""Independent answers for the benchmark's checks.

Nothing here imports lcdmds. The family conditions are restated from the
paper, field arithmetic is plain polynomial-basis arithmetic modulo the
field record's modulus (plain mod-p integers for prime fields), and every
code property is decided by textbook Gaussian elimination or by brute force.
Speed is not a goal: the checks run outside the timed part of a run.
"""

from __future__ import annotations

from itertools import combinations, product

EXTENDED = "ExtendedQPlus1"
DIVISOR = "DivisorOfQMinus1"
PRIME_POWER = "PrimePowerLength"
LARGE_NK = "LargeNPlusK"
WINDOW = "Window2n"


def family(p: int, e: int, n: int, k: int) -> str | None:
    """First family whose condition holds for (q, n, k), in dispatch order.

    Restates the five conditions of the paper's constructions: n = q + 1;
    n divides q - 1; n = p^l with 1 <= l <= e; n < q and n + k >= q + 1;
    n < q and 2n - k < q <= 2n. None when no family covers the cell.
    """
    q = p**e
    if n == q + 1:
        return EXTENDED
    if n > 1 and (q - 1) % n == 0:
        return DIVISOR
    if any(n == p**level for level in range(1, e + 1)):
        return PRIME_POWER
    if n < q and n + k >= q + 1:
        return LARGE_NK
    if n < q and 2 * n - k < q <= 2 * n:
        return WINDOW
    return None


# ---------- polynomials over GF(p), coefficient lists low degree first ----------


def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """a mod m over GF(p); m need not be monic."""
    a = list(a)
    lead_inv = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        c = a[-1] * lead_inv % p
        shift = len(a) - len(m)
        for j, mj in enumerate(m):
            a[shift + j] = (a[shift + j] - c * mj) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def is_irreducible(coeffs, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    e = len(coeffs) - 1
    if e < 1:
        return False
    for d in range(1, e // 2 + 1):
        for low in product(range(p), repeat=d):
            if not _poly_rem(list(coeffs), list(low) + [1], p):
                return False
    return True


def find_modulus(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible of degree e, low-degree-first lexicographic order."""
    for low in product(range(p), repeat=e):
        cand = tuple(low) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {e} over GF({p})")


class GF:
    """GF(p^e) on canonical indices: index i holds the base-p digits of i.

    The digit of weight p^j is the coefficient of X^j, the same labeling the
    program's field records use, so a record's generator can be read as is.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        self.p, self.e, self.q = p, e, p**e
        if e == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = tuple(modulus) if modulus is not None else find_modulus(p, e)
            if len(self.modulus) != e + 1 or self.modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not is_irreducible(self.modulus, p):
                raise ValueError("modulus is reducible")
        self._mul_memo: dict[tuple[int, int], int] = {}

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def index(self, digits) -> int:
        v = 0
        for c in reversed(list(digits)):
            v = v * self.p + c % self.p
        return v

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self.index(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        return self.index(-x for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        key = (a, b) if a <= b else (b, a)
        hit = self._mul_memo.get(key)
        if hit is not None:
            return hit
        p, da, db = self.p, self.digits(a), self.digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        out = self.index(_poly_rem(prod, list(self.modulus), p)[: self.e])
        self._mul_memo[key] = out
        return out

    def pow(self, a: int, m: int) -> int:
        r = 1
        while m:
            if m & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            m >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def to_record(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


def gf_from_record(record: dict) -> GF:
    return GF(int(record["p"]), int(record["e"]), record.get("modulus"))


# ---------- linear algebra by plain Gaussian elimination ----------


def rank(F: GF, rows) -> int:
    M = [list(r) for r in rows]
    if not M:
        return 0
    n = len(M[0])
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        piv = F.inv(M[r][c])
        for i in range(r + 1, len(M)):
            f = M[i][c]
            if f:
                f = F.mul(f, piv)
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
        r += 1
        if r == len(M):
            break
    return r


def gram(F: GF, G):
    """G times G-transpose."""
    out = []
    for a in G:
        row = []
        for b in G:
            acc = 0
            for x, y in zip(a, b):
                if x and y:
                    acc = F.add(acc, F.mul(x, y))
            row.append(acc)
        out.append(row)
    return out


def hull_dimension(F: GF, G) -> int:
    """dim(C and C-dual) = k - rank(G G^T), Massey's LCD criterion at 0."""
    return len(G) - rank(F, gram(F, G))


def columns_singular(F: GF, G, cols) -> bool:
    return rank(F, [[row[c] for c in cols] for row in G]) < len(G)


def min_distance(F: GF, G) -> int:
    """Minimum weight over all q^k - 1 nonzero codewords, by brute force."""
    n, best = len(G[0]), len(G[0]) + 1
    for msg in product(range(F.q), repeat=len(G)):
        if not any(msg):
            continue
        word = [0] * n
        for m, row in zip(msg, G):
            if m:
                word = [F.add(w, F.mul(m, x)) for w, x in zip(word, row)]
        best = min(best, sum(1 for x in word if x))
    return best


def is_mds_by_subsets(F: GF, G) -> bool:
    """Every k-subset of columns is nonsingular (full scan, early exit)."""
    k, n = len(G), len(G[0])
    return not any(columns_singular(F, G, cols) for cols in combinations(range(n), k))


def grs_generator(F: GF, locators, multipliers, k: int, extended: bool = False):
    """Rows v_i a_i^r for r < k, plus the X^(k-1) coordinate when extended."""
    rows = []
    powers = [1] * len(locators)
    for r in range(k):
        row = [F.mul(v, w) for v, w in zip(multipliers, powers)]
        if extended:
            row.append(1 if r == k - 1 else 0)
        rows.append(row)
        powers = [F.mul(w, a) for w, a in zip(powers, locators)]
    return rows


def eval_poly(F: GF, coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def dot(F: GF, a, b) -> int:
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = F.add(acc, F.mul(x, y))
    return acc
