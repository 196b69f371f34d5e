"""Exact arithmetic in GF(p^e) with a fixed canonical element labeling.

Elements are canonical indices 0..q-1: index i encodes the polynomial-basis
coefficient vector given by the base-p digits of i (coefficient of 1 first),
so 0 is the zero element and 1..p-1 are the prime subfield. The reduction
modulus is the first monic irreducible of degree e when coefficient tuples
are compared low-degree-first, which makes every field, and everything built
on top of it, bit-reproducible.

Each field builds one set of tables, keyed to the first primitive element g
in canonical order: exp and log (log 0 is a sentinel that lands in a zero
tail of exp, so a product needs no zero test), inverses, negatives and the
Zech logarithm Z(m) = log(1 + g^m), which adds in an extension field through
g^x + g^y = g^(x + Z(y - x)) (Huber, IEEE T-IT 36(4), 1990); prime fields
add modulo p. Each layer adds by one fused step a - b c, by the same formula:
Field._submul on scalars and FieldArrays.submul on arrays. The order cap
q <= 2^16 keeps the tables manageable.

The tables come from exact int64 array arithmetic, with no loop over the
elements: multiplying by c maps digit rows through an e x e matrix over GF(p),
so the rows of g^0 .. g^(m-1) times the matrix of g^m are those of g^m ..
g^(2m-1), and doubling m makes exp in about log2(q) products. Log is one
scatter into exp, the inverses one gather. One square-and-multiply on the
same matrices, _power, serves both searches: Rabin's irreducibility test for
the modulus, and the test that g^((q - 1)/r) != 1 for each prime r | q - 1.

FieldArrays applies the same arithmetic element-wise to numpy arrays of
element indices, for kernels that work on many matrices at once. It holds
the arrays the tables were computed as (the Zech table twice over) and
builds none of its own; the scalar operations read the same tables as Python
lists.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ParameterError

MAX_ORDER = 1 << 16


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


def json_int(value, name: str) -> int:
    """value, which must be a JSON integer: not a float, a string or a bool."""
    if value.__class__ is not int:
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return value


# ---------- arithmetic modulo a monic f over GF(p) ----------


def _times_modulo(modulus, p: int):
    """Multiplication in GF(p)[X]/(f), f = modulus monic of degree e, on digit rows.

    Returns (times, x): times(c) stacks the e x e matrices over GF(p) of
    multiplication by the rows c, row j being c X^j, so that a c is the row
    a @ times(c) % p; x is the row of X.
    """
    e = len(modulus) - 1
    xpow = np.eye(2 * e, e, dtype=np.int64)  # the rows of X^t, t < 2e
    for t in range(e, 2 * e):
        xpow[t, 1:] = xpow[t - 1, :-1]
        xpow[t] = (xpow[t] - xpow[t - 1, -1] * np.array(modulus[:e])) % p
    hankel = xpow[np.arange(e)[:, None] + np.arange(e)].reshape(e, e * e)

    def times(rows):
        return (rows @ hankel % p).reshape(np.shape(rows)[:-1] + (e, e))

    return times, xpow[1]


def _power(times, row, m: int, p: int):
    """The digit row of row^m, by square-and-multiply on times = _times_modulo(f, p)[0]."""
    out, step = np.eye(1, len(row), dtype=np.int64)[0], times(row)
    while m:
        if m & 1:
            out = out @ step % p
        step, m = step @ step % p, m >> 1
    return out


def is_irreducible(coeffs, p: int) -> bool:
    """Whether a monic polynomial f of degree e over GF(p) is irreducible.

    Rabin's test (SIAM J. Comput. 9(2), 1980) on the multiplication matrices
    of GF(p)[X]/(f): X^(p^e) = X, and for each prime r | e, X^(p^(e/r)) - X
    is a unit, i.e. its (p^e - 1)-th power is 1. The first condition makes f
    square-free with factors of degrees dividing e, so every unit passes.
    """
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] != 1:
        return False
    times, x = _times_modulo(coeffs, p)
    frobenius = [x]  # X^(p^j), j = 0..e
    for _ in range(e):
        frobenius.append(_power(times, frobenius[-1], p, p))
    differences = ((frobenius[e // r] - x) % p for r in prime_factors(e))
    powers = (_power(times, d, p**e - 1, p) for d in differences)
    return (frobenius[e] == x).all() and all(y[0] == 1 and not y[1:].any() for y in powers)


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 and True miss 3 and 1, reaching the check
def find_modulus(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible of degree e, low-degree-first coefficient order.

    For e = 1 this is X itself, the prime-field convention. For e >= 2 a zero
    constant term makes X a factor, so those candidates are skipped.
    """
    checked_order(p, e)  # a p that is not prime, or over the cap, never reaches the search
    for low in product(range(1 if e > 1 else 0, p), *[range(p)] * (e - 1)):
        cand = list(low) + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {e} over GF({p})")


# ---------- the field itself ----------


def checked_order(p: int, e: int) -> int:
    """The order p^e of a field with p prime, e >= 1 and p^e within the cap."""
    p, e = json_int(p, "p"), json_int(e, "e")
    if e < 1:
        raise ParameterError(f"extension degree must be at least 1, got {e}")
    # The cap comes before the primality test, whose trial division does
    # not end on a huge p; p^e is only computed once both are small.
    if p > MAX_ORDER or (p > 1 and (e >= MAX_ORDER.bit_length() or p**e > MAX_ORDER)):
        raise ParameterError(f"field order {p}^{e} exceeds the supported cap 2^16")
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    return p**e


class Field:
    """The finite field GF(p^e) under the canonical element labeling."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        q = checked_order(p, e)
        self.p = p
        self.e = e
        self.q = q
        if modulus is None:
            self.modulus = find_modulus(p, e)
        else:
            self.modulus = tuple(json_int(c, "modulus") % p for c in modulus)
            if len(self.modulus) != e + 1 or self.modulus[-1] != 1:
                raise ParameterError(f"modulus must be monic of degree {e}")
            if not is_irreducible(list(self.modulus), p):
                raise ParameterError("modulus is not irreducible")
        self._build_tables()

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        q1 = q - 1
        weights = p ** np.arange(e, dtype=np.int64)
        digits = np.arange(q, dtype=np.int64)[:, None] // weights % p
        times = _times_modulo(self.modulus, p)[0]
        # The first g with g^((q - 1)/r) != 1 for each prime r | q - 1; for
        # e >= 2 the prime subfield has none.
        radicals = [q1 // r for r in prime_factors(q1)]
        g = self.primitive_element = next(
            c
            for c in range(1 if e == 1 else p, q)
            if all(_power(times, digits[c], m, p) @ weights != 1 for m in radicals)
        )
        rows, step, m = np.empty((q1, e), dtype=np.int64), times(digits[g]), 1
        rows[0] = digits[1]
        while m < q1:
            rows[m : 2 * m] = rows[: min(m, q1 - m)] @ step % p
            step, m = step @ step % p, 2 * m
        exp = rows @ weights
        log = np.full(q, 2 * q1, dtype=np.int64)  # the sentinel log 0 = 2(q - 1)
        log[exp] = np.arange(q1)
        # exp twice, then zeros: log a + log b >= 2(q - 1) iff a or b is 0
        exp = np.concatenate((exp, exp, np.zeros(2 * q1 + 1, dtype=np.int64)))
        rows[:, 0] = (rows[:, 0] + 1) % p  # digits of 1 + g^m, m = 0..q-2
        one_plus = rows @ weights
        neg = (-digits % p) @ weights
        # q1 - log 0 = -(q - 1) indexes the zero tail; inv(0) raises anyway
        inv_log = q1 - log
        self.arrays = FieldArrays(p, e, digits, exp[inv_log], exp, log, log[one_plus], neg)
        # The scalar operations read the same tables as lists; Zech and
        # inverses share their int objects with log and exp.
        self._log = log.tolist()
        self._exp = exp[:q1].tolist() * 2 + [0] * (2 * q1 + 1)
        self._zech = list(map(self._log.__getitem__, one_plus.tolist()))
        self._neg = neg.tolist()
        self._inv = list(map(self._exp.__getitem__, inv_log.tolist()))

    # -- element plumbing --

    def check(self, a: int) -> int:
        if a.__class__ is int and 0 <= a < self.q:
            return a
        raise ParameterError(f"{a!r} is not an element index of {self!r}")

    def elements(self) -> range:
        """All q elements in canonical order; element 0 comes first."""
        return range(self.q)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coefficient vector of an element, low degree first."""
        return tuple(self.arrays.digits[self.check(a)].tolist())

    def from_coeffs(self, coeffs) -> int:
        v = 0
        for c in reversed(list(coeffs)):
            v = v * self.p + json_int(c, "coefficient") % self.p
        if v >= self.q:
            raise ParameterError("coefficient vector too long for this field")
        return v

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        return self._submul(a, self.p - 1, b)  # p - 1 is the element -1

    def sub(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        return self._submul(a, 1, b)

    # _submul, _mul and the _inv and _neg lists take elements without a
    # check: they serve loops whose operands were checked where they entered.

    def _submul(self, a: int, b: int, c: int) -> int:
        """a - b c, the one scalar addition, by the formula of FieldArrays.submul."""
        if self.e == 1:
            return (a + (self.p - b) * c) % self.p
        log, q1 = self._log, self.q - 1
        lb = log[self._neg[b]] + log[c]
        if lb >= 2 * q1:  # b c = 0: the sentinel log 0 is 2(q - 1)
            return a
        if not a:
            return self._exp[lb]
        # g^x + g^y = g^(x + Z(y - x)); 1 + g^m = 0 lands in the zero tail of exp
        la = log[a]
        return self._exp[la + self._zech[(lb - la) % q1]]

    def _mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def neg(self, a: int) -> int:
        return self._neg[self.check(a)]

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[self.check(a)] + self._log[self.check(b)]]

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, m: int) -> int:
        m = json_int(m, "exponent")
        if self.check(a) == 0:
            if m == 0:
                return 1
            if m < 0:
                raise ZeroDivisionError(f"0 has no inverse in {self!r}")
            return 0
        return self._exp[(self._log[a] * m) % (self.q - 1)]

    def multiplicative_order(self, a: int) -> int:
        if self.check(a) == 0:
            raise ParameterError("0 has no multiplicative order")
        n = self.q - 1
        return n // math.gcd(n, self._log[a])

    # -- structured subsets --

    def nth_root_of_unity(self, n: int) -> int:
        """Element of multiplicative order exactly n; requires n | q - 1."""
        if json_int(n, "root order") < 1 or (self.q - 1) % n != 0:
            raise ParameterError(f"{n} does not divide q - 1 = {self.q - 1}")
        return self._exp[((self.q - 1) // n) % (self.q - 1)]

    def additive_subgroup(self, level: int) -> list[int]:
        """The GF(p)-span of 1, x, ..., x^(level-1): p^level elements, ascending.

        Under the canonical labeling these are exactly the indices below
        p^level, so the subgroup is closed under addition by construction.
        """
        if not 1 <= json_int(level, "subgroup degree") <= self.e:
            raise ParameterError(f"subgroup degree must be in 1..{self.e}, got {level}")
        return list(range(self.p**level))

    # -- identity / serialization --

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"

    def to_dict(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, d: dict) -> "Field":
        """The field of a serialized record; the shared field() instance when
        the modulus is absent or canonical, else a validated new Field."""
        p, e, modulus = json_int(d["p"], "p"), json_int(d["e"], "e"), d.get("modulus")
        canonical = find_modulus(p, e)  # checks p and e first
        if modulus is None or tuple(json_int(c, "modulus") % p for c in modulus) == canonical:
            return field(p, e)
        return cls(p, e, modulus)


class FieldArrays:
    """Field arithmetic applied element-wise to int64 arrays of element indices.

    Subtraction is one fused, broadcasting step, submul(a, b, c) = a - b c.
    A prime field takes (a + (p - b) c) % p, one % over sums below p^2 <= 2^32.
    An extension field adds logs: lb = log(-b) + log c, clamped at 2q - 3 when
    b c = 0, and a - b c = g^(la + Z(lb - la)) with la = log a, copyto fixing
    a = 0 and b c = 0. zech is Z twice over, so lb - la, from -2(q - 1) up to
    2q - 3, indexes it with no % (q - 1): negative indices wrap.
    Every field keeps exp and log, so a product of many nonzero factors is a
    sum of their logs mod q1 = q - 1 and one exp lookup (grs.difference_products).
    inv is a table too, indexed like exp and log, and inv[0] reads 0. digits[a]
    holds the e base-p digits of element a, in the narrowest unsigned type that
    also holds a sum of two digits.
    """

    def __init__(self, p: int, e: int, digits, inv, exp, log, zech, neg):
        """Takes the int64 tables Field._build_tables computed, laid out as
        the Field lists of the same names."""
        self.p = p
        self.prime = e == 1
        self.inv = inv
        self.digits = digits.astype(np.min_scalar_type(2 * (p - 1)))
        self.q1 = len(log) - 1
        self.exp, self.log, self.zech, self.neg = exp, log, np.tile(zech, 2), neg

    def mul(self, a, b):
        if self.prime:
            return a * b % self.p
        return self.exp[self.log[a] + self.log[b]]

    def submul(self, a, b, c):
        """a - b c, broadcast; b = 1 makes a difference."""
        if self.prime:
            return (a + (self.p - b) * c) % self.p
        zero_product = 2 * self.q1 - 1
        lb = np.minimum(self.log[self.neg[b]] + self.log[c], zero_product)
        la = self.log[a]
        s = self.exp[la + self.zech[lb - la]]
        np.copyto(s, self.exp[lb], where=a == 0)
        np.copyto(s, a, where=lb == zero_product)
        return s


_shared_field = lru_cache(maxsize=None)(Field)


def field(p: int, e: int = 1) -> Field:
    """Shared Field instance for GF(p^e) with the canonical modulus."""
    # checked first: the cache would take 7.0 and True for 7 and 1
    return _shared_field(json_int(p, "p"), json_int(e, "e"))


def field_from_order(q: int) -> Field:
    """Field of the given prime-power order q."""
    return field(*prime_power(q))


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with p prime and p^e = q, for q within the order cap."""
    if json_int(q, "q") < 2:
        raise ParameterError(f"{q} is not a prime power")
    # before prime_factors, whose trial division does not end on a huge q
    if q > MAX_ORDER:
        raise ParameterError(f"field order {q} exceeds the supported cap 2^16")
    p = min(prime_factors(q))
    e = next(e for e in range(1, q.bit_length() + 1) if p**e >= q)
    if p**e != q:
        raise ParameterError(f"{q} is not a prime power")
    return p, e
