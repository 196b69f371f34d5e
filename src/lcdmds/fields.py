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
g^x + g^y = g^(x + Z(y - x)) (Huber, IEEE T-IT 36(4), 1990). Prime fields
add modulo p. The order cap q <= 2^16 keeps the tables manageable.

FieldArrays applies the same arithmetic element-wise to numpy arrays of
element indices, for kernels that work on many matrices at once. It wraps
the field's tables as arrays on first use and builds none of its own.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import ParameterError

MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


# ---------- polynomial arithmetic over GF(p) for the modulus search ----------
# Coefficient lists, low degree first, trailing zeros trimmed.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by the monic modulus
    e = len(mod) - 1
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(e):
                out[i - e + j] = (out[i - e + j] - c * mod[j]) % p
    return _trim(out[:e])


def _powmod(a: list[int], m: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = list(a)
    while m:
        if m & 1:
            result = _mulmod(result, base, mod, p)
        base = _mulmod(base, base, mod, p)
        m >>= 1
    return result


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        # a mod b, b monic-normalized first
        lead_inv = pow(b[-1], p - 2, p)
        b = [(c * lead_inv) % p for c in b]
        while len(a) >= len(b) and a:
            c = a[-1]
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            _trim(a)
        a, b = b, a
    return a


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Whether a monic polynomial over GF(p) is irreducible.

    Checks that gcd(f, X^(p^d) - X) is constant for every d up to deg(f)/2,
    i.e. f has no irreducible factor of degree <= deg(f)/2.
    """
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] != 1:
        return False
    t = [0, 1]  # X
    for _ in range(e // 2):
        t = _powmod(t, p, coeffs, p)
        diff = list(t) + [0] * max(0, 2 - len(t))
        diff[1] = (diff[1] - 1) % p
        g = _gcd(list(coeffs), _trim(diff), p)
        if len(g) > 1:
            return False
    return True


def find_modulus(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible of degree e, low-degree-first coefficient order.

    For e = 1 this is X itself, the prime-field convention.
    """
    for low in product(range(p), repeat=e):
        cand = list(low) + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {e} over GF({p})")


# ---------- the field itself ----------


class Field:
    """The finite field GF(p^e) under the canonical element labeling."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        if e < 1:
            raise ParameterError(f"extension degree must be at least 1, got {e}")
        # The cap comes before the primality test, whose trial division does
        # not end on a huge p; p^e is only computed once both are small.
        if p > MAX_ORDER or (p > 1 and (e >= MAX_ORDER.bit_length() or p**e > MAX_ORDER)):
            raise ParameterError(f"field order {p}^{e} exceeds the supported cap 2^16")
        if not is_prime(p):
            raise ParameterError(f"{p} is not prime")
        q = p**e
        self.p = p
        self.e = e
        self.q = q
        if modulus is None:
            self.modulus = find_modulus(p, e)
        else:
            self.modulus = tuple(int(c) % p for c in modulus)
            if len(self.modulus) != e + 1 or self.modulus[-1] != 1:
                raise ParameterError(f"modulus must be monic of degree {e}")
            if not is_irreducible(list(self.modulus), p):
                raise ParameterError("modulus is not irreducible")
        self._build_tables()

    def _raw_mul(self, a: int, b: int) -> int:
        # table-free product, used only while bootstrapping the tables
        da, db = self._digits[a], self._digits[b]
        prod = _mulmod(_trim(list(da)), _trim(list(db)), list(self.modulus), self.p)
        return self.from_coeffs(prod)

    def _raw_pow(self, a: int, m: int) -> int:
        r = 1
        while m:
            if m & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            m >>= 1
        return r

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        q1 = q - 1
        weights = p ** np.arange(e, dtype=np.int64)
        digits = np.arange(q, dtype=np.int64)[:, None] // weights % p
        self._digits = list(map(tuple, digits.tolist()))
        radicals = [q1 // r for r in prime_factors(q1)] if q > 2 else []
        g = 1
        for g in range(1, q):
            if all(self._raw_pow(g, m) != 1 for m in radicals):
                break
        self.primitive_element = g
        exp = [0] * q1
        log = [2 * q1] * q  # the sentinel log 0 = 2(q - 1)
        x = 1
        for i in range(q1):
            exp[i] = x
            log[x] = i
            x = self._raw_mul(x, g)
        self._log = log
        # exp twice, then zeros: log a + log b >= 2(q - 1) iff a or b is 0
        self._exp = exp + exp + [0] * (2 * q1 + 1)
        one_plus = digits[exp]  # digits of g^m, m = 0..q-2
        one_plus[:, 0] = (one_plus[:, 0] + 1) % p
        # Zech and inverses share their int objects with log and exp
        self._zech = [log[i] for i in (one_plus @ weights).tolist()]
        self._neg = ((-digits % p) @ weights).tolist()
        # q1 - log 0 = -(q - 1) indexes the zero tail; inv(0) raises anyway
        self._inv = [self._exp[q1 - x] for x in log]

    @cached_property
    def arrays(self) -> "FieldArrays":
        """Element-wise arithmetic on numpy index arrays, wrapped on first use."""
        return FieldArrays(self)

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
        return self._digits[self.check(a)]

    def from_coeffs(self, coeffs) -> int:
        v = 0
        for c in reversed(list(coeffs)):
            v = v * self.p + c % self.p
        if v >= self.q:
            raise ParameterError("coefficient vector too long for this field")
        return v

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        if self.e == 1:
            return (a + b) % self.p
        return self._zech_add(a, b)

    def sub(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        if self.e == 1:
            return (a - b) % self.p
        return self._zech_add(a, self._neg[b])

    def _zech_add(self, a: int, b: int) -> int:
        # g^x + g^y = g^(x + Z(y - x)); Z is indexed mod q - 1 by Python's
        # negative indexing, and 1 + g^m = 0 lands in the zero tail of exp
        if not a or not b:
            return a or b
        x = self._log[a]
        return self._exp[x + self._zech[self._log[b] - x]]

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
        if n < 1 or (self.q - 1) % n != 0:
            raise ParameterError(f"{n} does not divide q - 1 = {self.q - 1}")
        return self._exp[((self.q - 1) // n) % (self.q - 1)]

    def additive_subgroup(self, level: int) -> list[int]:
        """The GF(p)-span of 1, x, ..., x^(level-1): p^level elements, ascending.

        Under the canonical labeling these are exactly the indices below
        p^level, so the subgroup is closed under addition by construction.
        """
        if not 1 <= level <= self.e:
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
        p, e, modulus = int(d["p"]), int(d["e"]), d.get("modulus")
        F = field(p, e)
        if modulus is None or tuple(int(c) % p for c in modulus) == F.modulus:
            return F
        return cls(p, e, modulus)


class FieldArrays:
    """Field arithmetic applied element-wise to int64 arrays of element indices.

    Prime fields compute modulo p. Extension fields use the field's own
    tables as arrays: exp/log for products, and the Zech table with the
    negation table for differences; zero operands are fixed up with where().
    digits[a] holds the e base-p digits of element a, in the narrowest
    unsigned type that also holds a sum of two digits.
    """

    def __init__(self, F: Field):
        self.p = F.p
        self.prime = F.e == 1
        self.inv_table = np.array(F._inv, dtype=np.int64)
        self.digits = np.array(F._digits, dtype=np.min_scalar_type(2 * (F.p - 1)))
        if self.prime:
            return
        self.q1 = F.q - 1
        self.exp, self.log, self.zech, self.neg = (
            np.array(t, dtype=np.int64) for t in (F._exp, F._log, F._zech, F._neg)
        )

    def mul(self, a, b):
        if self.prime:
            return a * b % self.p
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        return self.inv_table[a]

    def sub(self, a, b):
        if self.prime:
            return (a - b) % self.p
        # a zero operand indexes harmlessly inside the tables; where() fixes it
        b = self.neg[b]
        la = self.log[a]
        s = self.exp[la + self.zech[(self.log[b] - la) % self.q1]]
        return np.where(a == 0, b, np.where(b == 0, a, s))


@lru_cache(maxsize=None)
def field(p: int, e: int = 1) -> Field:
    """Shared Field instance for GF(p^e) with the canonical modulus."""
    return Field(p, e)


def field_from_order(q: int) -> Field:
    """Field of the given prime-power order q."""
    if q < 2:
        raise ParameterError(f"{q} is not a prime power")
    # before prime_factors, whose trial division does not end on a huge q
    if q > MAX_ORDER:
        raise ParameterError(f"field order {q} exceeds the supported cap 2^16")
    p = min(prime_factors(q))
    e = 0
    n = q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ParameterError(f"{q} is not a prime power")
    return field(p, e)
