import random
from itertools import product

import numpy as np
import pytest

from conftest import digit_add, digit_neg, multiplicative_order_brute
from lcdmds import Field, GrsSpec, LinearCode, ParameterError, field, field_from_order
from lcdmds.fields import find_modulus, is_irreducible, is_prime, prime_factors


def test_prime_field_convention():
    F = field(5)
    assert (F.p, F.e, F.q) == (5, 1, 5)
    assert F.modulus == (0, 1)  # X
    assert list(F.elements()) == [0, 1, 2, 3, 4]


def test_gf9_modulus_matches_bruteforce_scan():
    # oracle: scan monic degree-2 polynomials over GF(3), coefficient tuples
    # compared low-degree-first, for the first one without a root (degree 2,
    # so root-freeness is irreducibility)
    first = None
    for c0, c1 in product(range(3), range(3)):
        if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            first = (c0, c1, 1)
            break
    assert first == (1, 0, 1)  # X^2 + 1
    assert field(3, 2).modulus == first


def test_gf27_modulus_matches_bruteforce_scan():
    first = None
    for c0, c1, c2 in product(range(3), repeat=3):
        if all((x**3 + c2 * x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            first = (c0, c1, c2, 1)
            break
    assert field(3, 3).modulus == first == (1, 0, 2, 1)


def test_find_modulus_matches_a_full_scan():
    # the search skips zero constant terms for e >= 2; a full scan of every
    # monic candidate, low-degree-first, must find the same first irreducible
    for p in (2, 3, 5, 7, 11, 13):
        for e in range(1, 13):
            if p**e > 1 << 12:
                break
            first = next(
                low + (1,)
                for low in product(range(p), repeat=e)
                if is_irreducible(list(low) + [1], p)
            )
            assert find_modulus(p, e) == first, (p, e)


def test_from_dict_reuses_the_shared_field():
    F = field(3, 2)
    assert Field.from_dict(F.to_dict()) is Field.from_dict(F.to_dict()) is F
    assert Field.from_dict({"p": 3, "e": 2}) is F
    code = GrsSpec(F, (0, 1, 2, 3), (1, 1, 1, 1), 2).generator()
    assert LinearCode.from_dict(code.to_dict()).field is F
    spec = GrsSpec(F, (0, 1, 2), (1, 2, 1), 2)
    assert GrsSpec.from_dict(spec.to_dict()).field is F
    # a non-canonical irreducible modulus is still accepted, a reducible one not
    other = Field.from_dict({"p": 3, "e": 2, "modulus": [2, 2, 1]})
    assert other is not F and other.modulus == (2, 2, 1)
    with pytest.raises(ParameterError, match="irreducible"):
        Field.from_dict({"p": 3, "e": 2, "modulus": [2, 0, 1]})


@pytest.mark.parametrize("p,e", [(7, 1), (2, 4), (3, 3), (3, 7), (65521, 1)])
def test_field_arrays_match_scalar_ops(p, e):
    # zero operands, a - a = 0 (the Zech sentinel) and the largest prime field
    F = field(p, e)
    arrays = F.arrays
    rng = random.Random(p + e)
    a = [rng.randrange(F.q) for _ in range(400)] + [0, 0, F.q - 1]
    b = a[:100] + [rng.randrange(F.q) for _ in range(300)] + [0, F.q - 1, 0]
    x, y = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert arrays.mul(x, y).tolist() == [F.mul(s, t) for s, t in zip(a, b)]
    assert arrays.sub(x, y).tolist() == [F.sub(s, t) for s, t in zip(a, b)]
    units = [s for s in a if s]
    assert arrays.inv(np.array(units, dtype=np.int64)).tolist() == [F.inv(s) for s in units]


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (2, 4)])
def test_add_sub_neg_match_digit_reference_exhaustive(p, e):
    F = field(p, e)
    for a in range(F.q):
        assert F.neg(a) == digit_neg(F, a)
        for b in range(F.q):
            assert F.add(a, b) == digit_add(F, a, b)
            assert F.sub(a, b) == digit_add(F, a, digit_neg(F, b))


@pytest.mark.parametrize("p,e", [(3, 5), (2, 9), (3, 7), (127, 2)])
def test_add_sub_neg_match_digit_reference_sampled(p, e):
    # seeded pairs plus zero operands, a + (-a) and a - a (the Zech sentinel)
    F = field(p, e)
    rng = random.Random(p * 100 + e)
    a = [rng.randrange(F.q) for _ in range(2000)]
    pairs = [(x, rng.randrange(F.q)) for x in a]
    pairs += [(x, 0) for x in a[:50]] + [(0, x) for x in a[:50]] + [(0, 0)]
    pairs += [(x, x) for x in a[:50]] + [(x, digit_neg(F, x)) for x in a[:50]]
    for x, y in pairs:
        assert F.neg(x) == digit_neg(F, x)
        assert F.add(x, y) == digit_add(F, x, y)
        assert F.sub(x, y) == digit_add(F, x, digit_neg(F, y))


def test_irreducibility_helper():
    assert is_irreducible([1, 0, 1], 3)  # X^2 + 1
    assert not is_irreducible([2, 0, 1], 3)  # X^2 + 2 = (X-1)(X+1)
    assert is_irreducible([0, 1], 5)  # X
    # degree 4 with no roots but reducible: (X^2+1)^2 over GF(3)
    assert not is_irreducible([1, 0, 2, 0, 1], 3)


def test_field_rejects_bad_parameters():
    with pytest.raises(ParameterError, match="not prime"):
        Field(4, 1)
    with pytest.raises(ParameterError, match="not prime"):
        Field(1, 1)
    with pytest.raises(ParameterError, match="degree"):
        Field(5, 0)
    with pytest.raises(ParameterError, match="cap"):
        Field(3, 11)  # 177147 > 2^16
    with pytest.raises(ParameterError, match="irreducible"):
        Field(3, 2, modulus=[2, 0, 1])


def test_arith_small_examples():
    F5, F7 = field(5), field(7)
    assert F5.add(2, 3) == 0
    assert F5.mul(3, 4) == 2
    assert F7.neg(0) == 0
    assert F5.sub(1, 3) == 3
    assert F7.pow(3, 0) == 1 and F7.pow(0, 0) == 1 and F7.pow(0, 5) == 0


def test_inverse_examples():
    assert field(7).inv(2) == 4
    for F in (field(5), field(7), field(3, 2)):
        assert F.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        field(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        field(5).pow(0, -1)


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (11, 2), (5, 3)])
def test_inverse_and_unit_order_exhaustive(p, e):
    F = field(p, e)
    for x in range(1, F.q):
        assert F.mul(x, F.inv(x)) == 1
        assert F.pow(x, F.q - 1) == 1


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (3, 3)])
def test_add_mul_commutative_associative_exhaustive(p, e):
    F = field(p, e)
    q = F.q
    for a in range(q):
        for b in range(q):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in product(range(q), repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_distributivity_exhaustive_gf9():
    F = field(3, 2)
    for a, b, c in product(range(9), repeat=3):
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_canonical_element_order():
    for F in (field(5), field(3, 2), field(3, 3)):
        elems = list(F.elements())
        assert len(elems) == F.q == len(set(elems))
        assert elems[0] == 0
        for x in elems:
            assert F.from_coeffs(F.coeffs(x)) == x


def test_coeffs_encoding_is_base_p():
    F = field(3, 2)
    assert F.coeffs(0) == (0, 0)
    assert F.coeffs(1) == (1, 0)
    assert F.coeffs(3) == (0, 1)  # the generator x of the polynomial basis
    assert F.coeffs(5) == (2, 1)


def test_primitive_element_matches_bruteforce():
    for p, e in [(5, 1), (7, 1), (3, 1), (3, 2), (13, 1), (3, 3)]:
        F = field(p, e)
        oracle = next(
            g for g in range(1, F.q) if multiplicative_order_brute(F, g) == F.q - 1
        )
        assert F.primitive_element == oracle
    assert field(5).primitive_element == 2
    assert field(7).primitive_element == 3
    assert field(3).primitive_element == 2


def test_nth_root_of_unity():
    assert field(5).nth_root_of_unity(4) == 2
    assert field(7).nth_root_of_unity(3) == 2  # 3^(6/3) = 9 = 2
    with pytest.raises(ParameterError, match="divide"):
        field(7).nth_root_of_unity(4)
    for F in (field(5), field(7), field(3, 2), field(3, 3)):
        for n in range(1, F.q):
            if (F.q - 1) % n == 0:
                w = F.nth_root_of_unity(n)
                assert multiplicative_order_brute(F, w) == n if n > 1 else w == 1


def test_additive_subgroup():
    F9 = field(3, 2)
    assert F9.additive_subgroup(1) == [0, 1, 2]
    assert F9.additive_subgroup(2) == list(range(9))
    with pytest.raises(ParameterError, match="degree"):
        F9.additive_subgroup(0)
    with pytest.raises(ParameterError, match="degree"):
        F9.additive_subgroup(3)


def test_additive_subgroup_closure_oracle():
    F = field(3, 3)
    H = F.additive_subgroup(2)
    assert len(H) == 9
    assert 0 in H
    members = set(H)
    for a in H:
        assert F.neg(a) in members
        for b in H:
            assert F.add(a, b) in members


def test_subgroup_nonzero_product_order_independent():
    F = field(3, 3)
    H = [z for z in F.additive_subgroup(2) if z]
    rng = random.Random(7)
    reference = None
    for _ in range(5):
        rng.shuffle(H)
        h = 1
        for z in H:
            h = F.mul(h, z)
        reference = h if reference is None else reference
        assert h == reference


def test_field_equality_and_serialization():
    assert field(3, 2) == Field(3, 2)
    assert field(3, 2) != field(3, 3)
    d = field(3, 2).to_dict()
    assert d == {"p": 3, "e": 2, "modulus": [1, 0, 1]}
    assert Field.from_dict(d) == field(3, 2)


def test_field_from_order():
    assert field_from_order(9) == field(3, 2)
    assert field_from_order(7) == field(7)
    with pytest.raises(ParameterError, match="prime power"):
        field_from_order(6)
    with pytest.raises(ParameterError, match="prime power"):
        field_from_order(1)


def test_even_characteristic_arithmetic_allowed():
    # the arithmetic layer supports p = 2; only constructions reject it
    F = field(2, 3)
    assert F.q == 8
    for x in range(1, 8):
        assert F.mul(x, F.inv(x)) == 1


def test_element_range_checks():
    F = field(5)
    with pytest.raises(ParameterError):
        F.add(2, 5)
    with pytest.raises(ParameterError):
        F.mul(-1, 2)
    with pytest.raises(ParameterError):
        F.coeffs(9)


def test_prime_helpers():
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)
    assert prime_factors(12) == [2, 3]
    assert prime_factors(13) == [13]
    assert find_modulus(5, 1) == (0, 1)
