import math
import random
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    digit_add,
    digit_mul,
    digit_neg,
    field_tables_scalar,
    is_irreducible_by_trial_division,
    multiplicative_order_brute,
)
from lcdmds import Field, GrsSpec, LinearCode, ParameterError, Poly, field, field_from_order, fields
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
                if is_irreducible_by_trial_division(list(low) + [1], p)
            )
            assert find_modulus(p, e) == first, (p, e)


def test_is_irreducible_matches_trial_division():
    # every monic polynomial of each degree e with p^e <= 729: 3,293 in all
    for p in (2, 3, 5, 7):
        for e in range(1, 10):
            if p**e > 729:
                break
            for low in product(range(p), repeat=e):
                f = list(low) + [1]
                assert is_irreducible(f, p) == is_irreducible_by_trial_division(f, p), (f, p)


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


def test_from_dict_builds_one_table_set(monkeypatch, field_builds):
    monkeypatch.setattr(fields, "field", lru_cache(maxsize=None)(Field))  # an empty cache
    other = Field.from_dict({"p": 3, "e": 5, "modulus": [2, 2, 1, 2, 0, 1]})
    assert other.modulus == (2, 2, 1, 2, 0, 1) and field_builds == [243]
    F = fields.field(3, 5)
    assert Field.from_dict(F.to_dict()) is Field.from_dict({"p": 3, "e": 5}) is F
    assert field_builds == [243, 243]


@pytest.mark.parametrize(
    "p, e, modulus",
    [(2, 1, None), (3, 1, None), (2, 8, None), (3, 5, None), (5, 3, None), (3, 7, None),
     (7, 5, None), (127, 2, None), (3, 2, (2, 2, 1)), (3, 5, (2, 2, 1, 2, 0, 1))],
)
def test_tables_match_scalar_reference(p, e, modulus):
    F = field(p, e) if modulus is None else Field(p, e, modulus)
    assert F.modulus == (modulus or find_modulus(p, e))
    for name, table in field_tables_scalar(p, e, F.modulus).items():
        assert getattr(F, name) == table, name


@pytest.mark.parametrize("p,e", [(7, 1), (2, 4), (3, 3), (3, 7), (65521, 1)])
def test_field_arrays_match_scalar_ops(p, e):
    # zero operands, a - a = 0 and a - b c = 0 (the Zech sentinel), the
    # difference (b = 1) and the largest prime field
    F = field(p, e)
    arrays = F.arrays
    rng = random.Random(p + e)
    a = [rng.randrange(F.q) for _ in range(400)] + [0, 0, F.q - 1]
    b = a[:100] + [rng.randrange(F.q) for _ in range(300)] + [0, F.q - 1, 0]
    c = [rng.randrange(F.q) for _ in range(200)] + [1] * 100 + [0] * 103
    ab = [F.mul(s, t) for s, t in zip(b, c)][:50] + a[50:]
    x, y, z = (np.array(v, dtype=np.int64) for v in (a, b, c))
    assert arrays.mul(x, y).tolist() == [F.mul(s, t) for s, t in zip(a, b)]
    assert arrays.submul(x, 1, y).tolist() == [F.sub(s, t) for s, t in zip(a, b)]
    for w in (a, ab):
        assert arrays.submul(np.array(w), y, z).tolist() == [
            F.sub(s, F.mul(t, u)) for s, t, u in zip(w, b, c)
        ]
    units = [s for s in a if s]
    assert arrays.inv[np.array(units, dtype=np.int64)].tolist() == [F.inv(s) for s in units]


@st.composite
def submul_operands(draw):
    """(F, a, b, c) for FieldArrays.submul: a column times a row as in _rref, a
    (B, r, 1) times (B, 1, w) stack as in the subset kernel, or a difference
    (b = 1) of a column and a row as in grs.difference_products. Elements are
    zero half the time, and a = b c at drawn entries, where the Zech index
    lands on its sentinel 1 + g^m = 0."""
    F = field(*draw(st.sampled_from([(7, 1), (2, 4), (3, 3), (3, 7), (3, 10), (65521, 1)])))
    B, r, w = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    shapes = draw(st.sampled_from([
        ((r, w), (r, 1), (w,)),
        ((B, r, w), (B, r, 1), (B, 1, w)),
        ((r, 1), None, (1, w)),
    ]))
    element = st.one_of(st.just(0), st.integers(0, F.q - 1))

    def array(shape):
        size = math.prod(shape)
        values = draw(st.lists(element, min_size=size, max_size=size))
        return np.array(values, dtype=np.int64).reshape(shape)

    a, c = array(shapes[0]), array(shapes[2])
    b = 1 if shapes[1] is None else array(shapes[1])
    if shapes[1] is None:
        if draw(st.booleans()):
            a[draw(st.integers(0, r - 1)), 0] = c[0, draw(st.integers(0, w - 1))]
    else:
        same = draw(st.lists(st.booleans(), min_size=a.size, max_size=a.size))
        product = np.vectorize(F._mul, otypes=[np.int64])(b, c)
        a = np.where(np.reshape(same, a.shape), product, a)
    return F, a, b, c


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(submul_operands())
def test_submul_matches_scalar_sub_mul(case):
    F, a, b, c = case
    expected = [F.sub(int(x), F.mul(int(y), int(z))) for x, y, z in np.broadcast(a, b, c)]
    out = F.arrays.submul(a, b, c)
    assert out.shape == np.broadcast(a, b, c).shape
    assert out.ravel().tolist() == expected


SUBMUL_FIELDS = [(5, 1), (3, 2), (5, 2), (3, 3), (3, 7), (127, 2), (2, 16)]


def submul_triples(F):
    """Every (a, b, c) when q <= 27; else 10,000 seeded triples, with a zero
    operand in three of each eight and b c = a, where the Zech index lands on
    its sentinel 1 + g^m = 0, in one more."""
    if F.q <= 27:
        return list(product(range(F.q), repeat=3))
    rng = random.Random(F.q)
    out = []
    for i in range(10_000):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        kind = i % 8
        if kind < 3:
            a, b, c = [(0, b, c), (a, 0, c), (a, b, 0)][kind]
        elif kind == 3:
            a = digit_mul(F.p, F.modulus, b, c)
        out.append((a, b, c))
    return out


@pytest.mark.parametrize("p,e", SUBMUL_FIELDS)
def test_scalar_submul_matches_digit_reference(p, e):
    F = field(p, e)
    for a, b, c in submul_triples(F):
        bc = digit_mul(F.p, F.modulus, b, c)
        assert F._submul(a, b, c) == digit_add(F, a, digit_neg(F, bc)), (a, b, c)


@pytest.mark.parametrize("p,e", SUBMUL_FIELDS)
def test_array_submul_matches_scalar_submul(p, e):
    F = field(p, e)
    triples = submul_triples(F)
    a, b, c = np.array(triples, dtype=np.int64).T
    assert F.arrays.submul(a, b, c).tolist() == [F._submul(*t) for t in triples]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda F: F.pow(3, 2.5), id="pow-float"),
        pytest.param(lambda F: F.pow(3, True), id="pow-bool"),
        pytest.param(lambda F: F.nth_root_of_unity(2.0), id="root-float"),
        pytest.param(lambda F: F.nth_root_of_unity("3"), id="root-str"),
        pytest.param(lambda F: F.nth_root_of_unity(True), id="root-bool"),
        pytest.param(lambda F: Poly(F, (1, 2)).coeff(1.0), id="coeff-float"),
    ],
)
def test_integer_arguments_reject_non_integers(call):
    with pytest.raises(ParameterError, match="must be an integer"):
        call(field(7))


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
    assert not is_irreducible([3], 5)  # a constant has degree 0
    assert not is_irreducible([1, 2], 5)  # not monic
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


def test_from_coeffs_takes_integers_only():
    assert field(5).from_coeffs([7]) == 2  # ints still reduce mod p
    assert field(3, 2).from_coeffs([-1, 4]) == 5
    for F, coeffs in ((field(5), [1.5]), (field(3, 2), [2.5, 1]), (field(3, 2), [1, True])):
        with pytest.raises(ParameterError, match="coefficient must be an integer"):
            F.from_coeffs(coeffs)
    with pytest.raises(ParameterError, match="too long"):
        field(5).from_coeffs([1, 1])


def test_field_parameters_take_integers_only():
    for args, name in (((5.0,), "p"), ((5, True), "e"), ((7, 1.0), "e")):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            Field(*args)
    with pytest.raises(ParameterError, match="q must be an integer"):
        fields.prime_power(9.0)


def test_cached_field_and_modulus_still_take_integers_only():
    # the valid form first, so that a cache that took 7.0 and True for 7 and
    # 1 would answer the non-integer forms with it
    assert field(7, 1) is field(7) and field(3, 1) is field(3)
    for args, name in (((7, 1.0), "e"), ((7.0, 1), "p"), ((7.0,), "p"), ((3, True), "e")):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            field(*args)
    assert find_modulus(3, 2) == (1, 0, 1)
    for args, name in (((3.0, 2), "p"), ((3, 2.0), "e"), ((3, True), "e")):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            find_modulus(*args)
    assert field_from_order(7) is field(7)


def test_given_modulus_takes_integers_only():
    assert Field(3, 2, modulus=[4, 0, 1]).modulus == (1, 0, 1)  # ints still reduce mod p
    for modulus in ([1.5, 0, 1], ["1", 0, 1], [1, 0, True]):
        with pytest.raises(ParameterError, match="modulus must be an integer"):
            Field(3, 2, modulus=modulus)


def test_coeffs_encoding_is_base_p():
    F = field(3, 2)
    assert F.coeffs(0) == (0, 0)
    assert F.coeffs(1) == (1, 0)
    assert F.coeffs(3) == (0, 1)  # the generator x of the polynomial basis
    assert F.coeffs(5) == (2, 1)


def test_primitive_element_matches_bruteforce():
    # the search skips the prime subfield of an extension field
    for p, e in [(5, 1), (7, 1), (3, 1), (3, 2), (13, 1), (3, 3), (2, 8), (5, 3), (3, 5), (7, 3)]:
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
    with pytest.raises(ParameterError, match="no multiplicative order"):
        F.multiplicative_order(0)


def test_prime_helpers():
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)
    assert prime_factors(12) == [2, 3]
    assert prime_factors(13) == [13]
    assert find_modulus(5, 1) == (0, 1)
