import random
from itertools import product

import pytest

import lcdmds.grs
from conftest import dot, in_dual_direct, random_grs_spec
from lcdmds import (
    FieldMismatch,
    GrsSpec,
    LinearCode,
    ParameterError,
    Poly,
    dual_multipliers,
    field,
    field_from_order,
)

F5 = field(5)

ODD_PRIME_POWERS_TO_27 = [5, 7, 9, 11, 13, 17, 19, 23, 25, 27]


def test_spec_validation():
    with pytest.raises(ParameterError, match="duplicate"):
        GrsSpec(F5, (0, 0, 1), (1, 1, 1), 1)
    with pytest.raises(ParameterError, match="nonzero"):
        GrsSpec(F5, (0, 1), (1, 0), 1)
    with pytest.raises(ParameterError, match="one multiplier"):
        GrsSpec(F5, (0, 1), (1,), 1)
    with pytest.raises(ParameterError, match="1 <= k"):
        GrsSpec(F5, (0, 1), (1, 1), 3)
    with pytest.raises(ParameterError, match="all q"):
        GrsSpec(F5, (0, 1), (1, 1), 1, extended=True)


def test_generator_examples():
    spec = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    assert spec.generator().gen == ((1, 1, 1, 1), (0, 1, 2, 3))

    ext = GrsSpec(F5, (0, 1, 2, 3, 4), (1,) * 5, 2, extended=True)
    assert ext.length == 6
    assert ext.generator().gen == ((1, 1, 1, 1, 1, 0), (0, 1, 2, 3, 4, 1))

    small = GrsSpec(F5, (1, 2), (2, 3), 1)
    assert small.generator().gen == ((2, 3),)


def test_generator_is_built_once():
    spec = GrsSpec(F5, (0, 1, 2, 3), (1, 2, 3, 4), 2)
    assert spec.generator() is spec.generator()


def test_codeword_examples():
    spec = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    assert spec.codeword(Poly(F5)) == (0, 0, 0, 0)
    assert spec.codeword(Poly(F5, [0, 1])) == (0, 1, 2, 3)

    ext = GrsSpec(F5, (0, 1, 2, 3, 4), (1,) * 5, 2, extended=True)
    assert ext.codeword(Poly(F5, [0, 1])) == (0, 1, 2, 3, 4, 1)

    with pytest.raises(ParameterError, match="degree"):
        spec.codeword(Poly(F5, [0, 0, 1]))
    with pytest.raises(FieldMismatch):
        spec.codeword(Poly(field(7), [1]))


def test_codewords_match_message_times_generator():
    rng = random.Random(21)
    for _ in range(20):
        spec = random_grs_spec(field(7), rng)
        F = spec.field
        msg = [rng.randrange(7) for _ in range(spec.k)]
        via_matrix = [0] * spec.length
        for m, row in zip(msg, spec.generator().gen):
            via_matrix = [F.add(w, F.mul(m, x)) for w, x in zip(via_matrix, row)]
        assert spec.codeword(Poly(F, msg)) == tuple(via_matrix)


def test_dual_multipliers_examples():
    # over all five elements of GF(5) every entry is -1 = 4
    assert dual_multipliers(F5, range(5)) == (4, 4, 4, 4, 4)
    # three locators, worked by hand: ((0-1)(0-2))^-1, ((1-0)(1-2))^-1, ((2-0)(2-1))^-1
    assert dual_multipliers(F5, (0, 1, 2)) == (3, 4, 3)
    with pytest.raises(ParameterError, match="duplicate"):
        dual_multipliers(F5, (1, 1))


def test_dual_multipliers_all_elements_constant():
    for q in ODD_PRIME_POWERS_TO_27:
        F = field_from_order(q)
        u = dual_multipliers(F, F.elements())
        assert set(u) == {F.neg(1)}


def test_dual_multipliers_additive_subgroup_constant():
    F = field(3, 2)
    H = F.additive_subgroup(1)
    h = 1
    for z in H:
        if z:
            h = F.mul(h, z)
    u = dual_multipliers(F, H)
    assert set(u) == {F.inv(h)}


def test_grs_dual_matches_null_space():
    spec = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    dual_spec = spec.dual()
    assert dual_spec.k == 2
    assert dual_spec.multipliers == dual_multipliers(F5, spec.locators)
    assert dual_spec.generator().same_row_space(spec.generator().dual())

    rng = random.Random(4)
    for _ in range(40):
        s = random_grs_spec(field(3, 2), rng)
        assert s.k < s.n
        assert s.dual().generator().same_row_space(s.generator().dual())


def test_grs_dual_all_elements_top_dimension():
    spec = GrsSpec(F5, tuple(range(5)), (1,) * 5, 4)
    dual_spec = spec.dual()
    assert dual_spec.k == 1
    assert dual_spec.generator().gen == ((4, 4, 4, 4, 4),)


def test_grs_dual_roundtrip():
    rng = random.Random(31)
    for _ in range(25):
        spec = random_grs_spec(field(11), rng)
        assert spec.dual().dual().generator().same_row_space(spec.generator())


def test_grs_dual_rejections():
    with pytest.raises(ParameterError, match="extended"):
        GrsSpec(F5, tuple(range(5)), (1,) * 5, 2, extended=True).dual()
    with pytest.raises(ParameterError, match="zero-dimensional"):
        GrsSpec(F5, (0, 1), (1, 1), 2).dual()


def test_in_dual_trivial_cases():
    spec = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    assert spec.in_dual(Poly(F5)) is True  # zero codeword is in every dual
    # constant 1: G . (1,1,1,1) has first entry 4 != 0
    assert spec.in_dual(Poly(F5, [1])) is False
    assert in_dual_direct(spec, Poly(F5, [1])) is False
    with pytest.raises(ParameterError, match="degree"):
        spec.in_dual(Poly(F5, [0, 0, 1]))


def test_in_dual_scale_is_computed_once(monkeypatch):
    calls = []
    real = lcdmds.grs.dual_multipliers
    monkeypatch.setattr(lcdmds.grs, "dual_multipliers", lambda *a: calls.append(a) or real(*a))
    spec = GrsSpec(field(7), (0, 1, 2, 3, 5), (1, 2, 3, 4, 6), 2)
    for coeffs in product(range(7), repeat=2):
        f = Poly(spec.field, list(coeffs))
        assert spec.in_dual(f) == in_dual_direct(spec, f)
    assert len(calls) == 1


def test_in_dual_matches_direct_check_exhaustively():
    cases = [
        GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2),
        GrsSpec(F5, (1, 2, 4, 3), (1, 1, 1, 2), 2),
        GrsSpec(F5, (0, 2, 3), (2, 1, 3), 3),  # k = n edge
        GrsSpec(field(7), (0, 1, 2, 3, 4, 5), (1, 1, 1, 1, 3, 3), 2),
        GrsSpec(F5, tuple(range(5)), (1, 1, 1, 1, 2), 2, extended=True),
        GrsSpec(F5, tuple(range(5)), (1, 1, 2, 2, 2), 3, extended=True),
    ]
    for spec in cases:
        F = spec.field
        for coeffs in product(range(F.q), repeat=spec.k):
            f = Poly(F, coeffs)
            assert spec.in_dual(f) == in_dual_direct(spec, f)


def test_in_dual_matches_direct_check_random():
    rng = random.Random(6)
    for _ in range(10):
        spec = random_grs_spec(field(13), rng, max_k=5)
        F = spec.field
        for _ in range(50):
            f = Poly(F, [rng.randrange(F.q) for _ in range(spec.k)])
            assert spec.in_dual(f) == in_dual_direct(spec, f)


def test_extended_dual_shape_for_unit_multipliers():
    # for v = 1 the dual of the extended code is the set of
    # (g(a_1), ..., g(a_q), g_{q-k}) over deg g <= q - k
    for q, k in [(5, 2), (5, 3), (7, 2), (7, 3)]:
        F = field_from_order(q)
        spec = GrsSpec(F, tuple(range(q)), (1,) * q, k, extended=True)
        rows = []
        for j in range(q - k + 1):  # basis g = X^j
            g = Poly(F, [0] * j + [1])
            rows.append([g.eval(a) for a in range(q)] + [g.coeff(q - k)])
        candidate = LinearCode(F, rows)
        assert candidate.same_row_space(spec.generator().dual())


def test_random_specs_have_full_rank_and_are_mds():
    rng = random.Random(99)
    count = 0
    for q in (5, 7, 9, 11):
        F = field_from_order(q)
        for _ in range(125):
            spec = random_grs_spec(F, rng)
            code = spec.generator()  # raises if the rank dropped
            assert code.k == spec.k
            count += 1
            if F.q**spec.k <= 10_000:
                assert code.minimum_distance() == spec.n - spec.k + 1
    assert count == 500


def test_spec_serialization_roundtrip():
    spec = GrsSpec(F5, (1, 2, 4, 3), (1, 1, 1, 2), 2)
    again = GrsSpec.from_dict(spec.to_dict())
    assert again == spec
    ext = GrsSpec(F5, tuple(range(5)), (1, 1, 2, 2, 2), 3, extended=True)
    assert GrsSpec.from_dict(ext.to_dict()) == ext
    for k in (2.5, "2"):  # never truncated or coerced
        with pytest.raises(ParameterError, match="must be an integer"):
            GrsSpec.from_dict({**spec.to_dict(), "k": k})
