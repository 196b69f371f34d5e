import dataclasses
import json
import random
from collections import Counter
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lcdmds.grs
from conftest import (
    difference_products_scalar,
    dot,
    enumerated_min_distance,
    in_dual_direct,
    random_grs_spec,
    rref_scalar,
    same_row_space,
)
from lcdmds import (
    BudgetExceeded,
    FieldMismatch,
    GrsSpec,
    LinearCode,
    ParameterError,
    Poly,
    dual_multipliers,
    field,
    field_from_order,
)
from lcdmds import linear
from lcdmds.grs import _proofs, difference_products

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


def _generator_rows_scalar(spec):
    """The generator rows v_i a_i^r by scalar Field.mul, powers from 0^0 = 1."""
    F = spec.field
    rows = []
    powers = [1] * spec.n
    for r in range(spec.k):
        row = [F.mul(v, w) for v, w in zip(spec.multipliers, powers)]
        if spec.extended:
            row.append(int(r == spec.k - 1))
        rows.append(tuple(row))
        powers = [F.mul(w, a) for w, a in zip(powers, spec.locators)]
    return tuple(rows)


def test_generator_rows_match_scalar_build():
    rng = random.Random(77)
    for F in (field(7), field(3, 3), field(3, 7), field(127, 2)):
        for k in (1, 2, 4):
            # locator 0 among plain locators, and every element when extended
            locs = [0] + rng.sample(range(1, F.q), 9 if F.q > 10 else F.q - 2)
            rng.shuffle(locs)
            every = tuple(range(F.q))
            specs = [
                GrsSpec(F, tuple(locs), tuple(rng.randrange(1, F.q) for _ in locs), k),
                GrsSpec(F, every, tuple(rng.randrange(1, F.q) for _ in every), k, extended=True),
            ]
            for spec in specs:
                expected = _generator_rows_scalar(spec)
                assert spec.generator().gen == expected, (F, spec.k, spec.extended)


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
    for bad in (5, -1, True):  # the product kernel runs unchecked
        with pytest.raises(ParameterError, match="element index"):
            dual_multipliers(F5, (0, bad))


@pytest.mark.parametrize("p, e", [(5, 1), (13, 1), (3, 2), (5, 2), (3, 3), (3, 5)])
def test_difference_products_match_scalar_reference(p, e):
    F = field(p, e)
    rng = random.Random(p * 100 + e)
    elements = list(F.elements())
    cases = [(elements, elements), (elements[:4], [])]  # n = q, and an empty product
    for _ in range(8):
        shuffled = rng.sample(elements, F.q)
        n = rng.randint(1, min(F.q, 40))
        # one point set with itself, as dual_multipliers takes it, and one
        # with disjoint others, as the window and large-nk builders take them
        cases.append((shuffled[:n], shuffled[:n]))
        cases.append((shuffled[:n], shuffled[n : n + rng.randint(0, F.q - n)]))
    for points, others in cases:
        expected = difference_products_scalar(F, points, others)
        assert difference_products(F, points, others).tolist() == expected
        if points == others:
            assert dual_multipliers(F, points) == tuple(map(F.inv, expected))


@pytest.mark.parametrize("batch", [1, 7, linear.BATCH_ENTRIES])
@pytest.mark.parametrize("p, e", [(13, 1), (3, 3), (2, 16)])
def test_difference_products_go_in_bounded_chunks(monkeypatch, p, e, batch):
    # a long locator list must not make a (points, others) temporary at once
    F = field(p, e)
    rng = random.Random(F.q + batch)
    pool = rng.sample(range(F.q), min(F.q, 40))
    monkeypatch.setattr(linear, "BATCH_ENTRIES", batch)
    sizes = []
    submul = type(F.arrays).submul
    counted = lambda s, a, b, c: sizes.append(np.broadcast(a, b, c).size) or submul(s, a, b, c)  # noqa: E731
    monkeypatch.setattr(type(F.arrays), "submul", counted)
    cases = [([], pool), (pool[:5], []), ([], []), (pool, pool), (pool[:9], pool[9:]),
             (pool[:1], pool[:3])]
    for points, others in cases:
        sizes.clear()
        expected = difference_products_scalar(F, points, others)
        assert difference_products(F, points, others).tolist() == expected
        assert max(sizes) <= max(batch, len(others)), (points, others)


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
    assert same_row_space(dual_spec.generator(), spec.generator().dual())

    rng = random.Random(4)
    for _ in range(40):
        s = random_grs_spec(field(3, 2), rng)
        assert s.k < s.n
        assert same_row_space(s.dual().generator(), s.generator().dual())


def test_grs_dual_all_elements_top_dimension():
    spec = GrsSpec(F5, tuple(range(5)), (1,) * 5, 4)
    dual_spec = spec.dual()
    assert dual_spec.k == 1
    assert dual_spec.generator().gen == ((4, 4, 4, 4, 4),)


def test_grs_dual_roundtrip():
    rng = random.Random(31)
    for _ in range(25):
        spec = random_grs_spec(field(11), rng)
        assert same_row_space(spec.dual().dual().generator(), spec.generator())


def test_grs_dual_rejections():
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
    calls, tables = [], []
    real = lcdmds.grs.dual_multipliers
    monkeypatch.setattr(lcdmds.grs, "dual_multipliers", lambda *a: calls.append(a) or real(*a))
    real_table = lcdmds.grs.inverse_differences
    monkeypatch.setattr(lcdmds.grs, "inverse_differences", lambda *a: tables.append(a) or real_table(*a))
    spec = GrsSpec(field(7), (0, 1, 2, 3, 5), (1, 2, 3, 4, 6), 2)
    for coeffs in product(range(7), repeat=2):
        f = Poly(spec.field, list(coeffs))
        assert spec.in_dual(f) == in_dual_direct(spec, f)
    assert len(calls) == 1
    assert tables == [(spec.field, spec.locators)]  # one table per spec, for all 49 messages
    # an extended spec's scale is v_i^2: it needs no dual multipliers at all
    ext = GrsSpec(field(7), tuple(range(7)), (1, 2, 3, 4, 5, 6, 1), 3, extended=True)
    for coeffs in product(range(7), repeat=3):
        f = Poly(ext.field, list(coeffs))
        assert ext.in_dual(f) == in_dual_direct(ext, f)
    assert len(calls) == 1
    assert tables == [(spec.field, spec.locators), (ext.field, ext.locators)]  # and for all 343


def test_in_dual_matches_direct_check_exhaustively():
    cases = [
        GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2),
        GrsSpec(F5, (1, 2, 4, 3), (1, 1, 1, 2), 2),
        GrsSpec(F5, (0, 2, 3), (2, 1, 3), 3),  # k = n edge
        GrsSpec(field(7), (0, 1, 2, 3, 4, 5), (1, 1, 1, 1, 3, 3), 2),
        GrsSpec(F5, tuple(range(5)), (1, 1, 1, 1, 2), 2, extended=True),
        GrsSpec(F5, tuple(range(5)), (1, 1, 2, 2, 2), 3, extended=True),
        # d = length - k = 1, so in_dual reads d_0 alone: 1 and 4 messages accepted
        GrsSpec(F5, tuple(range(5)), (1, 2, 3, 4, 1), 5, extended=True),
        GrsSpec(field(2, 2), tuple(range(4)), (1, 2, 3, 1), 4, extended=True),  # hull 1
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


@st.composite
def grs_specs(draw, orders=((2, 3), (3, 2), (5, 2), (3, 3))):
    """A GRS spec over one GF(p^e) of orders, by default GF(8), GF(9),
    GF(25) or GF(27), plain or extended."""
    F = field(*draw(st.sampled_from(orders)))
    q = F.q
    extended = draw(st.booleans())
    locs = draw(st.permutations(range(q)))
    if not extended:
        locs = locs[: draw(st.integers(2, q))]
    n = len(locs)
    # multipliers from {1, -1} give nonzero hulls, and so accepted messages, often
    units = draw(st.booleans())
    mult = st.sampled_from([1, F.neg(1)]) if units else st.integers(1, q - 1)
    mults = draw(st.lists(mult, min_size=n, max_size=n))
    k = draw(st.integers(1, min(n, 4)))
    return GrsSpec(F, tuple(locs), tuple(mults), k, extended=extended)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(grs_specs(orders=((5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3))))
def test_dual_spec_is_the_null_space(spec):
    # plain and extended specs alike: the dual spec spans the null space of
    # the generator, keeps the kind, and its own dual is the spec, exactly
    assume(spec.k < spec.length)
    dual_spec = spec.dual()
    assert dual_spec.extended == spec.extended
    assert dual_spec.k == spec.length - spec.k
    assert dual_spec.dual() == spec
    assert same_row_space(dual_spec.generator(), spec.generator().dual())


def hankel_hull(spec):
    """k - rank(G Gt) from the spec alone, on scalar field ops: G Gt is the
    Hankel matrix H[r][s] = h_(r+s) of the power sums h_m = sum v_i^2 a_i^m,
    m <= 2k - 2, with 1 added at (k - 1, k - 1) for an extended spec."""
    F, k = spec.field, spec.k
    h = [0] * (2 * k - 1)
    for a, v in zip(spec.locators, spec.multipliers):
        term = F.mul(v, v)
        for m in range(2 * k - 1):
            h[m], term = F.add(h[m], term), F.mul(term, a)
    H = [[h[r + s] for s in range(k)] for r in range(k)]
    if spec.extended:
        H[-1][-1] = F.add(H[-1][-1], 1)
    return k - rref_scalar(F, H)[1]


def test_hull_matches_the_hankel_matrix_of_the_spec():
    # a second hull oracle, which never forms G
    hulls = []

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(grs_specs(orders=((5, 1), (7, 1), (3, 2), (3, 3))))
    def check(spec):
        hulls.append(hankel_hull(spec))
        assert spec.generator().hull_dimension() == hulls[-1]

    check()
    # the sample is not all LCD: 56 of its 200 specs have a nonzero hull (up
    # to 4) under hypothesis 6.155
    assert sum(h > 0 for h in hulls) >= 25


def test_power_sums_give_the_gram_matrix_and_the_hull():
    # the Hankel matrix of _power_sums is G Gt from linear._product, entry for
    # entry, and GrsSpec.verdict's hull (k - min(L, 2k - L) from the linear
    # complexity L alone) is hankel_hull's, in characteristic 2 too
    hulls = []

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(grs_specs(orders=((2, 3), (5, 1), (3, 2), (5, 2), (3, 3))))
    def check(spec):
        F, k, G = spec.field, spec.k, spec._rows
        h = _proofs([spec])[0]
        assert [h[r : r + k] for r in range(k)] == linear._product(F, G, G.T).tolist()
        hulls.append(spec.verdict(comb(spec.length, k))["hull_dimension"])
        assert hulls[-1] == hankel_hull(spec)

    check()
    assert sum(h > 0 for h in hulls) >= 25
    # self-orthogonal RS codes, v = 1 on all of GF(q): every power sum h_m with
    # m < q - 1 is 0, so the Hankel matrix is 0 and the hull is k
    for F, k in ((field(5, 2), 5), (field(2, 3), 2), (field(3, 3), 13)):
        spec = GrsSpec(F, tuple(range(F.q)), (1,) * F.q, k)
        assert _proofs([spec])[0] == [0] * (2 * k - 1)
        assert spec.verdict(comb(F.q, k))["hull_dimension"] == k == hankel_hull(spec)
    # extended, with 2k - 2 < q - 1: the last column adds 1 at h_(2k-2), so
    # h = (0, .., 0, 1), L = 2k - 1 > k and the Hankel rank is 2k - L = 1
    for F, k in ((field(5, 2), 5), (field(2, 3), 2), (field(3, 3), 6), (field(7), 3)):
        spec = GrsSpec(F, tuple(range(F.q)), (1,) * F.q, k, extended=True)
        assert _proofs([spec])[0] == [0] * (2 * k - 2) + [1]
        hull = spec.verdict(comb(spec.length, k))["hull_dimension"]
        assert hull == k - 1 == hankel_hull(spec) == spec.generator().hull_dimension()


def test_spec_verdict_matches_the_generic_verdict_past_the_grid(monkeypatch):
    # GrsSpec.verdict's closed form (hull from the power sums, MDS and
    # d = n - k + 1 from the checked V diag(v)) against LinearCode.verdict,
    # which eliminates G Gt and weighs codewords (C's, or its dual's when
    # that side is cheaper) or decides column subsets: every k of each drawn
    # spec that a budget admits, at the default budget and at C(length, k),
    # which forces column subsets wherever q^k exceeds it
    verdicts, proven = [], {}

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(grs_specs(orders=((5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3))))
    def check(spec):
        for k in range(1, spec.n + 1):
            s = dataclasses.replace(spec, k=k)
            for budget in (linear.DEFAULT_BUDGET, comb(s.length, k)):
                try:
                    got = s.verdict(budget)
                except BudgetExceeded:
                    continue
                assert got == LinearCode(s.field, s._rows).verdict(budget), (s, budget)
                verdicts.append((got["mds_route"], 2 * k > s.length, got["hull_dimension"] > 0))
                proven.setdefault(budget, []).append((s, got))

    check()
    # each route meets rates above and below 1/2, LCD codes and nonzero hulls:
    # every one of the 8 kinds at least 50 times under hypothesis 6.155
    counts = Counter(verdicts)
    assert len(counts) == 8 and min(counts.values()) >= 50, counts
    # the same specs, unproven copies, proven as mixed batches, one a budget:
    # the default budget's batch mixes plain and extended specs, nonzero
    # hulls, GF(p) and GF(p^e) and locators 0. Each batch gives the verdicts
    # above, and leaves each spec the rows it checked, when a chunk takes a
    # field's run of specs up to BATCH_ENTRIES and when it is split across
    # smaller bounds, down to one spec a chunk
    batch = proven[linear.DEFAULT_BUDGET]
    assert {(s.extended, s.field.e > 1, got["hull_dimension"] > 0) for s, got in batch} == set(
        product((False, True), repeat=3)
    )
    assert any(0 in s.locators and not s.extended for s, _ in batch)
    proofs, chunks = lcdmds.grs._proofs, []
    monkeypatch.setattr(lcdmds.grs, "_proofs", lambda specs: chunks.append(len(specs)) or proofs(specs))
    sizes = []
    for bound in (linear.BATCH_ENTRIES, 256, 1):
        monkeypatch.setattr(linear, "BATCH_ENTRIES", bound)
        chunks.clear()
        for budget, pairs in proven.items():
            fresh = [dataclasses.replace(s) for s, _ in pairs]
            assert lcdmds.grs.verdicts(fresh, budget) == [got for _, got in pairs]
            assert all(np.array_equal(t.__dict__["_rows"], s._rows) for t, (s, _) in zip(fresh, pairs))
        sizes.append(len(chunks))
    assert sizes[0] < sizes[1] < sizes[2] == sum(map(len, proven.values())), sizes


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(grs_specs(), st.data())
def test_in_dual_matches_direct_check_in_extension_fields(spec, data):
    F = spec.field
    exhaustive = F.q**spec.k <= 100
    if exhaustive:
        messages = list(product(range(F.q), repeat=spec.k))
    else:
        coeff = st.integers(0, F.q - 1)
        messages = data.draw(st.lists(st.tuples(*[coeff] * spec.k), min_size=1, max_size=6))
    accepted = 0
    for coeffs in messages:
        f = Poly(F, coeffs)
        verdict = spec.in_dual(f)
        assert verdict == in_dual_direct(spec, f)
        accepted += verdict
    if exhaustive:  # every message: the accepted ones are the hull
        assert accepted == F.q ** spec.generator().hull_dimension()


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
        assert same_row_space(candidate, spec.generator().dual())
        assert same_row_space(candidate, spec.dual().generator())


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
                assert enumerated_min_distance(code) == spec.n - spec.k + 1
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
    # a malformed record raises ParameterError, as LinearCode.from_dict does
    no_locators = {key: value for key, value in spec.to_dict().items() if key != "locators"}
    for record in ({}, [], no_locators, {**spec.to_dict(), "locators": 5}):
        with pytest.raises(ParameterError, match="malformed spec"):
            GrsSpec.from_dict(record)


def test_spec_extended_must_be_a_json_bool():
    plain = GrsSpec(F5, (1, 2, 4, 3), (1, 1, 1, 2), 2)
    ext = GrsSpec(F5, tuple(range(5)), (1, 1, 2, 2, 2), 3, extended=True)
    record = plain.to_dict()
    del record["extended"]
    assert GrsSpec.from_dict(record) == plain  # an absent key means a plain spec
    full = {**ext.to_dict(), "extended": False}
    assert not GrsSpec.from_dict(full).extended
    # never coerced: "no" would be true under bool() and 0 false
    for spec, value in ((ext, "no"), (ext, 1), (plain, 0), (plain, None), (plain, "false")):
        with pytest.raises(ParameterError, match="extended must be true or false"):
            GrsSpec.from_dict({**spec.to_dict(), "extended": value})


def test_spec_checks_k_and_extended_when_made():
    # the rules live in GrsSpec itself, so a spec made in code meets the same
    # ones as a JSON record
    locs, mults = tuple(range(5)), (1, 1, 2, 2, 2)
    for k in (2.0, True, "2"):
        with pytest.raises(ParameterError, match="k must be an integer"):
            GrsSpec(F5, locs, mults, k)
    for extended in (1, "yes"):
        with pytest.raises(ParameterError, match="extended must be true or false"):
            GrsSpec(F5, locs, mults, 3, extended=extended)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(grs_specs(orders=((5, 1), (7, 1), (2, 3), (3, 2), (3, 3))))
def test_valid_specs_round_trip_through_their_records(spec):
    for s in (spec, spec.dual()) if spec.k < spec.length else (spec,):
        record = json.loads(json.dumps(s.to_dict()))
        assert GrsSpec.from_dict(record) == s
