import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_min_distance,
    min_distance_by_columns,
    random_full_rank_code,
    subsets_nonsingular_scalar,
)
from lcdmds import (
    BudgetExceeded,
    FieldMismatch,
    GrsSpec,
    LinearCode,
    ParameterError,
    field,
    rref,
)
from lcdmds.linear import SUBSET_BATCH_ENTRIES, mds_route

F5 = field(5)


def test_rref_examples():
    rows, rank, pivots = rref(F5, [[2, 4], [1, 2]])
    assert rank == 1
    assert rows == ((1, 2), (0, 0))
    assert pivots == (0,)

    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rows, rank, _ = rref(F5, ident)
    assert rank == 3 and rows == tuple(tuple(r) for r in ident)

    rows, rank, _ = rref(F5, [[0, 0, 0, 0], [0, 0, 0, 0]])
    assert rank == 0


def test_rref_rejects_ragged_and_mixed():
    with pytest.raises(ParameterError):
        rref(F5, [[1, 2], [1]])
    with pytest.raises(ParameterError):
        rref(F5, [[1, 7]])


def test_generator_must_have_full_rank():
    with pytest.raises(ParameterError, match="dependent"):
        LinearCode(F5, [[2, 4], [1, 2]])
    with pytest.raises(ParameterError, match="length"):
        LinearCode(F5, [], n=None)


def test_dual_examples():
    full = LinearCode(F5, [[1, 0], [0, 1]])
    assert full.dual().k == 0

    line = LinearCode(F5, [[1, 1]])
    assert line.dual().gen == ((1, 4),)

    spec = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    assert spec.generator().dual().same_row_space(spec.dual().generator())


def test_dual_of_dual_spans_the_code():
    rng = random.Random(11)
    for F in (field(5), field(7), field(3, 2)):
        for _ in range(10):
            n = rng.randint(2, 6)
            k = rng.randint(1, n)
            code = random_full_rank_code(F, n, k, rng)
            assert code.dual().dual().same_row_space(code)


def test_dual_of_zero_dimensional_code_is_full_space():
    zero = LinearCode(F5, [], n=3)
    assert zero.k == 0 and zero.n == 3
    full = zero.dual()
    assert full.k == 3
    assert zero.hull_dimension() == 0


def test_intersection_examples():
    c = LinearCode(F5, [[1, 0, 2], [0, 1, 3]])
    assert c.intersection_dim(c) == 2
    a = LinearCode(F5, [[1, 0]])
    b = LinearCode(F5, [[0, 1]])
    assert a.intersection_dim(b) == 0


def test_intersection_rejects_mismatches():
    with pytest.raises(FieldMismatch):
        LinearCode(F5, [[1, 1]]).intersection_dim(LinearCode(field(7), [[1, 1]]))
    with pytest.raises(ParameterError, match="length"):
        LinearCode(F5, [[1, 1]]).intersection_dim(LinearCode(F5, [[1, 1, 1]]))


def test_hull_examples():
    assert LinearCode(F5, [[1, 2]]).hull_dimension() == 1  # 1 + 4 = 0
    assert LinearCode(F5, [[1, 1]]).hull_dimension() == 0  # 1 + 1 = 2
    assert LinearCode(F5, [[1, 2]]).is_lcd() is False
    assert LinearCode(F5, [[1, 1]]).is_lcd() is True


def test_lcd_construction_instance():
    spec = GrsSpec(F5, (1, 2, 4, 3), (1, 1, 1, 2), 2)
    assert spec.generator().is_lcd()


def test_hull_equals_intersection_oracle():
    rng = random.Random(42)
    fields = [field(5), field(7), field(3, 2)]
    for i in range(200):
        F = fields[i % 3]
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        code = random_full_rank_code(F, n, k, rng)
        assert code.hull_dimension() == code.intersection_dim(code.dual())


def test_hull_of_dual_matches():
    rng = random.Random(3)
    for _ in range(30):
        F = field(7)
        n = rng.randint(2, 6)
        code = random_full_rank_code(F, n, rng.randint(1, n), rng)
        assert code.hull_dimension() == code.dual().hull_dimension()


def test_minimum_distance_examples():
    assert LinearCode(F5, [[1, 1, 1]]).minimum_distance() == 3
    assert LinearCode(F5, [[1, 0], [0, 1]]).minimum_distance() == 1
    grs = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2).generator()
    assert grs.minimum_distance() == 3
    assert brute_min_distance(grs) == 3


def test_minimum_distance_matches_bruteforce_random():
    rng = random.Random(77)
    for F in (field(3), field(5), field(3, 2)):
        for _ in range(12):
            n = rng.randint(2, 6)
            k = rng.randint(1, min(3, n))
            code = random_full_rank_code(F, n, k, rng)
            assert code.minimum_distance() == brute_min_distance(code)


def test_minimum_distance_kernel_cases():
    """The projective enumeration against the pure-Python references.

    The kernel weighs one codeword per projective point, row by row from the
    last; these cases need every row's branch, including the last.
    """
    rng = random.Random(5)
    codes = []
    # k <= 2 on GF(2), GF(2^3), GF(27) and GF(3^7); k = 1 on GF(127^2)
    for F, max_k in ((field(2), 2), (field(2, 3), 2), (field(3, 3), 2),
                     (field(3, 7), 2), (field(127, 2), 1)):
        for _ in range(4):
            n = rng.randint(1, 6)
            k = rng.randint(1, min(max_k, n))
            codes.append(random_full_rank_code(F, n, k, rng))
    for F in (field(5), field(3, 2)):
        # k = 1, k = n, a zero column, and a generator not in RREF
        codes += [
            random_full_rank_code(F, 5, 1, rng),
            random_full_rank_code(F, 4, 4, rng),
            LinearCode(F, [[1, 0, 2, 0], [0, 1, 1, 0]]),
            LinearCode(F, [[0, 1, 1, 1, 1], [1, 0, 0, 0, 1], [1, 1, 0, 0, 0]]),
        ]
        # the weight-1 words are multiples of row r alone, and the message
        # of each has its first nonzero entry at r; the rest weigh >= 4
        rs = GrsSpec(F, (0, 1, 2, 3, 4), (1,) * 5, 2).generator().gen
        for r in range(3):
            rows = [row + (0,) for row in rs]
            rows.insert(r, (0,) * 5 + (1,))
            code = LinearCode(F, rows)
            assert code.minimum_distance() == 1
            codes.append(code)
    for code in codes:
        d = code.minimum_distance(budget=code.field.q**code.k)
        if code.field.q**code.k <= 20_000:
            assert d == brute_min_distance(code), code.gen
        if code.k <= 2:
            assert d == min_distance_by_columns(code), code.gen


FIELDS = [field(2), field(3), field(2, 2), field(5), field(2, 3), field(7),
          field(3, 2), field(3, 3), field(3, 7), field(127, 2)]


@st.composite
def small_codes(draw):
    F = draw(st.sampled_from(FIELDS))
    # q^k small enough for brute force, or k <= 2 for the column reference
    max_k = 3 if F.q**3 <= 2500 else 2
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(n, max_k)))
    gen = draw(st.lists(st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n),
                        min_size=k, max_size=k))
    try:
        code = LinearCode(F, gen)
    except ParameterError:
        assume(False)
    r = draw(st.integers(0, k - 1))
    c = draw(st.integers(1, F.q - 1))
    return code, r, c


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(small_codes())
def test_minimum_distance_property(case):
    code, r, c = case
    F, budget = code.field, code.field.q**code.k
    d = code.minimum_distance(budget=budget)
    if budget <= 2500:
        assert d == brute_min_distance(code)
    if code.k <= 2:
        assert d == min_distance_by_columns(code)
    # scaling a generator row by a nonzero c changes no codeword's weight
    rows = [list(row) for row in code.gen]
    rows[r] = [F.mul(c, x) for x in rows[r]]
    assert LinearCode(F, rows).minimum_distance(budget=budget) == d


def test_minimum_distance_budget():
    code = GrsSpec(field(3, 2), tuple(range(9)), (1,) * 9, 4).generator()
    with pytest.raises(BudgetExceeded):
        code.minimum_distance(budget=10)
    with pytest.raises(ParameterError):
        LinearCode(F5, [], n=2).minimum_distance()


def test_is_mds_examples():
    grs = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2).generator()
    assert grs.is_mds()
    assert grs.mds_by_column_subsets()
    bad = LinearCode(F5, [[1, 1, 0], [0, 0, 1]])
    assert bad.minimum_distance() == 1
    assert not bad.is_mds()
    assert not bad.mds_by_column_subsets()


def test_mds_routes_agree():
    rng = random.Random(13)
    for _ in range(25):
        F = field(7)
        n = rng.randint(3, 7)
        k = rng.randint(2, n - 1)
        code = random_full_rank_code(F, n, k, rng)
        enum_verdict = code.minimum_distance() == n - k + 1
        assert enum_verdict == code.mds_by_column_subsets()
        assert enum_verdict == subsets_nonsingular_scalar(code)

    # The batched kernel against the scalar reference, and against
    # enumeration where it fits: prime and extension fields (GF(3^7) has
    # q > 512), random, GRS and equal-column codes, k = 1 and k = n.
    codes = []
    for F, max_n in ((field(7), 8), (field(3, 2), 9), (field(3, 3), 10), (field(3, 7), 9)):
        for _ in range(6):
            n = rng.randint(2, max_n)
            k = rng.randint(1, n - 1)
            locs = tuple(rng.sample(range(F.q), n))
            mults = tuple(rng.randrange(1, F.q) for _ in range(n))
            grs = GrsSpec(F, locs, mults, k).generator()
            copied = [row + (row[rng.randrange(n)],) for row in grs.gen]
            codes += [
                random_full_rank_code(F, n, k, rng),
                random_full_rank_code(F, n, 1, rng),
                random_full_rank_code(F, n, n, rng),
                grs,
                LinearCode(F, copied),
            ]
    # A copy of the last column of an MDS code: the only singular subset is
    # the last of C(101, 2) = 5050, past the first batch.
    grs = GrsSpec(field(3, 5), tuple(range(100)), (1,) * 100, 2).generator()
    codes.append(LinearCode(grs.field, [row + (row[-1],) for row in grs.gen]))
    # C(n, 1) is one more than the batch size: the last subset is a batch of
    # its own, singular or not.
    n = SUBSET_BATCH_ENTRIES + 1
    codes += [LinearCode(F5, [[1] * n]), LinearCode(F5, [[1] * (n - 1) + [0]])]
    verdicts = set()
    for code in codes:
        verdict = code.mds_by_column_subsets()
        assert verdict == subsets_nonsingular_scalar(code)
        if code.field.q**code.k <= 20_000:
            assert verdict == (code.minimum_distance() == code.n - code.k + 1)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_mds_check_routes_and_budget():
    code = GrsSpec(field(3, 2), tuple(range(9)), (1,) * 9, 4).generator()
    ok, route, dist = code.mds_check()  # 9^4 = 6561 fits the default budget
    assert ok and route == "enumeration" and dist == 6
    ok, route, dist = code.mds_check(budget=5000)  # 6561 > 5000 >= C(9,4): subset route
    assert ok and route == "column_subsets" and dist is None
    with pytest.raises(BudgetExceeded):
        code.mds_check(budget=1)


def test_budget_is_checked_before_the_hull(monkeypatch):
    code = GrsSpec(field(3, 2), tuple(range(9)), (1,) * 9, 4).generator()

    def no_hull(self):
        raise AssertionError("hull computed before the budget check")

    monkeypatch.setattr(LinearCode, "hull_dimension", no_hull)
    with pytest.raises(BudgetExceeded, match="MDS check"):
        code.verdict(budget=100)


def test_mds_route_and_budget_message():
    assert mds_route(9, 9, 4, 10**6) == "enumeration"
    assert mds_route(9, 9, 4, 5000) == "column_subsets"
    with pytest.raises(BudgetExceeded) as small:
        mds_route(9, 9, 4, 100)
    assert str(small.value) == (
        "MDS check: neither 6561 codewords nor 126 column subsets fit the budget 100"
    )
    # amounts over 12 digits are written as an expression and a magnitude
    with pytest.raises(BudgetExceeded) as big:
        mds_route(243, 244, 100, 20_000)
    assert str(big.value) == (
        "MDS check: neither 243^100 (~3.6e238) codewords nor "
        "C(244, 100) (~2.7e70) column subsets fit the budget 20000"
    )
    with pytest.raises(BudgetExceeded, match=r"65521\^1000 \(~2\.4e4816\)"):
        mds_route(65521, 1001, 1000, 10)
    with pytest.raises(ParameterError, match="zero-dimensional"):
        mds_route(9, 9, 0, 10**6)


def test_minimum_distance_budget_message_is_short():
    F = field(3, 7)
    code = LinearCode(F, [[int(i == j) for j in range(4)] + [1, i + 2] for i in range(4)])
    # budget 10: neither route fits; budget 100: C(6, 4) = 15 fits, enumeration does not
    for budget, where in ((10, "MDS check"), (100, "minimum distance")):
        with pytest.raises(BudgetExceeded, match=where) as exc:
            code.minimum_distance(budget)
        assert "2187^4 (~2.3e13)" in str(exc.value)
        assert not re.search(r"\d{13}", str(exc.value))


def test_code_serialization_roundtrip():
    code = GrsSpec(F5, (0, 1, 2, 3), (1, 2, 3, 4), 2).generator()
    other = LinearCode.from_dict(code.to_dict())
    assert other.gen == code.gen and other.field == code.field
