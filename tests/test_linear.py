import random

import pytest

from conftest import brute_min_distance, random_full_rank_code, subsets_nonsingular_scalar
from lcdmds import (
    BudgetExceeded,
    FieldMismatch,
    GrsSpec,
    LinearCode,
    ParameterError,
    field,
    rref,
)
from lcdmds.linear import SUBSET_BATCH_ENTRIES

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
    with pytest.raises(BudgetExceeded):
        code.mds_by_column_subsets(max_subsets=10)


def test_code_serialization_roundtrip():
    code = GrsSpec(F5, (0, 1, 2, 3), (1, 2, 3, 4), 2).generator()
    other = LinearCode.from_dict(code.to_dict())
    assert other.gen == code.gen and other.field == code.field
