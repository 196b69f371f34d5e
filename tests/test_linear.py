import random
import re
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lcdmds
from conftest import (
    brute_min_distance,
    enumerated_min_distance,
    intersection_dim,
    mat_mul_scalar,
    min_distance_by_columns,
    random_full_rank_code,
    rref_scalar,
    same_row_space,
    subsets_nonsingular_scalar,
)
from lcdmds import (
    BudgetExceeded,
    Field,
    GrsSpec,
    LinearCode,
    ParameterError,
    field,
    field_from_order,
    rref,
)
from lcdmds import linear
from lcdmds.linear import BATCH_ENTRIES, mds_route

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


ARRAY_FIELDS = [(2, 1), (7, 1), (3, 2), (3, 3), (3, 7), (127, 2), (65521, 1)]


def test_rref_and_mat_mul_match_scalar_references():
    rng = random.Random(2024)
    for p, e in ARRAY_FIELDS:
        F = field(p, e)
        nz = [x for x in (1, 2, F.q - 1, rng.randrange(1, F.q)) if x < F.q]
        matrices = [
            [],
            [[]],
            [[0, 0, 0], [0, 0, 0]],  # zero rows only
            [[0, 0, 0, 0], [nz[-1], 0, nz[0], 0], [0, 0, 0, 0]],  # zero rows between
            [[nz[0], nz[-1], 0]],  # 1 x n
            [[x] for x in nz] + [[0]],  # more rows than columns
            # wide and of full rank: every pivot is found well before the last column
            [[nz[0]] + [rng.randrange(F.q) for _ in range(49)]],
            [[int(i + j == 2) for j in range(3)] + [rng.randrange(F.q) for _ in range(37)]
             for i in range(3)],
        ]
        for _ in range(40):
            rows, cols = rng.randint(1, 7), rng.randint(1, 9)
            density = rng.choice((0.2, 0.6, 1.0))
            M = [
                [rng.randrange(F.q) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            if rows > 1:  # rank-deficient: a multiple of one row, a sum of two
                M[-1] = [F.mul(nz[-1], x) for x in M[0]]
                M.append([F.add(x, y) for x, y in zip(M[0], M[1])])
            matrices.append(M)
        for M in matrices:
            assert rref(F, M) == rref_scalar(F, M), (F, M)
            width = rng.randint(1, 5)
            inner = len(M[0]) if M else 0
            B = [[rng.randrange(F.q) for _ in range(width)] for _ in range(inner)]
            for other in (B, [list(c) for c in zip(*M)]):
                if M and other:
                    a, b = (np.array(X, dtype=np.int64) for X in (M, other))
                    product = linear._product(F, a, b).tolist()
                    assert product == mat_mul_scalar(F, M, other), (F, M, other)


@pytest.mark.parametrize("batch", [1, 7, 50])
def test_extension_products_go_in_bounded_chunks(monkeypatch, batch):
    # LinearCode forms G Gt before any budget check, so a long file must not
    # make a (k, n, k) temporary at once
    F = field(3, 3)
    rng = random.Random(batch)
    monkeypatch.setattr(linear, "BATCH_ENTRIES", batch)
    sizes = []
    mul = type(F.arrays).mul
    counted = lambda s, x, y: sizes.append(np.broadcast(x, y).size) or mul(s, x, y)  # noqa: E731
    monkeypatch.setattr(type(F.arrays), "mul", counted)
    for k, n, m in [(0, 3, 2), (1, 1, 1), (5, 4, 3), (9, 2, 6), (12, 6, 12)]:
        A = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        B = [[rng.randrange(F.q) for _ in range(m)] for _ in range(n)]
        a, b = np.array(A, dtype=np.int64).reshape(k, n), np.array(B, dtype=np.int64)
        assert linear._product(F, a, b).tolist() == mat_mul_scalar(F, A, B)
        assert max(sizes) <= max(batch, n * m)
        sizes.clear()


def test_generator_must_have_full_rank():
    with pytest.raises(ParameterError, match="dependent"):
        LinearCode(F5, [[2, 4], [1, 2]])
    with pytest.raises(ParameterError, match="length"):
        LinearCode(F5, [], n=None)
    with pytest.raises(ParameterError, match="code length must be positive"):
        LinearCode(F5, [], n=0)


def test_dual_examples():
    full = LinearCode(F5, [[1, 0], [0, 1]])
    assert full.dual().k == 0

    line = LinearCode(F5, [[1, 1]])
    assert line.dual().gen == ((1, 4),)

    spec = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    assert same_row_space(spec.generator().dual(), spec.dual().generator())


def test_dual_of_dual_spans_the_code():
    rng = random.Random(11)
    for F in (field(5), field(7), field(3, 2)):
        for _ in range(10):
            n = rng.randint(2, 6)
            k = rng.randint(1, n)
            code = random_full_rank_code(F, n, k, rng)
            assert same_row_space(code.dual().dual(), code)


def test_dual_of_zero_dimensional_code_is_full_space():
    zero = LinearCode(F5, [], n=3)
    assert zero.k == 0 and zero.n == 3
    full = zero.dual()
    assert full.k == 3
    assert zero.hull_dimension() == 0


def test_intersection_examples():
    c = LinearCode(F5, [[1, 0, 2], [0, 1, 3]])
    assert intersection_dim(c, c) == 2
    a = LinearCode(F5, [[1, 0]])
    b = LinearCode(F5, [[0, 1]])
    assert intersection_dim(a, b) == 0


def test_hull_examples():
    assert LinearCode(F5, [[1, 2]]).hull_dimension() == 1  # 1 + 4 = 0
    assert LinearCode(F5, [[1, 1]]).hull_dimension() == 0  # 1 + 1 = 2
    assert LinearCode(F5, [[1, 2]]).is_lcd() is False
    assert LinearCode(F5, [[1, 1]]).is_lcd() is True


def test_lcd_construction_instance():
    spec = GrsSpec(F5, (1, 2, 4, 3), (1, 1, 1, 2), 2)
    assert spec.generator().is_lcd()


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.sampled_from([(3, 3), (3, 7), (127, 2), (65521, 1)]), st.integers(2, 8), st.data())
def test_monomial_maps_preserve_hull_and_mds(pe, n, data):
    # Permuting coordinates and scaling them by +-1 leaves G Gt unchanged, so
    # the hull (Massey 1992: LCD iff G Gt is nonsingular) and MDS must hold.
    # Half the codes draw from {0, 1, -1}, where hulls and non-MDS are common.
    F = field(*pe)
    k = data.draw(st.integers(1, n - 1))
    alphabet = data.draw(st.sampled_from([range(F.q), (0, 1, F.neg(1))]))
    row = st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)
    gen = data.draw(st.lists(row, min_size=k, max_size=k))
    assume(rref(F, gen)[1] == k)
    code = LinearCode(F, gen)
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from([1, F.neg(1)]), min_size=n, max_size=n))
    image = LinearCode(F, [[F.mul(s, g[j]) for s, j in zip(signs, perm)] for g in gen])
    assert image.hull_dimension() == code.hull_dimension()
    assert image.mds_check()[0] == code.mds_check()[0]


def test_elements_are_checked_once_at_the_boundary(monkeypatch):
    F = field(3, 5)
    gen = GrsSpec(F, tuple(range(20)), (1,) * 20, 5).generator().gen
    calls = []
    check = Field.check
    monkeypatch.setattr(Field, "check", lambda self, a: calls.append(a) or check(self, a))
    code = LinearCode(F, gen)
    assert len(calls) == 5 * 20
    calls.clear()
    code.hull_dimension()
    code._mds_by_column_subsets()
    assert calls == []
    # the public functions still check every element they are given
    rref(F, gen)
    assert len(calls) == 5 * 20


def test_one_elimination_per_code(monkeypatch):
    # the hull comes from one k x k RREF of G Gt; a nonsingular G Gt proves
    # the rows independent, and only a singular one row-reduces G as well
    F = field(3, 3)
    gen = GrsSpec(F, tuple(range(1, 10)), tuple(range(2, 11)), 4).generator().gen
    # a self-orthogonal [27, 3] RS code: G Gt is zero, and G has full rank
    rs = GrsSpec(F, tuple(range(27)), (1,) * 27, 3).generator().gen
    calls = []
    real = linear._rref
    monkeypatch.setattr(linear, "_rref", lambda f, A: calls.append(A.shape) or real(f, A))
    code = LinearCode(F, gen)
    assert calls == [(4, 4)] and code.is_lcd()
    calls.clear()
    code.hull_dimension(), code.is_lcd()
    # 27^4 codewords fit the default budget, C(9, 4) = 126 subsets fit 200;
    # the column-subset route row-reduces G once, for its GRS certificate
    assert code.verdict()["mds_route"] == "enumeration"
    assert calls == []
    assert code.verdict(budget=200)["mds_route"] == "column_subsets"
    assert calls == [(4, 9)]
    calls.clear()
    # full rank with a singular G Gt, [1, 2] over GF(5) and the RS code,
    # makes a (k, k) and then a (k, n) call
    for F_, gen, hull in ((F5, [[1, 2]], 1), (F, rs, 3)):
        code = LinearCode(F_, gen)
        k, n = code.k, code.n
        assert calls == [(k, k), (k, n)] and code.hull_dimension() == hull
        calls.clear()
        code.hull_dimension(), code.is_lcd(), code.verdict()
        assert calls == []
    # a dependent generator makes the same two calls and then raises
    with pytest.raises(ParameterError, match="dependent"):
        LinearCode(F5, [[1, 2, 3], [2, 4, 1]])
    assert calls == [(2, 2), (2, 3)]


def seeded_10_7():
    """[I | random nonzero] as a [10, 7] code over GF(3^10), seeded: MDS and
    LCD, yet not GRS, so the certificate declines it and, as 2k > n, the walk
    runs on its dual side."""
    rng = random.Random(1)
    return LinearCode(field(3, 10), [[int(i == j) for j in range(7)] +
                                     [rng.randrange(1, 59049) for _ in range(3)] for i in range(7)])


def rs_25_5():
    """The RS [25, 5] code over GF(25) on every locator, multipliers 1: self-
    orthogonal (G Gt = 0, hull 5), so its rank check reads the RREF of G."""
    return GrsSpec(field(5, 2), tuple(range(25)), (1,) * 25, 5).generator()


@pytest.mark.parametrize("make, budget, hull, certified", [
    (lambda: GrsSpec(field(3, 3), tuple(range(1, 10)), tuple(range(2, 11)), 4).generator(), 200, 0, True),
    (seeded_10_7, 200, 0, None),
    (rs_25_5, 53130, 5, True),
], ids=["grs-[9,4]", "seeded-[10,7]", "rs-[25,5]"])
def test_one_echelon_form_per_code(monkeypatch, make, budget, hull, certified):
    # the rank check, the certificate, the walk's dual side and dual() all
    # read one RREF of G: one (k, n) elimination over the code's whole life;
    # and dual() hands the dual its RREF, so one (n - k, n) elimination makes
    # it, even when its hull is nonzero and its rank check reads that RREF
    calls = []
    real = linear._rref
    monkeypatch.setattr(linear, "_rref", lambda f, A: calls.append(A.shape) or real(f, A))
    code = make()
    for _ in range(2):
        assert code.verdict(budget=budget) == {"hull_dimension": hull, "is_lcd": hull == 0, "is_mds": True,
                                               "mds_route": "column_subsets", "min_distance": None}
    assert code._grs_certificate() is certified and code._mds_by_column_subsets()
    dual = code.dual()
    assert (dual.n, dual.k, dual.hull_dimension()) == (code.n, code.n - code.k, hull)
    assert calls.count((code.k, code.n)) == 1 and calls.count((code.n - code.k, code.n)) == 1
    assert not code._echelon[0].flags.writeable and not dual._echelon[0].flags.writeable


def _random_invertible(F, k, rng):
    while True:
        T = [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)]
        if rref_scalar(F, T)[1] == k:
            return T


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from([(7, 1), (3, 3), (3, 5)]), st.integers(0, 2**32), st.data())
def test_stored_hull_matches_scalar_gram_rank(pe, seed, data):
    F, rng = field(*pe), random.Random(seed)
    kind = data.draw(st.sampled_from(["lcd", "rs", "grs", "signs", "zero", "full"]))
    if kind == "lcd":
        n = data.draw(st.integers(4, min(F.q + 1, 12)))
        k = data.draw(st.integers(2, n // 2))
        assume(lcdmds.applicable_conditions(F, n, k))
        code = lcdmds.construct_auto(F, n, k).spec.generator()
    elif kind == "rs":
        # all q locators and one multiplier: the dual is the RS code of
        # dimension q - k, so the hull has dimension min(k, q - k); k <= q / 2
        # gives a self-orthogonal code, G Gt = 0
        k = data.draw(st.integers(1, min(F.q, 12)))
        code = GrsSpec(F, tuple(range(F.q)), (rng.randrange(1, F.q),) * F.q, k).generator()
        assert code.hull_dimension() == min(k, F.q - k)
    elif kind == "grs":
        n = data.draw(st.integers(1, min(F.q, 10)))
        k = data.draw(st.integers(1, n))
        multipliers = tuple(rng.randrange(1, F.q) for _ in range(n))
        code = GrsSpec(F, tuple(rng.sample(range(F.q), n)), multipliers, k).generator()
    elif kind == "signs":  # entries in {0, 1, -1}, where hulls of every dimension occur
        n = data.draw(st.integers(2, 8))
        k = data.draw(st.integers(1, n))
        gen = [[rng.choice((0, 1, F.neg(1))) for _ in range(n)] for _ in range(k)]
        assume(rref_scalar(F, gen)[1] == k)
        code = LinearCode(F, gen)
    elif kind == "zero":
        code = LinearCode(F, [], n=data.draw(st.integers(1, 6)))
        assert code.hull_dimension() == 0
    else:  # the full space: G is invertible, so G Gt is too
        n = data.draw(st.integers(1, 6))
        code = LinearCode(F, _random_invertible(F, n, rng))
        assert code.hull_dimension() == 0
    codes = [code]
    if code.k:  # T G spans the same code, and T G (T G)t = T (G Gt) Tt
        T = _random_invertible(F, code.k, rng)
        codes.append(LinearCode(F, mat_mul_scalar(F, T, code.gen)))
    for c in codes:
        gram = mat_mul_scalar(F, c.gen, list(zip(*c.gen)))
        assert c.hull_dimension() == c.k - rref_scalar(F, gram)[1] == code.hull_dimension()


def test_array_generators_are_checked_once_and_copied():
    F = field(3, 3)
    given_ = GrsSpec(F, tuple(range(1, 9)), (1,) * 8, 3).generator().array.copy()
    code = LinearCode(F, given_)
    gen, verdict = code.gen, code.verdict()
    assert code.array is not given_ and not code.array.flags.writeable
    given_[:] = 0  # the caller's array is theirs to change
    assert code.gen == gen and code.verdict() == verdict and code.array.any()
    assert LinearCode(F, given_[:0], n=8).k == 0
    with pytest.raises(ParameterError, match="dependent"):
        LinearCode(F, given_)
    bad = [
        given_.astype(np.float64),
        given_.astype(bool),
        given_.astype(object),
        given_.astype(np.int32),
        given_[0],
        given_[None],
        np.full((2, 3), -1, dtype=np.int64),
        np.full((2, 3), F.q, dtype=np.int64),
        "not a matrix",
        5,
        {1: [1, 2]},
    ]
    for gen in bad:
        with pytest.raises(ParameterError):
            LinearCode(F, gen)


def test_explicit_length_must_be_an_integer():
    # int(n) would read 3.7 as 3 and True as 1
    for n in (3.7, True, 3.0, "3"):
        with pytest.raises(ParameterError, match="n must be an integer"):
            LinearCode(F5, [], n=n)
        with pytest.raises(ParameterError, match="n must be an integer"):
            LinearCode(F5, [[1, 2, 3]], n=n)
    assert LinearCode(F5, [], n=3).n == LinearCode(F5, [[1, 2, 3]], n=3).n == 3


def test_hull_equals_intersection_oracle():
    rng = random.Random(42)
    fields = [field(5), field(7), field(3, 2)]
    for i in range(200):
        F = fields[i % 3]
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        code = random_full_rank_code(F, n, k, rng)
        assert code.hull_dimension() == intersection_dim(code, code.dual())


@pytest.mark.parametrize("pe", [(3, 5), (3, 7)])
def test_fast_routes_match_scalar_references_on_large_extension_fields(pe):
    # the Zech path of the elimination step, whose indices run over the whole
    # doubled table: seeded GRS codes, one-entry perturbations of them and
    # random codes, all [<= 12, <= 6]
    F = field(*pe)
    rng = random.Random(sum(pe))
    codes = []
    for _ in range(16):
        n = rng.randint(2, 12)
        k = rng.randint(1, min(n - 1, 6))
        locators = tuple(rng.sample(range(F.q), n))
        spec = GrsSpec(F, locators, tuple(rng.randrange(1, F.q) for _ in range(n)), k)
        gen = [list(row) for row in spec.generator().gen]
        perturbed = [row[:] for row in gen]
        i, j = rng.randrange(k), rng.randrange(n)
        perturbed[i][j] = rng.choice([0, rng.randrange(F.q)])
        random_gen = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        codes += [gen, perturbed, random_gen]
    verdicts = set()
    for gen in codes:
        assert rref(F, gen) == rref_scalar(F, gen)
        try:
            code = LinearCode(F, gen)
        except ParameterError:
            continue
        gram = mat_mul_scalar(F, code.gen, list(zip(*code.gen)))
        assert code.hull_dimension() == code.k - rref_scalar(F, gram)[1]
        expected = subsets_nonsingular_scalar(code)
        for entries in (BATCH_ENTRIES, 1):
            with mock.patch.object(linear, "BATCH_ENTRIES", entries):
                assert code._mds_by_column_subsets() == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_hull_of_dual_matches():
    rng = random.Random(3)
    for _ in range(30):
        F = field(7)
        n = rng.randint(2, 6)
        code = random_full_rank_code(F, n, rng.randint(1, n), rng)
        assert code.hull_dimension() == code.dual().hull_dimension()


def test_minimum_distance_examples():
    assert enumerated_min_distance(LinearCode(F5, [[1, 1, 1]])) == 3
    assert enumerated_min_distance(LinearCode(F5, [[1, 0], [0, 1]])) == 1
    grs = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2).generator()
    assert enumerated_min_distance(grs) == 3
    assert brute_min_distance(grs) == 3


def test_minimum_distance_matches_bruteforce_random():
    rng = random.Random(77)
    for F in (field(3), field(5), field(3, 2)):
        for _ in range(12):
            n = rng.randint(2, 6)
            k = rng.randint(1, min(3, n))
            code = random_full_rank_code(F, n, k, rng)
            assert enumerated_min_distance(code) == brute_min_distance(code)


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
            assert enumerated_min_distance(code) == 1
            codes.append(code)
    # k = 1 over the largest fields, with zero entries: d counts the nonzero ones
    for F in (field(2, 16), field(65521)):
        for n in (7, 300):
            row = [rng.randrange(F.q) if rng.random() < 0.8 else 0 for _ in range(n)]
            row[0] = row[0] or 1
            code = LinearCode(F, [row])
            assert enumerated_min_distance(code) == n - row.count(0)
            codes.append(code)
    for code in codes:
        d = enumerated_min_distance(code)
        if code.field.q**code.k <= 20_000:
            assert d == brute_min_distance(code), code.gen
        if code.k <= 2:
            assert d == min_distance_by_columns(code), code.gen


@pytest.mark.parametrize("pe, n, k, entries, held", [
    ((2, 16), 300, 1, BATCH_ENTRIES, 0),
    ((7, 1), 12, 3, BATCH_ENTRIES, 2),
    ((7, 1), 12, 4, 1, 1),
    ((997, 1), 3000, 2, BATCH_ENTRIES, 0),
], ids=["pe0-300-1", "pe1-12-3", "pe2-12-4-bound-256", "pe3-3000-2"])
def test_enumeration_builds_multiples_of_rows_below_the_first_only(monkeypatch, pe, n, k, entries, held):
    # only the last `held` rows, those the span holds, get an (n, q) array
    # of multiples: not row 0, nor a k = 1 code, nor a row whose multiples
    # would take the span past the bound, as 12 x 7^2 entries do past 256
    # (BATCH_ENTRIES = 1) and 3000 x 997 past 2^21; the other rows' targets
    # are n-vectors
    F = field(*pe)
    code = random_full_rank_code(F, n, k, random.Random(n))
    sizes = []
    mul = type(F.arrays).mul
    counted = lambda s, x, y: sizes.append(np.broadcast(x, y).size) or mul(s, x, y)  # noqa: E731
    monkeypatch.setattr(type(F.arrays), "mul", counted)
    monkeypatch.setattr(linear, "BATCH_ENTRIES", entries)
    d = linear._enumerate_min_weight(code.field, code.array)
    assert max(sizes, default=0) == held * n * F.q
    monkeypatch.undo()
    assert d == (min_distance_by_columns(code) if k <= 2 else brute_min_distance(code))


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
    F = code.field
    d = enumerated_min_distance(code)
    if F.q**code.k <= 2500:
        assert d == brute_min_distance(code)
    if code.k <= 2:
        assert d == min_distance_by_columns(code)
    # scaling a generator row by a nonzero c changes no codeword's weight
    rows = [list(row) for row in code.gen]
    rows[r] = [F.mul(c, x) for x in rows[r]]
    assert enumerated_min_distance(LinearCode(F, rows)) == d


@st.composite
def enumeration_codes(draw):
    # k >= 2, so the span can stop before row 0, and q^k <= 2,500 for the
    # brute-force reference
    F = draw(st.sampled_from([F for F in FIELDS if F.q <= 50]))
    n = draw(st.integers(2, 12))
    k = draw(st.integers(2, min(n, max(m for m in range(1, 12) if F.q**m <= 2500))))
    gen = draw(st.lists(st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n),
                        min_size=k, max_size=k))
    try:
        return LinearCode(F, gen)
    except ParameterError:
        assume(False)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(enumeration_codes(), st.sampled_from([1, 0]))
def test_enumeration_in_blocks_matches_bruteforce(code, entries):
    # a bound of 0 entries keeps the span at the zero word, so row i weighs
    # one target for every h in the span of the rows after it; 256
    # (BATCH_ENTRIES = 1) stops the span after a few rows
    with mock.patch.object(linear, "BATCH_ENTRIES", entries):
        d = linear._enumerate_min_weight(code.field, code.array)
    assert d == brute_min_distance(code)


@pytest.mark.parametrize("pe, n, k, seed", [((3, 1), 8, 5, 85), ((3, 2), 8, 4, 84)])
def test_enumeration_splits_at_every_row(monkeypatch, pe, n, k, seed):
    """Every split r of the rows, from a span of all rows below the first to
    none, gives the brute-force minimum distance.

    The bound is set to exactly the e n q^m digit entries of a span of the
    last m rows, with BATCH_ENTRIES the Fraction e n q^m / 2^8, as 2^8 need
    not divide them; so the span holds m rows, r = k - 1 - m, and the
    multiples built show m.
    """
    F = field(*pe)
    code = random_full_rank_code(F, n, k, random.Random(seed))
    expected = brute_min_distance(code)
    mul = type(F.arrays).mul
    for m in range(k):
        sizes = []
        counted = lambda s, x, y: sizes.append(np.broadcast(x, y).size) or mul(s, x, y)  # noqa: E731
        monkeypatch.setattr(type(F.arrays), "mul", counted)
        monkeypatch.setattr(linear, "BATCH_ENTRIES", Fraction(F.e * n * F.q**m, 2**8))
        assert linear._enumerate_min_weight(code.field, code.array) == expected, m
        assert max(sizes, default=0) == m * n * F.q, m
        monkeypatch.undo()


def test_enumeration_of_a_long_two_row_code_builds_no_multiples():
    """A [3000, 2] code over GF(997) weighs its 998 codewords one n-vector at a time.

    The multiples of row 1 alone would be 3000 x 997 digit entries, past the
    bound of 2^21, so the span stays at the zero word and no (n, q) array is
    made: the peak of traced memory stays within 2.2 x 2^21 bytes (building
    the int64 multiples of row 1 peaks at 47.9 MB).
    """
    F = field(997)
    code = random_full_rank_code(F, 3000, 2, random.Random(3000))
    tracemalloc.start()
    try:
        d = linear._enumerate_min_weight(code.field, code.array)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * (BATCH_ENTRIES << 8), peak
    assert d == min_distance_by_columns(code)


def test_enumeration_keeps_its_arrays_within_the_bound():
    """A long code's span stops within 2^8 BATCH_ENTRIES digit entries.

    The span of rows 1..11 of a [2000, 12] code over GF(2) is 4,096,000
    entries; within the bound, the kernel holds the span and one comparison
    with it at a time, each at most the bound. GF(2) digits and comparisons
    take one byte an entry, so the peak of traced memory shows them all.
    """
    rng = random.Random(2000)
    k, n = 12, 2000
    gen = [[int(i == j) for j in range(k)] + [rng.randrange(2) for _ in range(n - k)]
           for i in range(k)]
    code = LinearCode(field(2), gen)
    bound = BATCH_ENTRIES << 8
    tracemalloc.start()
    try:
        d = linear._enumerate_min_weight(code.field, code.array)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * bound, peak
    # one pass, the span grown by every row below the first
    with mock.patch.object(linear, "BATCH_ENTRIES", BATCH_ENTRIES << 1):
        assert linear._enumerate_min_weight(code.field, code.array) == d


def _macwilliams(q, n, B, dual_k):
    """A, the weight distribution of a code, from B, its [n, n - dual_k]
    dual's, by linear._krawtchouk: A_0 = 1 and A_i = q^-dual_k sum B_w K_i(w)."""
    ws = [w for w, b in enumerate(B) if b]
    sums = [sum(B[w] * K for w, K in zip(ws, Ks)) for Ks in linear._krawtchouk(q, n, ws)]
    assert all(s % q**dual_k == 0 for s in sums)
    return (1, *(s // q**dual_k for s in sums))


def test_macwilliams_transform_of_known_distributions():
    # the binary Hamming [7, 4] code from its dual, the simplex [7, 3] code,
    # and back; the recurrence against the defining sum of K_i(w)
    simplex, hamming = (1, 0, 0, 0, 7, 0, 0, 0), (1, 0, 0, 7, 7, 0, 0, 1)
    assert _macwilliams(2, 7, simplex, 3) == hamming
    assert _macwilliams(2, 7, hamming, 4) == simplex
    for q, n in ((2, 7), (3, 6), (9, 10), (27, 5), (65521, 3)):
        defined = [[sum((-1) ** j * (q - 1) ** (i - j) * comb(w, j) * comb(n - w, i - j) for j in range(i + 1))
                    for w in range(n + 1)] for i in range(1, n + 1)]
        assert list(linear._krawtchouk(q, n, list(range(n + 1)))) == defined


def dual_side_check(code):
    """mds_check's enumeration with the dual side forced: (is_mds, route, d),
    after checking that it took the dual side, and on n - k rows."""
    with mock.patch.object(linear, "DUAL_SIDE_ENTRIES", -1), \
            mock.patch.object(linear, "_distance_from_dual", wraps=linear._distance_from_dual) as spy:
        verdict = code.mds_check(code.field.q**code.k)
    ((F, H), _), = spy.call_args_list
    assert H.shape == (code.n - code.k, code.n)
    return verdict


# the binary Hamming [7, 4] code: it holds its dual, the simplex [7, 3] code
HAMMING_7_4 = [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]


def test_dual_side_cases():
    rng = random.Random(34)
    F7, F9 = field(7), field(3, 2)
    grs = [list(row) for row in GrsSpec(F9, tuple(range(8)), (1,) * 8, 6).generator().gen]
    cases = {
        # k = n: the dual has no rows, and d = 1
        "k = n": (random_full_rank_code(F7, 5, 5, rng), 1),
        "k = n - 1": (LinearCode(F7, [[int(i == j) for j in range(5)] + [i + 1] for i in range(5)]), 2),
        "zero column": (LinearCode(F7, [[int(i == j) for j in range(4)] + [0, 1, i + 2] for i in range(4)]), 3),
        # GRS [8, 6] over GF(9) is MDS; column 7 copied over column 2 is not
        "grs": (LinearCode(F9, grs), 3),
        "equal columns": (LinearCode(F9, [row[:2] + row[7:] + row[3:] for row in grs]), 2),
        "nonzero hull": (LinearCode(field(2), HAMMING_7_4), 3),
    }
    for name, (code, d) in cases.items():
        assert dual_side_check(code) == (d == code.n - code.k + 1, "enumeration", d), name
        assert d == linear._enumerate_min_weight(code.field, code.array), name
        assert code.field.q**code.k > 20_000 or d == brute_min_distance(code), name
    assert cases["nonzero hull"][0].hull_dimension() == 3


DUAL_SIDE_FIELDS = [field(2), field(3), field(2, 2), field(5), field(7), field(2, 3), field(3, 2), field(3, 3)]


@st.composite
def high_rate_codes(draw):
    """Codes with 2k > n, q^k <= 10^5 and k = n or n - 1 in many: GRS codes
    where n <= q, else [I | A] with its columns permuted; in some, a zero
    column or a column copied over another."""
    F = draw(st.sampled_from(DUAL_SIDE_FIELDS))
    max_k = max(m for m in range(1, 13) if F.q**m <= 10**5)
    n = draw(st.integers(1, min(12, 2 * max_k - 1)))
    k = draw(st.sampled_from(range(n // 2 + 1, min(n, max_k) + 1)))
    if n <= F.q and draw(st.booleans()):
        locs = draw(st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n, unique=True))
        mults = draw(st.lists(st.integers(1, F.q - 1), min_size=n, max_size=n))
        gen = [list(row) for row in GrsSpec(F, tuple(locs), tuple(mults), k).generator().gen]
    else:
        tail = st.lists(st.integers(0, F.q - 1), min_size=n - k, max_size=n - k)
        perm = draw(st.permutations(range(n)))
        rows = [[int(i == j) for j in range(k)] + draw(tail) for i in range(k)]
        gen = [[row[j] for j in perm] for row in rows]
    change = draw(st.sampled_from(["none", "zero column", "copy"] if n > 1 else ["none"]))
    if change != "none":
        src, dst = draw(st.permutations(range(n)))[:2]
        for row in gen:
            row[dst] = 0 if change == "zero column" else row[src]
    try:
        return LinearCode(F, gen)
    except ParameterError:
        assume(False)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(high_rate_codes())
def test_dual_side_matches_references(code):
    # d from the dual's weight distribution, against brute force where q^k
    # <= 2,500 and the direct enumeration of C elsewhere
    mds, route, d = dual_side_check(code)
    if code.field.q**code.k <= 2500:
        assert d == brute_min_distance(code)
    else:
        assert d == linear._enumerate_min_weight(code.field, code.array)
    assert (mds, route) == (d == code.n - code.k + 1, "enumeration")


def test_high_rate_codes_weigh_the_smaller_side(monkeypatch):
    # past DUAL_SIDE_ENTRIES the dual side runs, on n - k rows; below it,
    # and at 2k <= n, the code itself is weighed
    sides = []
    monkeypatch.setattr(linear, "_distance_from_dual", lambda F, H, real=linear._distance_from_dual: (
        sides.append(("dual", H.shape)) or real(F, H)))
    monkeypatch.setattr(linear, "_enumerate_min_weight", lambda F, G, real=linear._enumerate_min_weight: (
        sides.append(("direct", G.shape)) or real(F, G)))
    F9, F7 = field(3, 2), field(7)
    for F, n, k, side in ((F9, 10, 6, "dual"), (F9, 9, 6, "dual"), (F9, 6, 6, "dual"),
                          (F7, 8, 6, "direct"), (F9, 7, 4, "direct"), (F9, 10, 5, "direct")):
        code = GrsSpec(F, tuple(range(min(n, F.q))), (1,) * min(n, F.q), k, n > F.q).generator()
        sides.clear()
        assert code.mds_check() == (True, "enumeration", n - k + 1)
        assert sides == [(side, ((n - k) if side == "dual" else k, n))], (F, n, k)


def test_is_mds_examples():
    grs = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2).generator()
    assert grs.mds_check() == (True, "enumeration", 3)
    assert grs._mds_by_column_subsets()
    bad = LinearCode(F5, [[1, 1, 0], [0, 0, 1]])
    assert bad.mds_check() == (False, "enumeration", 1)
    assert not bad._mds_by_column_subsets()


def test_mds_routes_agree():
    rng = random.Random(13)
    for _ in range(25):
        F = field(7)
        n = rng.randint(3, 7)
        k = rng.randint(2, n - 1)
        code = random_full_rank_code(F, n, k, rng)
        enum_verdict = enumerated_min_distance(code) == n - k + 1
        assert enum_verdict == code._mds_by_column_subsets()
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
    n = BATCH_ENTRIES + 1
    codes += [LinearCode(F5, [[1] * n]), LinearCode(F5, [[1] * (n - 1) + [0]])]
    verdicts = set()
    for code in codes:
        verdict = code._mds_by_column_subsets()
        assert verdict == subsets_nonsingular_scalar(code)
        if code.field.q**code.k <= 20_000:
            assert verdict == (enumerated_min_distance(code) == code.n - code.k + 1)
        verdicts.add(verdict)
    assert verdicts == {True, False}


SUBSET_FIELDS = [field(2), field(7), field(3, 2), field(3, 3), field(3, 7), field(127, 2)]


def _insert_column(gen, pos, column):
    return [row[:pos] + (x,) + row[pos:] for row, x in zip(gen, column)]


@st.composite
def subset_codes(draw):
    """Codes for the column-subset kernel, a column inserted into most of them.

    GRS codes are MDS until a column goes in; the others are [I | A] with
    their columns permuted, A drawn from the field or from {0, 1, -1}. The
    inserted column repeats a column at the first, a middle or the last
    position, is zero, or makes a prefix rank-deficient (a combination of
    the columns before it, at a position below k).
    """
    F = draw(st.sampled_from(SUBSET_FIELDS))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    if n <= F.q and draw(st.booleans()):
        locs = draw(st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n, unique=True))
        mults = draw(st.lists(st.integers(1, F.q - 1), min_size=n, max_size=n))
        gen = GrsSpec(F, tuple(locs), tuple(mults), k).generator().gen
    else:
        alphabet = draw(st.sampled_from([range(F.q), (0, 1, F.neg(1))]))
        tail = st.lists(st.sampled_from(alphabet), min_size=n - k, max_size=n - k)
        rows = [tuple(int(i == j) for j in range(k)) + tuple(draw(tail)) for i in range(k)]
        perm = draw(st.permutations(range(n)))
        gen = [tuple(row[j] for j in perm) for row in rows]
    kind = draw(st.sampled_from(["none", "repeat", "zero", "dependent prefix"]))
    if kind == "repeat":
        pos = draw(st.sampled_from([0, n // 2, n]))
        j = draw(st.integers(0, n - 1))
        gen = _insert_column(gen, pos, [row[j] for row in gen])
    elif kind == "zero":
        gen = _insert_column(gen, draw(st.integers(0, n)), [0] * k)
    elif kind == "dependent prefix":
        pos = draw(st.integers(1, max(1, min(k - 1, n))))
        coeffs = draw(st.lists(st.integers(0, F.q - 1), min_size=pos, max_size=pos))
        column = [reduce(F.add, (F.mul(c, row[j]) for j, c in enumerate(coeffs))) for row in gen]
        gen = _insert_column(gen, pos, column)
    return LinearCode(F, gen)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(subset_codes())
def test_subset_kernel_matches_scalar_reference(code):
    # whole chunks, and one prefix per chunk at every depth
    expected = subsets_nonsingular_scalar(code)
    for entries in (BATCH_ENTRIES, 1):
        with mock.patch.object(linear, "BATCH_ENTRIES", entries):
            assert code._mds_by_column_subsets() == expected


def _one_singular_subset(F, n, k, last, coeffs):
    """A GRS [n, k] code whose column `last` becomes a combination of the k - 1
    columns before it: its one singular k-subset is those k columns."""
    gen = GrsSpec(F, tuple(range(n)), (1,) * n, k).generator().gen
    window = range(last - k + 1, last)
    column = [reduce(F.add, (F.mul(c, row[j]) for c, j in zip(coeffs, window))) for row in gen]
    code = LinearCode(F, [row[:last] + (x,) + row[last + 1 :] for row, x in zip(gen, column)])
    singular = [s for s in combinations(range(n), k)
                if rref(F, [[row[j] for j in s] for row in code.gen])[1] < k]
    assert singular == [tuple(range(last - k + 1, last + 1))]
    return code


def test_subset_kernel_last_subset_and_chunk_splits():
    codes = [
        _one_singular_subset(field(3, 3), 12, 3, 11, (1, 2)),
        _one_singular_subset(field(127, 2), 10, 4, 9, (1, 1, 1)),
        # n = 14: the first column a chunk carries moves several places. The
        # one singular subset (1, 2, 3, 4) holds the first column carried at
        # depths 1 and 2: columns 1 and 2 in whole chunks, 2 and 3 at one
        # pair a chunk.
        _one_singular_subset(field(3, 7), 14, 4, 4, (1, 2, 3)),
        _one_singular_subset(field(3, 7), 14, 4, 8, (2, 4, 3)),
        _one_singular_subset(field(127, 2), 14, 5, 12, (177, 190, 167, 136)),
        GrsSpec(field(3, 3), tuple(range(12)), (1,) * 12, 3).generator(),
        GrsSpec(field(127, 2), tuple(range(10)), (1,) * 10, 4).generator(),
        GrsSpec(field(3, 3), tuple(range(14)), (1,) * 14, 4).generator(),
        GrsSpec(field(127, 2), tuple(range(14)), (1,) * 14, 5).generator(),
    ]
    # a zero or a repeated column last: only the last two columns' test sees it
    for k in (2, 3, 5):
        gen = GrsSpec(field(3, 3), tuple(range(9)), (1,) * 9, k).generator().gen
        codes += [LinearCode(field(3, 3), _insert_column(gen, 9, column))
                  for column in ([0] * k, [row[0] for row in gen], [row[8] for row in gen])]
    verdicts = []
    for code in codes:
        expected = subsets_nonsingular_scalar(code)
        # 100 entries split the prefixes at depths 0 and 1 into several chunks,
        # and 37 split one column's extensions across chunks
        for entries in (BATCH_ENTRIES, 100, 37, 1):
            with mock.patch.object(linear, "BATCH_ENTRIES", entries):
                assert code._mds_by_column_subsets() == expected, (code, entries)
        verdicts.append(expected)
    assert verdicts[:9] == [False] * 5 + [True] * 4 and not any(verdicts[9:])


def test_subset_kernel_carries_only_live_columns(monkeypatch):
    """Each pivot step updates only the rows it keeps, in the columns after
    its chunk's first one.

    The least work has every (prefix, column) pair update just the k - d - 1
    rows other than its pivot row, in the columns after its own column. One
    pair a chunk does exactly that. Whole chunks
    list their pairs column by column, so they share few columns and carry
    well under 1.5 times the least (a prefix's pairs taken together, or all n
    columns, carry over twice as much on this code).
    """
    F, n, k = field(3, 3), 20, 6
    code = GrsSpec(F, tuple(range(n)), (1,) * n, k).generator()
    least = sum(
        (k - d - 1) * (n - c - 1)
        for d in range(k - 2)
        for prefix in combinations(range(n), d)
        for c in range(prefix[-1] + 1 if prefix else 0, n - k + d + 1)
    )
    updated = []
    submul = type(F.arrays).submul
    monkeypatch.setattr(
        type(F.arrays),
        "submul",
        lambda self, a, b, c: updated.append(a.size) or submul(self, a, b, c),
    )
    for entries, most in ((1, least), (BATCH_ENTRIES, 1.5 * least)):
        updated.clear()
        with mock.patch.object(linear, "BATCH_ENTRIES", entries):
            assert code._mds_by_column_subsets()
        assert least <= sum(updated) <= most, (entries, sum(updated), least)


@st.composite
def dual_side_codes(draw):
    """Codes of every rate, k = n and k = n - 1 among them, a column copied
    over another in some: GRS codes where n <= q, else [I | A] with its
    columns permuted."""
    F = draw(st.sampled_from(SUBSET_FIELDS))
    n = draw(st.integers(1, 9))
    k = n - draw(st.integers(0, n - 1))
    if n <= F.q and draw(st.booleans()):
        locs = draw(st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n, unique=True))
        mults = draw(st.lists(st.integers(1, F.q - 1), min_size=n, max_size=n))
        gen = [list(row) for row in GrsSpec(F, tuple(locs), tuple(mults), k).generator().gen]
    else:
        tail = st.lists(st.integers(0, F.q - 1), min_size=n - k, max_size=n - k)
        perm = draw(st.permutations(range(n)))
        rows = [[int(i == j) for j in range(k)] + draw(tail) for i in range(k)]
        gen = [[row[j] for j in perm] for row in rows]
    if k < n and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        for row in gen:
            row[dst] = row[src]
    try:
        return LinearCode(F, gen)
    except ParameterError:
        assume(False)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(dual_side_codes(), st.sampled_from([1, 37, BATCH_ENTRIES]))
def test_subset_walk_agrees_with_both_sides(code, entries):
    # a code is MDS iff its dual is: the walk, on whichever side it takes,
    # against the scalar reference on the code and on its dual
    with mock.patch.object(linear, "BATCH_ENTRIES", entries):
        verdict = code._mds_by_column_subsets()
    assert verdict == subsets_nonsingular_scalar(code)
    if code.k == code.n:
        assert verdict  # the dual is empty
    else:
        assert verdict == subsets_nonsingular_scalar(code.dual())


@pytest.mark.parametrize("q, n, k", [(29, 26, 22), (27, 12, 9), (7, 7, 5)])
def test_high_rate_walk_runs_on_the_dual(monkeypatch, q, n, k):
    """For 2k > n no chunk the walk updates or tests has more than n - k rows.

    Over construction and the walk together, the one RREF of G, which the
    rank check reads when G Gt is singular and the dual's rows read, is the
    only elimination besides G Gt's, and no LinearCode is made for the dual.
    """
    F = field_from_order(q)
    chunks, eliminations, inits = [], [], []
    submul, distinct, rref_ = type(F.arrays).submul, linear._distinct_points, linear._rref
    monkeypatch.setattr(linear, "_rref", lambda F, A: eliminations.append(A.shape) or rref_(F, A))
    code = GrsSpec(F, tuple(range(n)), (1,) * n, k).generator()
    init = LinearCode.__init__

    def spy_submul(self, a, b, c):
        chunks.extend(x.shape[1] for x in (a, b, c) if np.ndim(x) == 3)
        return submul(self, a, b, c)

    monkeypatch.setattr(type(F.arrays), "submul", spy_submul)
    monkeypatch.setattr(linear, "_distinct_points", lambda F, rows, later: (
        chunks.append(rows.shape[1]) or distinct(F, rows, later)))
    monkeypatch.setattr(LinearCode, "__init__", lambda *a, **kw: inits.append(a) or init(*a, **kw))
    assert code._mds_by_column_subsets()
    assert chunks and max(chunks) <= n - k
    assert eliminations == [(k, k), (k, n)] and not inits


def test_high_rate_walk_pins_grs_over_gf29():
    # GRS [26, 22] over GF(29) is MDS; a column copied over another is not.
    # The dual [26, 4] is weighed by enumeration as an independent check.
    F = field(29)
    code = GrsSpec(F, tuple(range(26)), (1,) * 26, 22).generator()
    copied = LinearCode(F, [row[:20] + (row[3],) + row[21:] for row in code.gen])
    assert code._mds_by_column_subsets() and enumerated_min_distance(code.dual()) == 23
    assert not copied._mds_by_column_subsets() and enumerated_min_distance(copied.dual()) < 23


CERTIFICATE_FIELDS = [field(2), field(2, 2), field(2, 3), field(7), field(3, 2), field(13), field(3, 7)]


@st.composite
def certificate_codes(draw):
    """(code, form): GRS and extended GRS codes and random codes, some with
    one entry changed or one column copied over another, then some taken to
    their duals, each in a random basis with permuted columns. form is
    "grs" for a GRS code, "repeated locator" for a GRS code with a copied
    column or its dual, and None otherwise."""
    F = draw(st.sampled_from(CERTIFICATE_FIELDS))
    kind = draw(st.sampled_from(["grs", "extended", "random"]))
    # sampled, not drawn as integers, so that long codes with k >= 3 and
    # n - k >= 2, whose certificates test the locators, are not rare
    if kind == "random":
        n = draw(st.sampled_from(range(1, 10)))
        k = draw(st.sampled_from(range(1, n + 1)))
        row = st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n)
        gen = draw(st.lists(row, min_size=k, max_size=k))
    else:
        extended = kind == "extended" and F.q <= 8
        size = F.q if extended else draw(st.sampled_from(range(1, min(9, F.q) + 1)))
        locs = draw(st.lists(st.integers(0, F.q - 1), min_size=size, max_size=size, unique=True))
        mults = draw(st.lists(st.integers(1, F.q - 1), min_size=size, max_size=size))
        k = draw(st.sampled_from(range(1, size + 1)))
        gen = [list(row) for row in GrsSpec(F, tuple(locs), tuple(mults), k, extended).generator().gen]
        n = len(gen[0])
    change = draw(st.sampled_from(["none", "entry", "copy"] if n > 1 else ["none", "entry"]))
    if change == "entry":
        gen[draw(st.integers(0, k - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, F.q - 1))
    elif change == "copy":
        src, dst = draw(st.permutations(range(n)))[:2]
        for row in gen:
            row[dst] = row[src]
    form = {"none": "grs", "copy": "repeated locator"}.get(change) if kind != "random" else None
    try:
        code = LinearCode(F, gen)
    except ParameterError:
        assume(False)
    if k < n and draw(st.booleans()):
        code = code.dual()
    k = code.k
    T = draw(st.lists(st.lists(st.integers(0, F.q - 1), min_size=k, max_size=k), min_size=k, max_size=k))
    gen = mat_mul_scalar(F, T, code.gen) if rref_scalar(F, T)[1] == k else code.gen
    perm = draw(st.permutations(range(n)))
    return LinearCode(F, [[row[j] for j in perm] for row in gen]), form


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(certificate_codes())
def test_grs_certificate_matches_scalar_reference(case):
    # whenever the certificate answers, it answers as every k-subset does;
    # it answers True on every GRS code, and answers at all when a locator
    # repeats; mds_check agrees with the walk
    code, form = case
    expected = subsets_nonsingular_scalar(code)
    certified = code._grs_certificate()
    assert certified in (None, expected)
    if form == "grs":
        assert certified is True
    elif form == "repeated locator":
        assert certified is not None
    assert code._mds_by_column_subsets() == expected
    with mock.patch.object(linear, "mds_route", lambda *args: linear.ROUTE_COLUMN_SUBSETS):
        assert code.mds_check() == (expected, "column_subsets", None)


@pytest.mark.parametrize("x, y, mds", [
    ((2, 9, 4), (6, 11), True),
    ((2, 9, 4, 0), (6, 11, 1), True),
    ((2, 2, 4), (6, 11), False),  # rows 0 and 1 proportional: a zero of D[1]
    ((2, 9, 2), (6, 11), False),  # rows 0 and 2
    ((2, 9, 4, 9), (6, 11, 1), False),  # rows 1 and 3
    ((2, 9, 4), (6, 6), False),  # columns 1 and 2
])
def test_certificate_reads_cauchy_parameters(x, y, mds):
    # [I | A] over GF(13) with A_i0 = c_i and A_ij = c_i d_j / (x_i - y_j):
    # a repeated x or y is decided without the walk
    F = field(13)
    c, d = (1, 3, 5, 7), (4, 6, 10)
    A = [[c[i]] + [F.mul(F.mul(c[i], dj), F.inv(F.sub(xi, yj))) for dj, yj in zip(d, y)]
         for i, xi in enumerate(x)]
    k = len(x)
    code = LinearCode(F, [[int(i == j) for j in range(k)] + row for i, row in enumerate(A)])
    assert code._grs_certificate() is mds
    assert subsets_nonsingular_scalar(code) is mds


# [6, 3] MDS codes over GF(p) whose columns lie on no conic, so not GRS
NON_CONIC = [
    (7, [[1, 0, 0, 2, 5, 1], [0, 1, 0, 3, 1, 4], [0, 0, 1, 4, 4, 6]]),
    (11, [[1, 0, 0, 4, 2, 8], [0, 1, 0, 1, 7, 7], [0, 0, 1, 10, 1, 8]]),
    (13, [[1, 0, 0, 3, 10, 2], [0, 1, 0, 5, 2, 8], [0, 0, 1, 8, 8, 11]]),
]


@pytest.mark.parametrize("p, gen", NON_CONIC)
def test_certificate_declines_non_grs_mds_codes(monkeypatch, p, gen):
    # [6, 3] MDS codes whose columns lie on no conic are not GRS: the
    # certificate declines them, and mds_check walks the subsets
    code = LinearCode(field(p), gen)
    assert code._grs_certificate() is None and subsets_nonsingular_scalar(code)
    walks = []
    walk = LinearCode._mds_by_column_subsets
    monkeypatch.setattr(LinearCode, "_mds_by_column_subsets", lambda self: walks.append(self) or walk(self))
    # 20 = C(6, 3) subsets fit the budget, p^3 codewords do not
    assert code.mds_check(budget=20) == (True, "column_subsets", None)
    assert walks == [code]
    # a GRS code of the same shape is certified, and nothing is walked
    walks.clear()
    grs = GrsSpec(field(p), tuple(range(6)), (1,) * 6, 3).generator()
    assert grs.mds_check(budget=20) == (True, "column_subsets", None)
    assert walks == []


def _copied_column_grs():
    code = GrsSpec(field(31), tuple(range(1, 13)), tuple(range(2, 14)), 5).generator()
    return LinearCode(code.field, [row[:2] + (row[7],) + row[3:] for row in code.gen])


# (code, its hull dimension, whether it is MDS), each verified at budget
# C(n, k), which fits where q^k does not: eight constructed cells past
# q = 13, two of them at q = 81 and all five families among them, which the
# certificate decides; the codes it declines, whose walk runs on G ([6, 3],
# [10, 3]) and on the dual side ([10, 7]); a self-orthogonal RS code, not
# LCD; and a GRS code with one column copied over another, not MDS
METAMORPHIC_CODES = {
    **{f"q{q}-[{n},{k}]": (lambda q=q, n=n, k=k: lcdmds.construct_auto(
        field_from_order(q), n, k).spec.generator(), 0, True)
       for q, n, k in ((25, 13, 6), (25, 26, 3), (27, 9, 4), (27, 13, 5), (31, 16, 5), (31, 29, 3),
                       (81, 82, 4), (81, 40, 7))},
    **{f"non-conic-{p}": (lambda p=p, gen=gen: LinearCode(field(p), gen), 0, True) for p, gen in NON_CONIC},
    "seeded-[10,7]": (seeded_10_7, 0, True),
    "rs-[25,5]": (rs_25_5, 5, True),
    "copied-column": (_copied_column_grs, 0, False),
}


@pytest.mark.parametrize("name", METAMORPHIC_CODES)
def test_verdicts_are_kept_by_equivalences_and_the_dual(name):
    # a new basis T G, a column permutation and +-1 column signs keep G Gt up
    # to T, so the hull, LCD and MDS; any nonzero column scaling keeps MDS
    # but not always the hull (Carlet et al. 2018); the dual keeps the hull
    # dimension and MDS (Massey 1992, MacWilliams and Sloane ch. 11);
    # puncturing and shortening an MDS code give MDS codes (Singleton bound),
    # though a code that is not MDS may give either
    make, hull, mds = METAMORPHIC_CODES[name]
    code = make()
    F, n, k = code.field, code.n, code.k
    verdict = code.verdict(budget=comb(n, k))
    assert verdict["mds_route"] == "column_subsets"
    assert (verdict["hull_dimension"], verdict["is_mds"]) == (hull, mds)
    rng = random.Random(name)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, F.neg(1))) for _ in range(n)]
    scales = [rng.randrange(1, F.q) for _ in range(n)]
    everything = ("hull_dimension", "is_lcd", "is_mds")
    images = [
        (mat_mul_scalar(F, _random_invertible(F, k, rng), code.gen), everything),
        ([[row[j] for j in perm] for row in code.gen], everything),
        ([[F.mul(s, x) for s, x in zip(signs, row)] for row in code.gen], everything),
        ([[F.mul(s, x) for s, x in zip(scales, row)] for row in code.gen], ("is_mds",)),
        (code.dual().gen, ("hull_dimension", "is_mds")),
    ]
    for gen, kept in images:
        image = LinearCode(F, gen)
        seen = image.verdict(budget=comb(n, k))
        assert {key: seen[key] for key in kept} == {key: verdict[key] for key in kept}
    # shortening C at j is the dual of the puncture of C's dual at j
    j = rng.randrange(n)
    punctured = LinearCode(F, [row[:j] + row[j + 1 :] for row in code.gen])
    shortened = LinearCode(F, [row[:j] + row[j + 1 :] for row in code.dual().gen]).dual()
    assert (punctured.n, punctured.k, shortened.n, shortened.k) == (n - 1, k, n - 1, k - 1)
    for image in (punctured, shortened):
        assert image.verdict(budget=comb(n, k))["is_mds"] or not mds


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
    # a mantissa that rounds up to 10 carries into the exponent
    assert linear._amount(999_950_000_000_000, "x") == "x (~1.0e15)"
    with pytest.raises(ParameterError, match="zero-dimensional"):
        mds_route(9, 9, 0, 10**6)
    # a shape no code has is refused, whatever the budget; the budget is checked first
    for q, n, k, budget in ((5, 3, 4, 100), (5, -1, 2, 10**6), (5, 4, -1, 10**6), (1, 4, 2, 10**6)):
        with pytest.raises(ParameterError, match=rf"no \[{n}, {k}\] code over GF\({q}\)"):
            mds_route(q, n, k, budget)
    for q, n, k in ((5.0, 4, 2), (5, 4.0, 2), (5, 4, 2.0), (5, True, 2), ("5", 4, 2)):
        with pytest.raises(ParameterError, match="must be an integer"):
            mds_route(q, n, k, 10**6)
    with pytest.raises(ParameterError, match="budget must not be negative"):
        mds_route(5, 3, 4, -1)


def test_mds_check_is_the_one_budget_gate():
    F = field(3, 7)
    code = LinearCode(F, [[int(i == j) for j in range(4)] + [1, i + 2] for i in range(4)])
    # budget 100: C(6, 4) = 15 column subsets fit, 2187^4 codewords do not
    ok, route, dist = code.mds_check(100)
    assert (route, dist) == ("column_subsets", None)
    assert ok == subsets_nonsingular_scalar(code)
    # budget 10: neither route fits, and the amounts are written short
    with pytest.raises(BudgetExceeded, match="MDS check") as exc:
        code.mds_check(10)
    assert "2187^4 (~2.3e13)" in str(exc.value)
    assert not re.search(r"\d{13}", str(exc.value))
    # k = 0 is refused by the same gate, before either route kernel runs
    with pytest.raises(ParameterError, match="zero-dimensional"):
        LinearCode(F5, [], n=2).mds_check()
    for name in lcdmds.__all__:
        assert hasattr(lcdmds, name), name


def test_code_serialization_roundtrip():
    code = GrsSpec(F5, (0, 1, 2, 3), (1, 2, 3, 4), 2).generator()
    other = LinearCode.from_dict(code.to_dict())
    assert other.gen == code.gen and other.field == code.field
    assert repr(other) == "LinearCode([4,2] over GF(5))"
    empty = LinearCode(F5, [], n=3)
    assert LinearCode.from_dict(empty.to_dict()).to_dict() == empty.to_dict()
    # read_code_record, the one reader, turns a malformed record into ParameterError
    for record in ({}, {"field": F5.to_dict(), "n": 4}, [code.to_dict()], {"field": 5, "generator": [[1]]}):
        with pytest.raises(ParameterError, match="malformed code record"):
            LinearCode.from_dict(record)
