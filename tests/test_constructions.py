import dataclasses
import json
import random
import re
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_min_distance, conditions_oracle
from lcdmds import (
    ALL_THEOREMS,
    BudgetExceeded,
    NoConstructionApplies,
    ParameterError,
    Poly,
    TheoremViolation,
    applicable_conditions,
    construct_auto,
    construct_divisor,
    construct_extended,
    construct_large_nk,
    construct_prime_power,
    construct_window,
    dual_multipliers,
    field,
    field_from_order,
    verify_report,
)
from lcdmds import construct, grs
from lcdmds.cli import build_parser, main
from lcdmds.construct import (
    FAMILIES,
    THEOREM_DIVISOR,
    THEOREM_EXTENDED,
    THEOREM_LARGE_NK,
    THEOREM_PRIME_POWER,
    THEOREM_WINDOW,
)

F5, F7, F9 = field(5), field(7), field(3, 2)


# ---------- extended codes of length q + 1 ----------


def test_extended_case1_example():
    r = verify_report(construct_extended(F5, 2))
    assert r.params == {"case": 1, "gamma": 2}
    assert r.spec.multipliers == (1, 1, 1, 1, 2)
    assert r.spec.extended and r.spec.length == 6
    assert r.verified["hull_dimension"] == 0
    assert r.verified["min_distance"] == 5


def test_extended_case2_example():
    r = verify_report(construct_extended(F5, 3))
    assert r.params["case"] == 2
    assert r.spec.multipliers == (1, 1, 2, 2, 2)
    assert r.verified["is_lcd"] and r.verified["is_mds"]


def test_extended_rejections():
    with pytest.raises(ParameterError, match="too small"):
        construct_extended(field(3), 2)
    with pytest.raises(ParameterError, match="even characteristic"):
        construct_extended(field(2, 3), 2)
    with pytest.raises(ParameterError, match="out of range"):
        construct_extended(F5, 1)
    with pytest.raises(ParameterError, match="out of range"):
        construct_extended(F5, 4)  # floor((q+1)/2) = 3


def test_extended_gamma_override():
    # 3 has order 6 in GF(7): primitive, so acceptable
    r = verify_report(construct_extended(F7, 2, gamma=3))
    assert r.params["gamma"] == 3
    with pytest.raises(ParameterError, match="primitive"):
        construct_extended(F7, 2, gamma=2)  # order 3
    with pytest.raises(ParameterError, match="primitive"):
        construct_extended(F7, 2, gamma=6)  # order 2


def test_extended_permutation_override():
    perm = [4, 3, 2, 1, 0]
    r = verify_report(construct_extended(F5, 2, permutation=perm))
    assert r.spec.locators == (4, 3, 2, 1, 0)
    with pytest.raises(ParameterError, match="permutation"):
        construct_extended(F5, 2, permutation=[0, 1, 2, 3, 3])


# ---------- lengths dividing q - 1 ----------


def test_divisor_example():
    r = verify_report(construct_divisor(F5, 4, 2))
    assert r.spec.locators == (1, 2, 4, 3)
    assert r.spec.multipliers == (1, 1, 1, 2)
    assert r.params == {"omega": 2, "tail_multipliers": [2]}
    assert r.verified["min_distance"] == 3
    assert brute_min_distance(r.spec.generator()) == 3


def test_divisor_gf7_example():
    r = verify_report(construct_divisor(F7, 6, 3))
    omega = r.params["omega"]
    assert omega == 3  # the primitive element, since n = q - 1
    assert r.spec.locators == tuple(F7.pow(omega, i) for i in range(6))
    assert r.spec.multipliers == (1, 1, 1, 1, 2, 2)
    assert r.verified["is_lcd"] and r.verified["is_mds"]


def test_divisor_rejections():
    with pytest.raises(ParameterError, match="out of range"):
        construct_divisor(F7, 3, 2)  # k = 2 > floor(3/2)
    with pytest.raises(ParameterError, match="out of range"):
        construct_divisor(F5, 3, 2)
    with pytest.raises(ParameterError, match="out of range"):
        construct_divisor(F7, 1, 2)
    with pytest.raises(ParameterError, match="DivisorOfQMinus1 needs n divides q - 1"):
        construct_divisor(F7, 4, 2)


def test_divisor_tail_override():
    r = verify_report(construct_divisor(F7, 6, 3, tail=3))
    assert r.spec.multipliers == (1, 1, 1, 1, 3, 3)
    r = verify_report(construct_divisor(F7, 6, 3, tail=[3, 5]))
    assert r.spec.multipliers == (1, 1, 1, 1, 3, 5)
    with pytest.raises(ParameterError, match="avoid"):
        construct_divisor(F7, 6, 3, tail=6)  # -1 squares to 1
    with pytest.raises(ParameterError, match="tail multipliers"):
        construct_divisor(F7, 6, 3, tail=[3, 3, 3])


# ---------- prime-power lengths (additive subgroups) ----------


def test_prime_power_small_length_leaves_no_valid_k():
    with pytest.raises(ParameterError, match="out of range"):
        construct_prime_power(F9, 1, 2)  # n = 3 allows only k <= 1


def test_prime_power_full_field_example():
    r = verify_report(construct_prime_power(F9, 2, 4))
    assert r.spec.locators == tuple(range(9))
    # gamma: first element outside {0, 1, -1}; -1 = 2 in GF(9), so gamma = 3
    assert r.params["gamma"] == 3
    assert r.spec.multipliers == (1, 1, 1, 1, 1, 3, 3, 3, 3)
    # h over the whole field is -1, so the constant dual multiplier is -1 too
    assert r.params["h"] == F9.neg(1)
    assert r.params["u_constant"] == F9.neg(1)
    assert r.verified["hull_dimension"] == 0 and r.verified["is_mds"]


def test_prime_power_proper_subgroup():
    F27 = field(3, 3)
    r = verify_report(construct_prime_power(F27, 2, 3))
    H = r.params["subgroup"]
    assert H == list(range(9))
    h = 1
    for z in H:
        if z:
            h = F27.mul(h, z)
    assert r.params["h"] == h
    u = dual_multipliers(F27, tuple(H))
    assert set(u) == {F27.inv(h)} == {r.params["u_constant"]}


def test_prime_power_rejections():
    with pytest.raises(ParameterError, match="subgroup degree"):
        construct_prime_power(F9, 3, 2)
    with pytest.raises(ParameterError, match="even characteristic"):
        construct_prime_power(field(2, 3), 3, 2)
    with pytest.raises(ParameterError, match="avoid"):
        construct_prime_power(F9, 2, 4, gamma=2)  # -1 in GF(9)


# ---------- n + k >= q + 1 ----------


def test_large_nk_example():
    r = verify_report(construct_large_nk(F7, 6, 2))
    assert r.spec.locators == (0, 1, 2, 3, 4, 5)
    assert r.params["excluded"] == [6]
    # first five multipliers are 1, the last is searched and lands on 2
    assert r.spec.multipliers == (1, 1, 1, 1, 1, 2)
    assert r.params["chosen_multipliers"] == [[6, 2]]
    assert r.verified["is_lcd"] and r.verified["is_mds"]


def test_large_nk_k3():
    r = verify_report(construct_large_nk(F7, 6, 3))
    assert r.spec.multipliers[: 7 - 3] == (1, 1, 1, 1)
    assert len(r.params["chosen_multipliers"]) == 6 + 3 - 7
    assert r.verified["hull_dimension"] == 0


def test_large_nk_chosen_multipliers_recheck():
    # post hoc: each searched multiplier satisfies -v^2 prod(a_i - x) != u_i
    for F, n, k in [(F7, 6, 2), (F7, 6, 3), (field(11), 10, 4)]:
        r = construct_large_nk(F, n, k)
        u = dual_multipliers(F, r.spec.locators)
        for pos, v in r.params["chosen_multipliers"]:
            i = pos - 1
            prod = 1
            for x in r.params["excluded"]:
                prod = F.mul(prod, F.sub(r.spec.locators[i], x))
            assert F.neg(F.mul(F.mul(v, v), prod)) != u[i]
            assert r.spec.multipliers[i] == v


def test_large_nk_computes_no_dual_multipliers(monkeypatch):
    # each chosen multiplier is the first square-free unit, with no u_i computed
    calls = []
    spy = lambda *args: calls.append(args) or dual_multipliers(*args)  # noqa: E731
    monkeypatch.setattr(construct, "dual_multipliers", spy)
    r = verify_report(construct_large_nk(field(13), 12, 5))
    assert calls == []
    assert r.spec.multipliers == (1,) * 8 + (2,) * 4
    assert r.params == {"excluded": [12], "chosen_multipliers": [[9, 2], [10, 2], [11, 2], [12, 2]]}
    assert r.verified == {"hull_dimension": 0, "is_lcd": True, "is_mds": True,
                          "mds_route": "enumeration", "min_distance": 8}


def test_large_nk_multipliers_follow_from_wilsons_theorem():
    # on every large-n+k cell of odd q <= 49, each under its own seeded
    # labeling: locators and excluded elements partition GF(q), whose nonzero
    # elements multiply to -1, so prod(a_i - x over excluded x) = -u_i at every
    # locator; the condition -c^2 prod != u_i is then c^2 != 1, and every
    # chosen multiplier is the first canonical c with c^2 != 1
    rng = random.Random(49)
    cells = 0
    for q in (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49):
        F = field_from_order(q)
        first = next(c for c in range(1, q) if F.mul(c, c) != 1)
        for n, k in ((n, k) for n in range(4, q) for k in range(max(2, q + 1 - n), n // 2 + 1)):
            perm = rng.sample(range(q), q)
            r = construct_large_nk(F, n, k, permutation=perm)
            a, excluded, u = r.spec.locators, perm[n:], dual_multipliers(F, r.spec.locators)
            assert a == tuple(perm[:n]) and r.params["excluded"] == excluded
            prods = [reduce(F.mul, (F.sub(ai, x) for x in excluded), 1) for ai in a]
            assert prods == [F.neg(ui) for ui in u], (q, n, k)
            assert r.params["chosen_multipliers"] == [[i + 1, first] for i in range(q - k, n)]
            assert r.spec.multipliers == (1,) * (q - k) + (first,) * (n + k - q)
            for i in range(q - k, n):
                assert F.neg(F.mul(F.mul(first, first), prods[i])) != u[i]
            cells += 1
    assert cells == 1053


def test_prime_power_and_large_nk_builders_compute_no_products(monkeypatch):
    # both take their multipliers in closed form: neither calls
    # difference_products or dual_multipliers, under the grs or construct name
    calls = []
    for module in (grs, construct):
        for name in ("difference_products", "dual_multipliers"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    reports = [
        construct_prime_power(field(3, 3), 2, 3),
        construct_prime_power(field(5, 2), 2, 12, gamma=3),
        construct_prime_power(field(3, 9), 9, 2),
        construct_large_nk(field(13), 12, 5),
        construct_large_nk(F7, 6, 3, permutation=[6, 5, 4, 3, 2, 1, 0]),
        construct_large_nk(field(3, 5), 200, 90),
    ]
    assert calls == []
    # the spies are live: the window builder and a spec's dual still call them
    construct_window(F7, 4, 2)
    reports[3].spec.dual()
    assert calls == ["difference_products", "dual_multipliers", "difference_products"]


def test_large_nk_rejections():
    with pytest.raises(ParameterError, match="n \\+ k"):
        construct_large_nk(F7, 5, 2)  # 7 < 8
    with pytest.raises(ParameterError, match="LargeNPlusK needs n < q"):
        construct_large_nk(F7, 7, 3)


# ---------- 2n - k < q <= 2n ----------


def test_window_example():
    r = verify_report(construct_window(F7, 4, 2))
    assert r.spec.locators == (0, 1, 2, 3)
    assert r.params["window"] == [4, 5]
    expected = tuple(F7.mul(F7.sub(a, 4), F7.sub(a, 5)) for a in range(4))
    assert r.spec.multipliers == expected
    assert r.verified["is_lcd"] and r.verified["is_mds"]


def test_window_gf11():
    r = verify_report(construct_window(field(11), 6, 2))
    assert r.verified["hull_dimension"] == 0
    assert r.verified["min_distance"] == 5


def test_window_rejections():
    with pytest.raises(ParameterError, match="2n - k"):
        construct_window(F7, 6, 2)  # 2n - k = 10 >= 7
    with pytest.raises(ParameterError, match="Window2n needs n < q"):
        construct_window(F7, 7, 2)


# ---------- dispatcher ----------


def test_auto_dispatch_order():
    assert construct_auto(F7, 8, 3).theorem == THEOREM_EXTENDED
    assert construct_auto(F9, 8, 4).theorem == THEOREM_DIVISOR
    # n = 6 divides q - 1 = 6 and also satisfies n + k >= q + 1: divisor wins
    assert construct_auto(F7, 6, 2).theorem == THEOREM_DIVISOR
    assert construct_auto(F7, 7, 3).theorem == THEOREM_PRIME_POWER
    assert construct_auto(field(13), 11, 4).theorem == THEOREM_LARGE_NK
    assert construct_auto(F7, 4, 2).theorem == THEOREM_WINDOW


def test_auto_no_construction():
    with pytest.raises(NoConstructionApplies):
        construct_auto(F7, 5, 2)
    conditions = applicable_conditions(F7, 5, 2)
    assert conditions == []


def test_auto_rejections():
    with pytest.raises(ParameterError, match="exceeds q \\+ 1"):
        construct_auto(F5, 7, 2)
    with pytest.raises(ParameterError, match="out of range"):
        construct_auto(F5, 6, 1)
    with pytest.raises(ParameterError, match="even characteristic"):
        construct_auto(field(2, 3), 4, 2)
    with pytest.raises(ParameterError, match="unknown theorem tag"):
        construct_auto(F7, 6, 2, theorem="NoSuchFamily")


def test_auto_matches_named_construction():
    auto = construct_auto(F5, 4, 2)
    named = construct_divisor(F5, 4, 2)
    assert auto.to_dict() == named.to_dict()


def test_applicable_conditions_lists_all_matches():
    assert applicable_conditions(F7, 6, 2) == [THEOREM_DIVISOR, THEOREM_LARGE_NK]
    assert applicable_conditions(F7, 8, 4) == [THEOREM_EXTENDED]
    # n = q only matches the prime-power family (condition 4 needs n < q)
    assert applicable_conditions(F5, 5, 2) == [THEOREM_PRIME_POWER]
    assert applicable_conditions(F9, 8, 4) == [THEOREM_DIVISOR, THEOREM_LARGE_NK]


def test_family_conditions_run_once_per_build(monkeypatch):
    # every row's condition is evaluated once per swept cell, and never when
    # a family is named: the builders test only their own row
    calls = []

    def spy(*args):
        calls.append(args)
        return applicable_conditions(*args)

    monkeypatch.setattr(construct, "applicable_conditions", spy)
    assert main(["sweep", "--q", "13"]) == 0
    assert len(calls) == 36
    calls.clear()
    construct_auto(field(13), 12, 3, theorem=THEOREM_DIVISOR)
    assert calls == []


# ---------- the family table ----------

ODD_PRIME_POWERS = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 49, 81, 121, 125, 243)
# conditions_oracle numbers the families 1..5
ORACLE_TAGS = (
    THEOREM_EXTENDED,
    THEOREM_DIVISOR,
    THEOREM_PRIME_POWER,
    THEOREM_LARGE_NK,
    THEOREM_WINDOW,
)


@st.composite
def valid_cells(draw):
    """An odd prime power q and a cell 4 <= n <= q + 1, 1 < k <= n/2.

    Half the lengths come from the families' special values (q + 1, q,
    divisors of q - 1, powers of p), since uniform n seldom hits them.
    """
    q = draw(st.sampled_from(ODD_PRIME_POWERS))
    F = field_from_order(q)
    special = sorted(
        {q + 1, q}
        | {d for d in range(4, q) if (q - 1) % d == 0}
        | {F.p**level for level in range(1, F.e + 1) if F.p**level >= 4}
    )
    n = draw(st.one_of(st.sampled_from(special), st.integers(4, q + 1)))
    k = draw(st.integers(2, n // 2))
    return F, n, k


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(valid_cells())
def test_family_table_matches_oracle(cell):
    F, n, k = cell
    expected = [ORACLE_TAGS[c - 1] for c in conditions_oracle(F.q, F.p, F.e, n, k)]
    assert applicable_conditions(F, n, k) == expected
    if expected:
        assert construct_auto(F, n, k).theorem == expected[0]
    else:
        with pytest.raises(NoConstructionApplies):
            construct_auto(F, n, k)
    for family in FAMILIES:
        if family.tag in expected:
            report = construct_auto(F, n, k, theorem=family.tag)
            assert report.theorem == family.tag
            assert (report.spec.length, report.spec.k) == (n, k)
        else:
            with pytest.raises(ParameterError, match=re.escape(family.condition)):
                construct_auto(F, n, k, theorem=family.tag)


def test_theorem_names_come_from_the_table():
    assert ALL_THEOREMS == ORACLE_TAGS
    subparsers = build_parser()._subparsers._group_actions[0]
    theorem = subparsers.choices["construct"]._option_string_actions["--theorem"]
    assert theorem.choices == sorted(["auto", *(f.flag for f in FAMILIES)])


# ---------- verification ----------


def test_construction_specs_have_no_nonzero_dual_members():
    # the complementary-dual property, seen through the membership check:
    # only the zero message lands in the dual
    for r in (construct_divisor(F5, 4, 2), construct_extended(F5, 2)):
        for coeffs in product(range(5), repeat=r.spec.k):
            f = Poly(F5, coeffs)
            assert r.spec.in_dual(f) == f.is_zero()


def test_verify_detects_tampering():
    r = construct_divisor(F5, 4, 2)
    r.spec = dataclasses.replace(r.spec, multipliers=(1, 1, 1, 1))
    with pytest.raises(TheoremViolation, match="hull"):
        verify_report(r)


@pytest.mark.parametrize("build", [lambda: construct_divisor(F7, 6, 3), lambda: construct_extended(F5, 2)])
def test_verify_rejects_rows_that_are_not_the_specs(build):
    # verify_report proves a code from its spec, so it first checks that the
    # emitted rows are the spec's V diag(v) with distinct locators and nonzero
    # multipliers; a report that fails is a builder bug, never a verdict
    def corrupt_entry(spec):
        rows = spec._rows.copy()
        rows[-1, 2] = (rows[-1, 2] + 1) % spec.field.q
        spec.__dict__["_rows"] = rows

    def corrupt_last_column(spec):
        rows = spec._rows.copy()
        rows[0, -1] = 1
        spec.__dict__["_rows"] = rows

    def repeat_locator(spec):
        object.__setattr__(spec, "locators", (spec.locators[1],) + spec.locators[1:])

    def zero_multiplier(spec):
        object.__setattr__(spec, "multipliers", spec.multipliers[:-1] + (0,))

    for plant in (corrupt_entry, corrupt_last_column, repeat_locator, zero_multiplier):
        report = build()
        plant(report.spec)
        with pytest.raises(TheoremViolation, match="not its V diag"):
            verify_report(report)
        assert report.verified is None
        assert verify_report(build()).verified["is_lcd"]


def test_verify_budget_exceeded():
    r = construct_prime_power(F9, 2, 4)
    with pytest.raises(BudgetExceeded):
        verify_report(r, budget=1)


@pytest.mark.parametrize("budget", ["10", None, True, 2.5, -1])
def test_library_budget_must_be_a_nonnegative_integer(budget):
    # mds_route checks it, and every library entry point reaches mds_route
    report = construct_auto(F7, 6, 3)
    code = report.spec.generator()
    for check in (lambda: verify_report(report, budget), lambda: code.mds_check(budget),
                  lambda: code.verdict(budget)):
        with pytest.raises(ParameterError, match="budget must"):
            check()
    assert report.verified is None


def test_budget_is_checked_before_the_generator_is_built():
    # neither 243^100 codewords nor C(244, 100) subsets fit
    report = construct_auto(field_from_order(243), 244, 100)
    with pytest.raises(BudgetExceeded, match=r"MDS check: .*243\^100 \(~3\.6e238\)"):
        verify_report(report, budget=20_000)
    assert "_generator" not in report.spec.__dict__
    assert report.verified is None


def test_reports_are_deterministic():
    a = json.dumps(verify_report(construct_auto(F9, 8, 4)).to_dict(), sort_keys=True)
    b = json.dumps(verify_report(construct_auto(F9, 8, 4)).to_dict(), sort_keys=True)
    assert a == b


def test_report_dict_carries_code_and_field():
    d = construct_divisor(F5, 4, 2).to_dict()
    assert d["field"] == {"p": 5, "e": 1, "modulus": [0, 1]}
    assert d["n"] == 4 and d["k"] == 2
    # rows v_i and v_i * a_i over a = (1, 2, 4, 3), v = (1, 1, 1, 2): 2*3 = 6 = 1
    assert d["generator"] == [[1, 1, 1, 2], [1, 2, 4, 1]]
    assert d["verified"] is None


F27 = field(3, 3)


@pytest.mark.parametrize("build, args", [
    (construct_extended, (F7, 3)),
    (construct_divisor, (F7, 6, 3)),
    (construct_prime_power, (F27, 2, 4)),  # (level, k)
    (construct_large_nk, (F7, 6, 2)),
    (construct_window, (F7, 4, 2)),
    (construct_auto, (F7, 6, 3)),
])
def test_builders_take_integer_lengths_dimensions_and_levels_only(build, args):
    assert build(*args).spec.generator().k == args[-1]
    for i in range(1, len(args)):
        for wrong in (float(args[i]), True):
            bad = args[:i] + (wrong,) + args[i + 1 :]
            with pytest.raises(ParameterError, match="must be an integer"):
                build(*bad)
