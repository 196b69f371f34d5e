"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The shared grid fixture constructs and verifies every covered
(n, k) for q in {5, 7, 9, 11, 13} once and is reused by later criteria.
"""

import json
import random
import time
from dataclasses import dataclass, field as dc_field
from itertools import product
from math import comb

import pytest

from conftest import (
    conditions_oracle,
    enumerated_min_distance,
    in_dual_direct,
    intersection_dim,
    same_row_space,
)
from lcdmds import (
    GrsSpec,
    LinearCode,
    NoConstructionApplies,
    Poly,
    applicable_conditions,
    construct_auto,
    construct_extended,
    dual_multipliers,
    field,
    field_from_order,
    verify_report,
)
from lcdmds.cli import main as cli_main
from lcdmds.construct import THEOREM_PRIME_POWER

QS = (5, 7, 9, 11, 13)
BUDGET = 10**6

ODD_PRIME_POWERS_TO_27 = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27)


@dataclass
class Cell:
    q: int
    n: int
    k: int
    oracle_conditions: list
    report: object = None
    error: Exception = None
    raised_no_construction: bool = False
    library_conditions: list = dc_field(default_factory=list)


def _build_grid():
    cells = []
    per_field_seconds = {}
    for q in QS:
        F = field_from_order(q)
        start = time.perf_counter()
        for n in range(4, q + 2):
            for k in range(2, n // 2 + 1):
                cell = Cell(q, n, k, conditions_oracle(q, F.p, F.e, n, k))
                cell.library_conditions = applicable_conditions(F, n, k)
                try:
                    cell.report = verify_report(construct_auto(F, n, k), BUDGET)
                except NoConstructionApplies:
                    cell.raised_no_construction = True
                except Exception as exc:  # kept for criterion 1 to report
                    cell.error = exc
                cells.append(cell)
        per_field_seconds[q] = time.perf_counter() - start
    return cells, per_field_seconds


@pytest.fixture(scope="module")
def grid():
    return _build_grid()


def covered(cells):
    return [c for c in cells if c.report is not None]


def test_criterion_01_coverage_sweep(grid):
    cells, per_field_seconds = grid
    for c in cells:
        assert c.error is None, f"q={c.q} n={c.n} k={c.k} failed: {c.error}"
        if c.oracle_conditions:
            assert c.report is not None, f"q={c.q} n={c.n} k={c.k}: construct_auto refused"
            v = c.report.verified
            assert v["hull_dimension"] == 0, f"q={c.q} n={c.n} k={c.k}: nonzero hull"
            assert v["is_mds"] is True, f"q={c.q} n={c.n} k={c.k}: not MDS"
        else:
            assert c.raised_no_construction, f"q={c.q} n={c.n} k={c.k}: ran without any condition"
            assert c.library_conditions == []
    total = sum(per_field_seconds.values())
    built = len(covered(cells))
    assert total < 60, f"grid took {total:.1f}s, expected under 60s"
    print(
        f"PASS criterion 1: {built} covered (n, k) cells over q in {QS} all verified "
        f"hull 0 and MDS (exact) in {total:.1f}s single-threaded"
    )


def test_criterion_02_extended_case_boundary():
    # case 2 fires exactly at k = (q+1)/2; (7, 4) sits on that boundary too,
    # since (7+1)/2 = 4, so it is asserted as case 2 alongside the others
    for q, k in [(5, 3), (9, 5), (13, 7), (7, 4)]:
        r = verify_report(construct_extended(field_from_order(q), k), BUDGET)
        assert r.params["case"] == 2, f"(q={q}, k={k}) should be case 2"
        assert r.verified["hull_dimension"] == 0 and r.verified["is_mds"]
    for q, k in [(5, 2), (7, 2), (7, 3)]:
        r = verify_report(construct_extended(field_from_order(q), k), BUDGET)
        assert r.params["case"] == 1, f"(q={q}, k={k}) should be case 1"
        assert r.verified["hull_dimension"] == 0 and r.verified["is_mds"]
    print("PASS criterion 2: case split at k = (q+1)/2 verified LCD + MDS exactly")


def test_criterion_03_dual_formula_vs_null_space():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        F = field_from_order((5, 7, 9, 11)[checked % 4])
        n = rng.randint(2, F.q)
        k = rng.randint(1, n - 1)
        locs = tuple(rng.sample(range(F.q), n))
        mults = tuple(rng.randrange(1, F.q) for _ in range(n))
        spec = GrsSpec(F, locs, mults, k)
        assert same_row_space(spec.dual().generator(), spec.generator().dual())
        checked += 1
    print("PASS criterion 3: 200 random specs, multiplier-formula dual RREF == null-space dual RREF")


def test_criterion_04_membership_check_equivalence(grid):
    cells, _ = grid
    exhaustive = sampled = 0
    for c in covered(cells):
        spec = c.report.spec
        F = spec.field
        if F.q**spec.k <= 10**4:
            messages = product(range(F.q), repeat=spec.k)
            exhaustive += 1
        else:
            rng = random.Random((c.q, c.n, c.k).__hash__())
            messages = (
                tuple(rng.randrange(F.q) for _ in range(spec.k)) for _ in range(1000)
            )
            sampled += 1
        for coeffs in messages:
            f = Poly(F, coeffs)
            assert spec.in_dual(f) == in_dual_direct(spec, f), (
                f"q={c.q} n={c.n} k={c.k} message {coeffs}"
            )
    print(
        f"PASS criterion 4: interpolation-based dual membership matched the direct "
        f"G.c check on {exhaustive} exhaustive and {sampled} sampled grid specs"
    )


def test_criterion_05_full_support_product_identity():
    for q in ODD_PRIME_POWERS_TO_27:
        F = field_from_order(q)
        minus_one = F.neg(1)
        for i in F.elements():
            prod = 1
            for j in F.elements():
                if j != i:
                    prod = F.mul(prod, F.sub(i, j))
            assert prod == minus_one, f"q={q}, i={i}"
    print(
        "PASS criterion 5: prod over j != i of (a_i - a_j) = -1 for every element "
        f"of every odd prime power q in {ODD_PRIME_POWERS_TO_27}"
    )


def test_criterion_06_subgroup_dual_multiplier_identity(grid):
    cells, _ = grid

    def check_subgroup(F, subgroup):
        h = 1
        for z in subgroup:
            if z:
                h = F.mul(h, z)
        u = dual_multipliers(F, tuple(subgroup))
        assert set(u) == {F.inv(h)}
        return h, u

    seen = 0
    for c in covered(cells):
        if c.report.theorem == THEOREM_PRIME_POWER:
            F = c.report.spec.field
            h, u = check_subgroup(F, c.report.params["subgroup"])
            # the builder records h^-1 without computing any u_i: each one agrees
            assert c.report.params["h"] == h
            assert all(ui == c.report.params["u_constant"] for ui in u)
            seen += 1
    assert seen > 0
    # proper subgroups (level < e) do not occur in the grid; cover them here
    extra = 0
    for p, e in [(3, 2), (5, 2), (3, 3), (3, 4), (3, 5), (5, 3)]:
        F = field(p, e)
        for level in range(1, e + 1):
            check_subgroup(F, F.additive_subgroup(level))
            extra += 1
    print(
        f"PASS criterion 6: dual multipliers constant and equal to h^-1 on "
        f"{seen} grid subgroups and {extra} dedicated subgroups incl. proper ones"
    )


def test_criterion_07_mds_routes_cross_check(grid):
    cells, _ = grid
    both = 0
    for c in covered(cells):
        code = c.report.spec.generator()
        if c.q**c.k <= 10**6 and comb(code.n, code.k) <= 10**5:
            d = enumerated_min_distance(code)
            by_enum = d == code.n - code.k + 1
            by_subsets = code._mds_by_column_subsets()
            assert d == code.n - code.k + 1, f"q={c.q} n={code.n} k={code.k}: d={d}"
            assert by_subsets is True
            assert by_enum == by_subsets
            both += 1
    assert both > 0
    print(
        f"PASS criterion 7: enumeration distance = n-k+1 and all k-column subsets "
        f"nonsingular on {both} grid codes; the routes never disagreed"
    )


def test_criterion_08_hull_routes_cross_check(grid):
    cells, _ = grid
    for c in covered(cells):
        code = c.report.spec.generator()
        assert code.hull_dimension() == intersection_dim(code, code.dual())
    rng = random.Random(808)
    randoms = 0
    while randoms < 200:
        F = field_from_order((5, 7, 9)[randoms % 3])
        n = rng.randint(2, 8)
        k = rng.randint(1, n)
        gen = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        try:
            code = LinearCode(F, gen)
        except Exception:
            continue
        assert code.hull_dimension() == intersection_dim(code, code.dual())
        randoms += 1
    print(
        "PASS criterion 8: Gram-rank hull equals stacked-rank intersection on all "
        "grid codes plus 200 random codes"
    )


def test_spec_verdicts_match_the_generic_oracles(grid):
    # verify_report proves a report from its spec; on every covered grid cell
    # and on its dual spec, that verdict is the one LinearCode's G Gt
    # elimination and MDS check give for the spec's rows
    cells, _ = grid
    for c in covered(cells):
        spec = c.report.spec
        for s, verdict in ((spec, c.report.verified), (spec.dual(), None)):
            expected = LinearCode(s.field, s._rows).verdict(BUDGET)
            assert (verdict or s.verdict(BUDGET)) == expected, (c.q, s.length, s.k)
    print("PASS: spec verdicts equal the generic oracles' on the grid codes and their duals")


def test_criterion_09_negative_controls():
    line = LinearCode(field(5), [[1, 2]])
    assert line.hull_dimension() == 1
    assert line.is_lcd() is False
    with pytest.raises(NoConstructionApplies):
        construct_auto(field(7), 5, 2)
    print(
        "PASS criterion 9: self-orthogonal line reports hull 1 / not LCD; "
        "(q, n, k) = (7, 5, 2) raises NoConstructionApplies"
    )


def test_criterion_10_sweep_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["sweep", "--q", "9", "--output", str(a)]) == 0
    assert cli_main(["sweep", "--q", "9", "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text())
    assert parsed["q"] == 9 and parsed["rows"]
    print("PASS criterion 10: two q = 9 sweeps are byte-identical JSON")
