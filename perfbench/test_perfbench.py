"""Self-tests of the benchmark: its oracles on hand-checked cases, and every
workload at reduced size. Run with: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles as O
import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---------- oracles on hand-checked cases ----------


def test_family_conditions_by_hand():
    assert O.family(5, 1, 6, 3) == O.EXTENDED  # n = q + 1
    assert O.family(7, 1, 6, 2) == O.DIVISOR  # 6 | 6
    assert O.family(3, 2, 9, 4) == O.PRIME_POWER  # 9 = 3^2, 9 does not divide 8
    assert O.family(11, 1, 8, 4) == O.LARGE_NK  # 8 + 4 >= 12
    assert O.family(13, 1, 7, 2) == O.WINDOW  # 12 < 13 <= 14
    assert O.family(13, 1, 8, 2) is None


def test_extension_field_arithmetic():
    F = O.GF(3, 2)
    assert F.modulus == (1, 0, 1)  # X^2 + 1, the first irreducible
    assert F.mul(3, 3) == 2  # X * X = -1
    assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, 9))
    assert not O.is_irreducible((2, 0, 1), 3)  # X^2 + 2 = (X + 1)(X + 2)


def test_reed_solomon_on_all_elements_is_self_orthogonal():
    F = O.GF(7)
    for k in (2, 3):
        G = O.grs_generator(F, list(range(7)), [1, 6, 1, 1, 6, 6, 1], k)
        assert O.hull_dimension(F, G) == k
        assert O.min_distance(F, G) == 7 - k + 1


def test_equal_column_pair_makes_a_code_non_mds():
    F = O.GF(7)
    G = O.grs_generator(F, [1, 2, 3, 4, 5, 6], [1, 1, 1, 1, 1, 1], 3)
    assert O.is_mds_by_subsets(F, G) and O.min_distance(F, G) == 4
    for row in G:
        row[4] = row[1]
    assert O.rank(F, G) == 3
    assert O.columns_singular(F, G, (0, 1, 4))
    assert not O.is_mds_by_subsets(F, G)
    assert O.min_distance(F, G) < 4


def test_four_two_codes_over_gf5():
    F = O.GF(5)
    # codewords (a, b, a + b, a + 2b): every nonzero one has weight 3
    lcd = [[1, 0, 1, 1], [0, 1, 1, 2]]
    assert O.min_distance(F, lcd) == 3 and O.is_mds_by_subsets(F, lcd)
    assert O.gram(F, lcd) == [[3, 3], [3, 1]]  # determinant 4, nonzero
    assert O.hull_dimension(F, lcd) == 0
    # (1, 2) . (1, 2) = 5 = 0: this code is self-dual and has weight-2 words
    self_dual = [[1, 2, 0, 0], [0, 0, 1, 2]]
    assert O.hull_dimension(F, self_dual) == 2
    assert O.min_distance(F, self_dual) == 2 and not O.is_mds_by_subsets(F, self_dual)


# ---------- every workload at reduced size ----------


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_small(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, small=True)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        import lcdmds.linear

        assert not hasattr(lcdmds.linear.rref, "__wrapped__")  # wrappers removed


def test_same_seed_same_inputs(tmp_path):
    pkg = run.load_package()
    a = run.W.VerifyMixed(pkg, 5, small=True, workdir=tmp_path / "a")
    b = run.W.VerifyMixed(pkg, 5, small=True, workdir=tmp_path / "b")
    assert [it["generator"] for it in a.items] == [it["generator"] for it in b.items]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode != 0 and res.stdout == ""
