import hashlib
import json
from time import perf_counter

import pytest

from lcdmds.cli import build_parser, main

pytestmark = pytest.mark.usefixtures("clean_budget_env")


@pytest.fixture
def clean_budget_env(monkeypatch):
    monkeypatch.delenv("LCDMDS_BUDGET", raising=False)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_construct_json_report(capsys):
    rc, out, _ = run(capsys, "construct", "--q", "5", "--n", "4", "--k", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["theorem"] == "DivisorOfQMinus1"
    assert report["generator"] == [[1, 1, 1, 2], [1, 2, 4, 1]]
    assert report["verified"]["hull_dimension"] == 0
    assert report["verified"]["is_mds"] is True


def test_construct_text_format(capsys):
    rc, out, _ = run(capsys, "construct", "--q", "5", "--n", "4", "--k", "2", "--format", "text")
    assert rc == 0
    assert "DivisorOfQMinus1" in out
    assert "generator:" in out


def test_construct_round_trips_through_verify(capsys, tmp_path):
    rc, out, _ = run(capsys, "construct", "--q", "7", "--n", "8", "--k", "3")
    assert rc == 0
    path = tmp_path / "code.json"
    path.write_text(out)
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    verdict = json.loads(out)
    assert verdict["is_lcd"] and verdict["is_mds"]
    assert verdict["hull_dimension"] == 0


def test_construct_no_construction_exit_3(capsys):
    rc, _, err = run(capsys, "construct", "--q", "7", "--n", "5", "--k", "2")
    assert rc == 3
    assert "does not rule out" in err


def test_construct_usage_errors_exit_2(capsys):
    rc, _, err = run(capsys, "construct", "--q", "6", "--n", "4", "--k", "2")
    assert rc == 2 and "prime power" in err
    rc, _, err = run(capsys, "construct", "--q", "8", "--n", "4", "--k", "2")
    assert rc == 2 and "even characteristic" in err
    rc, _, err = run(capsys, "construct", "--q", "7", "--p", "7", "--n", "4", "--k", "2")
    assert rc == 2 and "not both" in err


def test_construct_named_theorem_and_overrides(capsys):
    rc, out, _ = run(
        capsys,
        "construct", "--q", "7", "--n", "6", "--k", "3",
        "--theorem", "divisor", "--tail", "3,5",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["spec"]["multipliers"] == [1, 1, 1, 1, 3, 5]

    rc, _, err = run(
        capsys,
        "construct", "--q", "7", "--n", "6", "--k", "2", "--theorem", "extended",
    )
    assert rc == 2 and "n = q + 1" in err


def test_construct_rejects_overrides_the_family_does_not_take(capsys):
    # q = 7, n = 6 is the divisor family (no gamma); n = 8 is extended (no tail)
    for cell, override, family in (
        (("--n", "6", "--k", "3"), ("--gamma", "3"), "DivisorOfQMinus1"),
        (("--n", "8", "--k", "3"), ("--tail", "3"), "ExtendedQPlus1"),
    ):
        rc, out, err = run(capsys, "construct", "--q", "7", *cell, *override)
        assert rc == 2 and out == ""
        assert family in err and override[0].lstrip("-") in err
        assert run(capsys, "construct", "--q", "7", *cell)[0] == 0


def test_construct_skip_verify(capsys):
    rc, out, _ = run(
        capsys, "construct", "--q", "5", "--n", "4", "--k", "2", "--skip-verify"
    )
    assert rc == 0
    assert json.loads(out)["verified"] is None


def test_verify_negative_verdict_exit_1(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "field": {"p": 5, "e": 1, "modulus": [0, 1]},
        "generator": [[1, 2]],
    }))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    verdict = json.loads(out)
    assert verdict["hull_dimension"] == 1 and verdict["is_lcd"] is False


def test_verify_malformed_input_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": {"p": 5')
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2 and "cannot read" in err

    path2 = tmp_path / "empty.json"
    path2.write_text("{}")
    rc, _, _ = run(capsys, "verify", str(path2))
    assert rc == 2

    rc, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert rc == 2

    path3 = tmp_path / "utf16.json"
    path3.write_bytes(b"\xff\xfe{\x00}\x00")
    rc, _, err = run(capsys, "verify", str(path3))
    assert rc == 2 and "cannot read code file" in err

    # n, p, e and the modulus must be JSON integers, not values int() would
    # truncate or coerce; [[1, 2]] over GF(5) is a valid code that is not LCD
    for record, n in (
        ({"p": 5, "e": 1}, 2.5),
        ({"p": 5, "e": 1}, "2"),
        ({"p": 5.0, "e": 1}, 2),
        ({"p": 5, "e": True}, 2),
        ({"p": 5, "e": 1, "modulus": [0.0, 1]}, 2),
    ):
        path4 = tmp_path / "numbers.json"
        path4.write_text(json.dumps({"field": record, "n": n, "generator": [[1, 2]]}))
        rc, _, err = run(capsys, "verify", str(path4))
        assert rc == 2 and "must be an integer" in err and "Traceback" not in err
    path4.write_text(json.dumps({"field": {"p": 5, "e": 1}, "n": 2, "generator": [[1, 2]]}))
    assert run(capsys, "verify", str(path4))[0] == 1


def test_verify_huge_field_exits_2_at_once(capsys, tmp_path):
    for record in ({"p": 2**61 - 1, "e": 1}, {"p": 3, "e": 10**9}):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"field": record, "generator": [[1]]}))
        start = perf_counter()
        rc, _, err = run(capsys, "verify", str(path))
        assert perf_counter() - start < 1
        assert rc == 2 and "cap" in err and "Traceback" not in err


def test_huge_q_exits_2_at_once(capsys):
    q = str(2**61 - 1)
    for argv in (("info", "--q", q), ("sweep", "--q", q),
                 ("construct", "--q", q, "--n", "4", "--k", "2")):
        start = perf_counter()
        rc, _, err = run(capsys, *argv)
        assert perf_counter() - start < 1
        assert rc == 2 and "cap 2^16" in err and "Traceback" not in err


def test_verify_budget_exit_5(capsys, tmp_path):
    rc, out, _ = run(capsys, "construct", "--q", "9", "--n", "9", "--k", "4")
    path = tmp_path / "big.json"
    path.write_text(out)
    rc, _, err = run(capsys, "verify", str(path), "--budget", "1")
    assert rc == 5 and "budget" in err


def test_construct_over_budget_exits_5_with_a_short_message(capsys):
    start = perf_counter()
    rc, out, err = run(capsys, "construct", "--q", "243", "--n", "244", "--k", "100",
                       "--budget", "20000")
    assert perf_counter() - start < 1
    assert rc == 5 and out == ""
    assert "MDS check" in err and "budget" in err and len(err.rstrip("\n")) < 200


def test_verify_over_budget_report_exits_5_at_once(capsys, tmp_path):
    # the unverified report's generator and verify's full-rank check row-reduce
    # a 100 x 244 matrix over GF(243) before the budget stops the MDS check
    start = perf_counter()
    rc, out, _ = run(capsys, "construct", "--q", "243", "--n", "244", "--k", "100",
                     "--skip-verify")
    assert rc == 0
    path = tmp_path / "big.json"
    path.write_text(out)
    rc, out, err = run(capsys, "verify", str(path), "--budget", "20000")
    assert perf_counter() - start < 1
    assert rc == 5 and out == "" and "MDS check" in err


def test_budget_env_var(capsys, tmp_path, monkeypatch):
    rc, out, _ = run(capsys, "construct", "--q", "9", "--n", "9", "--k", "4")
    path = tmp_path / "big.json"
    path.write_text(out)
    monkeypatch.setenv("LCDMDS_BUDGET", "1")
    rc, _, _ = run(capsys, "verify", str(path))
    assert rc == 5
    monkeypatch.setenv("LCDMDS_BUDGET", "junk")
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2 and "LCDMDS_BUDGET" in err
    monkeypatch.setenv("LCDMDS_BUDGET", "-3")
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2 and "LCDMDS_BUDGET" in err and "-3" in err
    monkeypatch.delenv("LCDMDS_BUDGET")
    rc, _, err = run(capsys, "verify", str(path), "--budget", "-1")
    assert rc == 2 and "--budget" in err and "-1" in err
    # the budget is checked before the code file is read
    rc, _, err = run(capsys, "verify", str(tmp_path / "missing.json"), "--budget", "-1")
    assert rc == 2 and "--budget" in err


def test_sweep_q5(capsys, tmp_path):
    out_path = tmp_path / "sweep5.json"
    rc, out, _ = run(capsys, "sweep", "--q", "5", "--output", str(out_path))
    assert rc == 0
    result = json.loads(out_path.read_text())
    rows = {(r["n"], r["k"]): r for r in result["rows"]}
    assert set(rows) == {(4, 2), (5, 2), (6, 2), (6, 3)}  # no admissible k for n = 3
    assert all(r["verified"] and r["hull_dimension"] == 0 and r["is_mds"] for r in rows.values())
    assert rows[(4, 2)]["condition"] == "DivisorOfQMinus1"
    assert rows[(6, 2)]["condition"] == "ExtendedQPlus1"


def test_sweep_q7_has_uncovered_row(capsys, tmp_path):
    out_path = tmp_path / "sweep7.json"
    rc, _, _ = run(capsys, "sweep", "--q", "7", "--output", str(out_path))
    assert rc == 0
    rows = {(r["n"], r["k"]): r for r in json.loads(out_path.read_text())["rows"]}
    assert rows[(5, 2)]["condition"] == "none"
    assert rows[(5, 2)]["verified"] is False
    assert rows[(5, 2)]["hull_dimension"] is None


def test_sweep_rejects_bad_fields(capsys):
    rc, _, err = run(capsys, "sweep", "--q", "4")
    assert rc == 2 and "even characteristic" in err
    rc, _, err = run(capsys, "sweep", "--q", "3")
    assert rc == 2 and "q > 3" in err


def test_sweep_unwritable_output_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    rc, out, err = run(capsys, "sweep", "--q", "5", "--output", str(path))
    assert rc == 2 and "lcdmds: cannot write" in err and "Traceback" not in err
    # the path is opened before the first cell, so no table row is printed
    assert out == ""


# sha256 of canonical output bytes, recorded from a known-good build. These
# bytes are a fixed constraint: a change to any of them must be deliberate,
# with the hashes recorded again.
PINNED_SWEEP_JSON = {
    "5": "deff9c58d09963cf242a0333b7f13de41585f4d46436ae40efbe38ccac21a538",
    "7": "c48e065d692e9ffa06f7cd79e90d0ef47705d55d258a6d741822a3a498cd649d",
    "9": "aeac4523b4df4c55bf19110d2a15879556df27bc0c233aa2d297fb258d882eab",
}
PINNED_CONSTRUCT_STDOUT = {
    ("--q", "9", "--n", "10", "--k", "4"): "7f632656d40f02ffb00221193d7e25c58723f2d3e03f42df95ec03e1faaf6d60",
    ("--q", "9", "--n", "7", "--k", "3"): "30b401f766341413e91563f3deaaa48aa97a5a5e6598c28401bb637ee3e16e7d",
    ("--q", "11", "--n", "6", "--k", "3"): "12259889612c66518251aba3402817f4891b20bcc3813dd233d222afba963d3e",
    ("--q", "13", "--n", "12", "--k", "6"): "da2ec68555c0d82125d28088a6d69b71485674a210b313ea20f996a3df85e1c6",
    ("--q", "13", "--n", "13", "--k", "4"): "f139093dc29ca7bb17578ed778974ef6fb2b67121d2a4f570ea3c6a1896740f2",
    ("--q", "13", "--n", "14", "--k", "5"): "fc79f505b1f9a33cd04b19d31454efeffd8a256958b1ca31829c431165bb5792",
    ("--q", "25", "--n", "12", "--k", "5"): "2e2576b11c2bdf6ef112ab78bfcdc44866c0f77f1206087234b9e3ac1c58d710",
    ("--q", "27", "--n", "9", "--k", "3"): "221c6d51acb43006e27c1b886a49d9e56f16aa8a1aaf3eff2a2a6d6ec31a8185",
    ("--q", "27", "--n", "14", "--k", "4"): "3ea7bba370a12dd4a8049ce64b053a2aa61ec0ed36e1058b2823a6f1f2eb67db",
    ("--q", "13", "--n", "8", "--k", "4", "--format", "text"): "b2291839644399033e0b1eb8063893948a8f171ec37c4d61a833e38273c5be1b",
}


def test_outputs_match_pinned_hashes(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    for q, digest in PINNED_SWEEP_JSON.items():
        assert run(capsys, "sweep", "--q", q, "--output", str(path))[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, q
    for argv, digest in PINNED_CONSTRUCT_STDOUT.items():
        rc, out, _ = run(capsys, "construct", *argv)
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_sweep_table_rendering(capsys):
    rc, out, _ = run(capsys, "sweep", "--q", "5")
    assert rc == 0
    assert "condition" in out and "DivisorOfQMinus1" in out
    # without --output the JSON payload follows the table on stdout
    assert '"rows"' in out


def test_info(capsys):
    rc, out, _ = run(capsys, "info", "--q", "9")
    assert rc == 0
    info = json.loads(out)
    assert info["modulus"] == [1, 0, 1]
    assert info["primitive_element"] == 4
    rc, out, _ = run(capsys, "info", "--q", "7", "--n", "5", "--k", "2")
    assert json.loads(out)["applicable_conditions"] == []


def test_info_rejects_the_cells_construct_rejects(capsys):
    for q, n, k in ((8, 7, 3), (7, 4, 3), (3, 4, 2)):
        cell = ("--q", str(q), "--n", str(n), "--k", str(k))
        rc, out, err = run(capsys, "info", *cell)
        assert rc == 2 and out == ""
        assert (rc, err) == run(capsys, "construct", *cell)[::2]


def test_info_needs_both_n_and_k(capsys):
    for half in (("--n", "5"), ("--k", "2")):
        rc, out, err = run(capsys, "info", "--q", "7", *half)
        assert rc == 2 and out == ""
        assert "--n and --k" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()
