import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lcdmds.cli
import lcdmds.grs
import lcdmds.linear
from lcdmds import (
    BudgetExceeded,
    FieldMismatch,
    GrsSpec,
    NoConstructionApplies,
    ParameterError,
    TheoremViolation,
)
from lcdmds.cli import build_parser, main
from lcdmds.construct import FAMILIES, applicable_conditions
from lcdmds.fields import field, prime_power
from lcdmds.linear import DEFAULT_BUDGET

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


def test_construct_round_trips_through_verify(capsys, tmp_path, monkeypatch):
    rc, report, _ = run(capsys, "construct", "--q", "7", "--n", "8", "--k", "3")
    assert rc == 0
    path = tmp_path / "code.json"
    path.write_text(report)
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    verdict = json.loads(out)
    assert verdict["is_lcd"] and verdict["is_mds"]
    assert verdict["hull_dimension"] == 0
    # "-" reads the report from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(report))
    assert run(capsys, "verify", "-") == (0, out, "")


def test_construct_no_construction_exit_3(capsys):
    rc, _, err = run(capsys, "construct", "--q", "7", "--n", "5", "--k", "2")
    assert rc == 3
    assert "does not rule out" in err


def test_construct_usage_errors_exit_2(capsys):
    rc, _, err = run(capsys, "construct", "--q", "6", "--n", "4", "--k", "2")
    assert rc == 2 and "prime power" in err
    rc, _, err = run(capsys, "construct", "--q", "8", "--n", "4", "--k", "2")
    assert rc == 2 and "even characteristic" in err
    # --q is the one field flag, and no flag is taken by an abbreviation:
    # --p is neither --permutation nor a second way to name the field
    for flag in ("--p", "--perm"):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--q", "7", flag, "7", "--n", "4", "--k", "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--q", "7", "--n", "6", "--k", "3", "--tail", "3,x"])
    assert exc.value.code == 2
    assert "expected comma-separated integers, got '3,x'" in capsys.readouterr().err


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


def test_construct_skip_verify(capsys, monkeypatch, eliminations):
    rc, out, _ = run(
        capsys, "construct", "--q", "5", "--n", "4", "--k", "2", "--skip-verify"
    )
    assert rc == 0
    assert json.loads(out)["verified"] is None
    # a report writes its code record from the spec's rows: in either format,
    # and from construct_auto(...).to_dict(), no LinearCode is made, so there
    # is no G Gt and no elimination; the record is the code's own
    inits = []
    init = lcdmds.linear.LinearCode.__init__
    monkeypatch.setattr(lcdmds.linear.LinearCode, "__init__",
                        lambda self, *args, **kw: inits.append(args) or init(self, *args, **kw))
    argv = ("construct", "--q", "7", "--n", "8", "--k", "3", "--skip-verify")
    rc, out, _ = run(capsys, *argv)
    rc_text, text, _ = run(capsys, *argv, "--format", "text")
    reports = [lcdmds.construct_auto(lcdmds.field(7), n, 3) for n in (8, 6)]  # extended, and not
    records = [report.to_dict() for report in reports]
    assert (rc, rc_text, inits, eliminations) == (0, 0, [], [])
    record = json.loads(out)
    assert record == records[0] and "code:    [8, 3] over GF(7)" in text
    assert text.split("generator:\n")[1].split() == [str(x) for row in record["generator"] for x in row]
    for report, record in zip(reports, records):
        code = report.spec.generator().to_dict()
        assert {key: record[key] for key in code} == code


def test_construct_reads_its_budget_before_it_builds(capsys, monkeypatch):
    # with or without --skip-verify, which never reaches the budget otherwise
    builds = []
    monkeypatch.setattr(lcdmds.cli, "construct_auto", lambda *a, **kw: builds.append(a))
    argv = ("construct", "--q", "7", "--n", "6", "--k", "3")
    for skip in ((), ("--skip-verify",)):
        rc, out, err = run(capsys, *argv, *skip, "--budget", "-1")
        assert rc == 2 and out == "" and "--budget must not be negative, got -1" in err
        monkeypatch.setenv("LCDMDS_BUDGET", "junk")
        rc, out, err = run(capsys, *argv, *skip)
        assert rc == 2 and out == "" and "LCDMDS_BUDGET must be an integer" in err
        monkeypatch.delenv("LCDMDS_BUDGET")
    assert builds == []


@pytest.mark.parametrize("error, code", [
    (NoConstructionApplies, 3),
    (TheoremViolation, 4),
    (BudgetExceeded, 5),
    (ParameterError, 2),
    (FieldMismatch, 2),
])
def test_each_error_class_exits_with_its_documented_code(capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error("planted failure")

    monkeypatch.setattr(lcdmds.cli, "construct_auto", fail)
    rc, out, err = run(capsys, "construct", "--q", "5", "--n", "4", "--k", "2")
    assert (rc, out, err) == (code, "", "lcdmds: planted failure\n")


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

    # nesting past the recursion limit, and an integer past int()'s digit limit
    for name, text in (("nested.json", "[" * 100_000), ("digits.json", "[" + "7" * 5000 + "]")):
        (tmp_path / name).write_text(text)
        rc, _, err = run(capsys, "verify", str(tmp_path / name))
        assert rc == 2 and "cannot read code file" in err and "Traceback" not in err

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


# Any JSON value, with integers small enough that a field they name stays small
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
GENERATORS = st.tuples(st.integers(1, 3), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(0, 4), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    p=st.sampled_from([5, 7]),
    e=st.integers(1, 2),
    generator=GENERATORS,
    key=st.sampled_from([None, "field", "generator", "n", "p", "e", "modulus"]),
    value=JSON_VALUES,
)
def test_verify_fuzzed_records_exit_with_a_documented_code(
    tmp_path_factory, p, e, generator, key, value
):
    # a valid record with at most one entry replaced by an arbitrary JSON value
    record = {"field": {"p": p, "e": e}, "generator": generator}
    if key in ("p", "e", "modulus"):
        record["field"][key] = value
    elif key is not None:
        record[key] = value
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(record))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["verify", str(path)]) in (0, 1, 2, 5)


ODD_Q_TO_31 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31]


@st.composite
def construct_argvs(draw):
    """construct arguments: a cell over an odd q <= 31, some out of range, and
    maybe a random --permutation, --gamma and --tail where the cell's family
    takes them. Values are drawn from the whole field, so some are invalid."""
    q = draw(st.sampled_from(ODD_Q_TO_31))
    n = draw(st.integers(4, q + 1))
    k = draw(st.integers(2, n // 2))
    # one draw in four moves the cell out of range: k = 1, k > n/2 or n > q + 1
    n, k = draw(st.sampled_from([(n, k)] * 9 + [(n, 1), (n, n // 2 + 1), (q + 2, k)]))
    # a valid cell that no MDS route fits exits 5, which this test does not ask about
    assume(not 1 < k <= n // 2 or q**k <= DEFAULT_BUDGET or comb(n, k) <= DEFAULT_BUDGET)
    argv = ["construct", "--q", str(q), "--n", str(n), "--k", str(k)]
    try:
        tags = applicable_conditions(field(*prime_power(q)), n, k)
    except ParameterError:
        tags = []
    takes = next((f.overrides for f in FAMILIES if tags and f.tag == tags[0]), ())
    values = {
        "permutation": st.permutations(range(q)),
        "gamma": st.integers(0, q - 1).map(lambda gamma: [gamma]),
        "tail": st.lists(st.integers(0, q - 1), min_size=1, max_size=k),
    }
    for name in takes:
        if draw(st.booleans()):
            argv += [f"--{name}", ",".join(map(str, draw(values[name])))]
    return argv


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(argv=construct_argvs())
def test_construct_fuzz_gives_a_verified_code_or_a_usage_exit(argv):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        rc = main(argv)
    if rc == 0:
        verified = json.loads(out.getvalue())["verified"]
        assert verified["hull_dimension"] == 0 and verified["is_mds"] is True, argv
    else:
        assert rc in (2, 3) and out.getvalue() == "", (argv, rc)


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


def test_unusable_fields_exit_2_before_a_table_build(capsys, tmp_path, field_builds):
    # the constructions reject even q from the parsed order, before GF(2^16) is built
    for argv in (("construct", "--q", "65536", "--n", "5", "--k", "2"),
                 ("sweep", "--q", "65536")):
        rc, _, err = run(capsys, *argv)
        assert rc == 2 and "q = 65536 has even characteristic" in err
    # the record's p is checked before its modulus is compared with the canonical one
    for record, message in (({"p": 4, "e": 2, "modulus": [1, 1, 1]}, "not prime"),
                            ({"p": 65537, "e": 1, "modulus": [0, 1]}, "cap")):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"field": record, "generator": [[1]]}))
        rc, _, err = run(capsys, "verify", str(path))
        assert rc == 2 and message in err and "Traceback" not in err
    assert field_builds == []


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


def test_over_budget_codes_are_never_built(capsys, monkeypatch, tmp_path):
    # construct and every sweep cell meet the budget before construct_auto
    builds = []
    real = lcdmds.cli.construct_auto
    monkeypatch.setattr(lcdmds.cli, "construct_auto",
                        lambda F, n, k, **kw: builds.append((n, k)) or real(F, n, k, **kw))
    argv = ("construct", "--q", "243", "--n", "244", "--k", "100", "--budget", "20000")
    for theorem in ((), ("--theorem", "extended")):
        rc, out, err = run(capsys, *argv, *theorem)
        assert rc == 5 and out == "" and "MDS check" in err
    assert builds == []
    path = tmp_path / "sweep7.json"
    assert run(capsys, "sweep", "--q", "7", "--budget", "10", "--output", str(path))[0] == 5
    rows = json.loads(path.read_text())["rows"]
    assert builds == [(r["n"], r["k"]) for r in rows if r["status"] == "ok"] != []


@pytest.mark.parametrize("cell, code, message", [
    (("--q", "7", "--n", "100", "--k", "50"), 2, "n = 100 exceeds q + 1 = 8"),
    (("--q", "13", "--n", "9", "--k", "3"), 3, "no covered family matches q = 13, n = 9, k = 3"),
    (("--q", "13", "--n", "12", "--k", "3", "--theorem", "window"), 2,
     "Window2n needs n < q and 2n - k < q <= 2n; got q = 13, n = 12, k = 3"),
    (("--q", "7", "--n", "6", "--k", "3", "--gamma", "3"), 2,
     "DivisorOfQMinus1 does not take the gamma override; it takes tail"),
    # an override's value is its builder's check, which comes after the budget
    (("--q", "13", "--n", "14", "--k", "3", "--gamma", "1"), 5, "MDS check"),
])
def test_construct_checks_its_cell_before_the_budget(capsys, cell, code, message):
    rc, out, err = run(capsys, "construct", *cell, "--budget", "1")
    assert (rc, out) == (code, "") and message in err


def test_verify_over_budget_report_exits_5_at_once(capsys, tmp_path):
    # the unverified report's generator row-reduces a 100 x 244 matrix over
    # GF(243); verify meets the budget before its own elimination
    start = perf_counter()
    rc, out, _ = run(capsys, "construct", "--q", "243", "--n", "244", "--k", "100",
                     "--skip-verify")
    assert rc == 0
    path = tmp_path / "big.json"
    path.write_text(out)
    rc, out, err = run(capsys, "verify", str(path), "--budget", "20000")
    assert perf_counter() - start < 1
    assert rc == 5 and out == "" and "MDS check" in err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_cli_quietly():
    # lcdmds sweep --q 13 | head -2: once the reader has gone, the next write
    # ends the process by SIGPIPE, with no BrokenPipeError traceback and no
    # exit 1, the code for a non-LCD or non-MDS code
    read, write = os.pipe()
    os.close(read)
    src = os.path.dirname(os.path.dirname(lcdmds.cli.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    try:
        proc = subprocess.run([sys.executable, "-m", "lcdmds", "sweep", "--q", "13"], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert proc.stderr == b"" and proc.returncode == -signal.SIGPIPE


@pytest.fixture
def eliminations(monkeypatch):
    """The name of each linear._product and linear._rref call while the test runs."""
    calls = []
    for name in ("_product", "_rref"):
        def spy(*args, _name=name, _original=getattr(lcdmds.linear, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(lcdmds.linear, name, spy)
    return calls


def test_verify_meets_the_budget_before_any_elimination(capsys, tmp_path, eliminations):
    def verify(record, *budget):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(record))
        return run(capsys, "verify", str(path), *budget)

    # [I | random] over GF(9) has full rank, and neither 9^20 codewords nor
    # C(40, 20) column subsets fit a budget of 10
    rng = random.Random(7)
    gen = [[int(i == j) for j in range(20)] + [rng.randrange(9) for _ in range(20)]
           for i in range(20)]
    gf9 = {"p": 3, "e": 2}
    rc, out, err = verify({"field": gf9, "generator": gen}, "--budget", "10")
    assert rc == 5 and out == "" and "MDS check" in err
    assert eliminations == []
    # the record's own checks still come first, and keep exit 2
    bad = [row[:] for row in gen]
    bad[3][25] = 9
    for record, message in (
        ({"field": gf9, "generator": bad}, "9 is not an element index of GF(9)"),
        ({"field": gf9, "generator": gen[:-1] + [gen[-1][:-1]]}, "rows have unequal lengths"),
        ({"field": gf9, "generator": gen, "n": 41}, "explicit length disagrees"),
        ({"field": gf9, "generator": []}, "zero-dimensional code needs an explicit length"),
        ({"field": gf9, "generator": [], "n": 4}, "zero-dimensional code has no MDS predicate"),
    ):
        for budget in (("--budget", "10"), ()):
            rc, out, err = verify(record, *budget)
            assert rc == 2 and out == "" and message in err, record
    assert eliminations == []
    # the rank check follows the G Gt elimination, so it too waits for the
    # budget: a rank-deficient record over budget exits 5, and within budget 2
    # after the singular G Gt sends it to the elimination of G
    dependent = {"field": gf9, "generator": gen[:-1] + [gen[0]]}
    rc, out, err = verify(dependent, "--budget", "10")
    assert rc == 5 and out == "" and "MDS check" in err
    assert eliminations == []
    rc, out, err = verify({"field": {"p": 5, "e": 1}, "generator": [[1, 2, 3], [2, 4, 1]]})
    assert rc == 2 and out == "" and "generator rows are linearly dependent" in err
    assert eliminations == ["_product", "_rref", "_rref"]


def test_construct_and_sweep_prove_codes_from_their_specs(capsys, tmp_path, monkeypatch, eliminations):
    # verify_report proves a report from its spec: it makes no LinearCode, no
    # G Gt (_product) and no RREF of G, and the rank of the Hankel matrix
    # comes from its linear complexity, so no k x k RREF either; nor does it
    # weigh a codeword (_enumerate_min_weight) on either route
    inits, weighed = [], []
    init, weigh = lcdmds.linear.LinearCode.__init__, lcdmds.linear._enumerate_min_weight
    monkeypatch.setattr(lcdmds.linear.LinearCode, "__init__",
                        lambda self, *args, **kw: inits.append(args) or init(self, *args, **kw))
    monkeypatch.setattr(lcdmds.linear, "_enumerate_min_weight",
                        lambda *args: weighed.append(args) or weigh(*args))
    rc, out, _ = run(capsys, "construct", "--q", "27", "--n", "28", "--k", "5")
    assert rc == 0 and json.loads(out)["verified"] == {
        "hull_dimension": 0, "is_lcd": True, "is_mds": True,
        "mds_route": "column_subsets", "min_distance": None,
    }
    rc, out, _ = run(capsys, "construct", "--q", "97", "--n", "98", "--k", "3")
    assert rc == 0 and json.loads(out)["verified"] == {
        "hull_dimension": 0, "is_lcd": True, "is_mds": True,
        "mds_route": "enumeration", "min_distance": 96,
    }
    path = tmp_path / "sweep.json"
    assert run(capsys, "sweep", "--q", "9", "--output", str(path))[0] == 0
    # nor does a spec whose code is not LCD: the extended [26, 5] code with
    # v = 1 over GF(25) has hull 4 from its linear complexity 9 alone
    spec = lcdmds.GrsSpec(field(5, 2), tuple(range(25)), (1,) * 25, 5, extended=True)
    assert spec.verdict()["hull_dimension"] == 4
    assert (inits, eliminations, weighed) == ([], [], [])
    # the enumeration route names the budget route, and its min_distance is
    # n - k + 1 from the checked form, not from weighed codewords
    rows = [r for r in json.loads(path.read_text())["rows"] if r["status"] == "ok"]
    enumerated = [r for r in rows if r["mds_route"] == "enumeration"]
    assert len(enumerated) == len(rows) == 13
    assert all(r["min_distance"] == r["n"] - r["k"] + 1 for r in enumerated)
    # the spy sees the oracle's calls: verify weighs the codewords of a record
    # the GRS certificate does not prove MDS, the [98, 3] code with column 0
    # copied over column 1
    record = json.loads(out)
    generator = [row[:1] * 2 + row[2:] for row in record["generator"]]
    path.write_text(json.dumps({"field": record["field"], "generator": generator}))
    assert run(capsys, "verify", str(path))[0] == 1 and [G.shape for _, G in weighed] == [(3, 98)]


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


def test_sweep_rejects_bad_fields(capsys, tmp_path):
    rc, _, err = run(capsys, "sweep", "--q", "4")
    assert rc == 2 and "even characteristic" in err
    rc, _, err = run(capsys, "sweep", "--q", "3")
    assert rc == 2 and "q > 3" in err
    rc, _, err = run(capsys, "sweep", "--q", "7", "--n-max", "9")
    assert rc == 2 and "--n-max cannot exceed q + 1 = 8" in err
    # 4 is the smallest length swept: below it the grid would be empty
    for n_max in ("-7", "0", "3"):
        rc, out, err = run(capsys, "sweep", "--q", "5", "--n-max", n_max)
        assert rc == 2 and out == "" and "--n-max must be at least 4" in err
    path = tmp_path / "sweep.json"
    rc, _, _ = run(capsys, "sweep", "--q", "5", "--n-max", "4", "--output", str(path))
    assert rc == 0 and [(r["n"], r["k"]) for r in json.loads(path.read_text())["rows"]] == [(4, 2)]


def test_sweep_over_budget_rows_exit_5(capsys, tmp_path):
    out_path = tmp_path / "sweep7.json"
    rc, _, _ = run(capsys, "sweep", "--q", "7", "--budget", "10", "--output", str(out_path))
    assert rc == 5
    rows = {(r["n"], r["k"]): r for r in json.loads(out_path.read_text())["rows"]}
    assert rows[(4, 2)]["status"] == "ok" and rows[(4, 2)]["verified"] is True
    over = [cell for cell in rows if cell[0] >= 6]
    assert over == [(6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3), (8, 4)]
    for cell in over:
        row = rows[cell]
        assert row["status"] == "budget_exceeded" and row["verified"] is False
        assert row["hull_dimension"] is row["is_mds"] is row["mds_route"] is None
        assert row["min_distance"] is None


def test_sweep_verdicts_agree_across_budgets(capsys, tmp_path):
    # a row decided at two budgets, violations included, keeps its hull and
    # MDS verdict, though budget 300 sends many rows from enumeration to the
    # column-subset route; past q = 13 the lengths stop at 13
    path = tmp_path / "sweep.json"
    decided = moved = 0
    for q in (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31):
        n_max = ("--n-max", "13") if q > 13 else ()
        rows = []
        for budget in ((), ("--budget", "300")):
            run(capsys, "sweep", "--q", str(q), *n_max, *budget, "--output", str(path))
            rows.append({(r["n"], r["k"]): r for r in json.loads(path.read_text())["rows"]
                         if r["status"] not in ("budget_exceeded", "no_construction")})
        for cell in rows[0].keys() & rows[1].keys():
            ours, other = rows[0][cell], rows[1][cell]
            assert (ours["hull_dimension"], ours["is_mds"]) == (other["hull_dimension"], other["is_mds"])
            decided += 1
            moved += ours["mds_route"] != other["mds_route"]
    assert decided > moved > 0


def test_sweep_isolates_a_violation(capsys, tmp_path, monkeypatch):
    # a sweep proves the built cells of a chunk together; a planted non-LCD
    # spec, or planted rows that are not the spec's V diag(v), turns its own
    # row to violation and the exit code to 4, and every other row of the
    # chunk reads as in the unplanted run
    path = tmp_path / "sweep.json"
    assert run(capsys, "sweep", "--q", "9", "--output", str(path))[0] == 0
    clean = json.loads(path.read_text())["rows"]
    F, build, proofs, batches = field(3, 2), lcdmds.cli.construct_auto, lcdmds.grs._proofs, []
    monkeypatch.setattr(lcdmds.grs, "_proofs", lambda specs: batches.append(specs) or proofs(specs))

    def not_lcd(report):  # the extended [10, 3] code with v = 1 has hull 2
        report.spec = GrsSpec(F, tuple(range(9)), (1,) * 9, 3, extended=True)

    def corrupt_rows(report):
        rows = report.spec._rows.copy()
        rows[-1, 2] = (rows[-1, 2] + 1) % 9
        report.spec.__dict__["_rows"] = rows

    for cell, plant, hull in (((10, 3), not_lcd, 2), ((8, 3), corrupt_rows, None)):
        def construct_auto(F, n, k, **kw):
            report = build(F, n, k, **kw)
            if (n, k) == cell:
                plant(report)
            return report

        monkeypatch.setattr(lcdmds.cli, "construct_auto", construct_auto)
        batches.clear()
        assert run(capsys, "sweep", "--q", "9", "--output", str(path))[0] == 4
        rows = json.loads(path.read_text())["rows"]
        i = next(i for i, row in enumerate(rows) if (row["n"], row["k"]) == cell)
        assert (rows[i]["status"], rows[i]["verified"], rows[i]["hull_dimension"]) == ("violation", False, hull)
        assert rows[:i] + rows[i + 1 :] == clean[:i] + clean[i + 1 :]
        # the planted spec was proven in one batch with at least 5 others
        assert [len(b) for b in batches if any((s.length, s.k) == cell for s in b)][0] >= 6


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
    ("--q", "5"): "deff9c58d09963cf242a0333b7f13de41585f4d46436ae40efbe38ccac21a538",
    ("--q", "7"): "c48e065d692e9ffa06f7cd79e90d0ef47705d55d258a6d741822a3a498cd649d",
    ("--q", "9"): "aeac4523b4df4c55bf19110d2a15879556df27bc0c233aa2d297fb258d882eab",
    # the first pinned sweep with column_subsets rows (4 of them)
    ("--q", "13"): "1cc28893883170c70eb1e13c3877d2474ec9b887ad98923699ad5da7dbda562e",
    # the benchmark's extension-field grids, recorded from the build that
    # weighed every enumeration cell's codewords for its min_distance
    ("--q", "25", "--n-max", "13"): "d1dd5131a81728a2dad03d2d5ffc5b7e87a77d68349b88b383dc189045dbc4d3",
    ("--q", "27", "--n-max", "13"): "43719eb38b1fc0d1e26c410d2b4deec53ef39db3e76a5c847882ecddc26d28fb",
}
PINNED_CONSTRUCT_STDOUT = {
    ("--q", "9", "--n", "10", "--k", "4"): "7f632656d40f02ffb00221193d7e25c58723f2d3e03f42df95ec03e1faaf6d60",
    ("--q", "9", "--n", "7", "--k", "3"): "30b401f766341413e91563f3deaaa48aa97a5a5e6598c28401bb637ee3e16e7d",
    ("--q", "11", "--n", "6", "--k", "3"): "12259889612c66518251aba3402817f4891b20bcc3813dd233d222afba963d3e",
    ("--q", "13", "--n", "12", "--k", "6"): "da2ec68555c0d82125d28088a6d69b71485674a210b313ea20f996a3df85e1c6",
    ("--q", "13", "--n", "13", "--k", "4"): "f139093dc29ca7bb17578ed778974ef6fb2b67121d2a4f570ea3c6a1896740f2",
    ("--q", "13", "--n", "14", "--k", "5"): "fc79f505b1f9a33cd04b19d31454efeffd8a256958b1ca31829c431165bb5792",
    # unverified: "verified": null
    ("--q", "13", "--n", "14", "--k", "5", "--skip-verify"): "9bd4eabf189a92b857fef3a7443b3f49bfc27515a882b1c760192959d0d94bea",
    ("--q", "25", "--n", "12", "--k", "5"): "2e2576b11c2bdf6ef112ab78bfcdc44866c0f77f1206087234b9e3ac1c58d710",
    ("--q", "27", "--n", "9", "--k", "3"): "221c6d51acb43006e27c1b886a49d9e56f16aa8a1aaf3eff2a2a6d6ec31a8185",
    ("--q", "27", "--n", "14", "--k", "4"): "3ea7bba370a12dd4a8049ce64b053a2aa61ec0ed36e1058b2823a6f1f2eb67db",
    ("--q", "13", "--n", "8", "--k", "4", "--format", "text"): "b2291839644399033e0b1eb8063893948a8f171ec37c4d61a833e38273c5be1b",
}


def test_outputs_match_pinned_hashes(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    for argv, digest in PINNED_SWEEP_JSON.items():
        assert run(capsys, "sweep", *argv, "--output", str(path))[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, argv
    for argv, digest in PINNED_CONSTRUCT_STDOUT.items():
        rc, out, _ = run(capsys, "construct", *argv)
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of verify and info stdout, recorded from the build that wrote
# through json.dumps(sort_keys=True, indent=2): (record, exit code, digest)
PINNED_VERIFY_STDOUT = {
    "lcd_mds": ({"field": {"p": 5, "e": 1}, "generator": [[1, 1, 1, 2], [1, 2, 4, 1]]}, 0,
                "a301f97bc1f277dfb0d582af33dfb1d941c55e8a852728dd853e27192b1d4da8"),
    "not_lcd": ({"field": {"p": 5, "e": 1}, "generator": [[1, 2]]}, 1,
                "2734a561ff3b4b72884228544bf2ba05c78c238856aeb7b784f795b33f82f02e"),
    "not_mds": ({"field": {"p": 5, "e": 1}, "generator": [[1, 0, 1, 0], [0, 1, 0, 1]]}, 1,
                "15bf0fe886c50ce2a4fd61ceaa95a2ffd187cddd2b9ae55a919adb164465b430"),
    # high-rate codes over GF(9) whose enumeration weighs the dual: three LCD
    # MDS duals of constructed codes, in a random basis with permuted
    # columns, and GRS [9, 6] with column 2 repeated as column 9 (not MDS)
    "gf9_8_6": ({"field": {"p": 3, "e": 2, "modulus": [1, 0, 1]}, "generator": [
        [1, 7, 0, 7, 4, 6, 5, 8], [5, 4, 8, 2, 3, 3, 5, 3], [2, 4, 2, 8, 6, 7, 0, 4],
        [5, 6, 7, 8, 5, 8, 3, 1], [5, 3, 8, 4, 3, 6, 7, 0], [6, 0, 3, 2, 6, 4, 7, 5]]}, 0,
        "8a6cc7dd5e64f1613b2bf11b8a97210770f0c93ad9473f6ccdaa71d71cf5fb1f"),
    "gf9_9_6": ({"field": {"p": 3, "e": 2, "modulus": [1, 0, 1]}, "generator": [
        [3, 0, 3, 8, 3, 7, 6, 2, 2], [8, 6, 3, 3, 5, 5, 5, 4, 6], [8, 0, 7, 5, 6, 2, 6, 5, 6],
        [3, 0, 4, 3, 4, 5, 4, 8, 4], [3, 8, 8, 2, 0, 6, 6, 1, 4], [8, 2, 2, 8, 8, 1, 8, 2, 2]]}, 0,
        "007d598652c404a654709049142c28642450d7554c672905d427bcd17dd95a16"),
    "gf9_10_6": ({"field": {"p": 3, "e": 2, "modulus": [1, 0, 1]}, "generator": [
        [0, 3, 4, 8, 3, 2, 4, 3, 4, 1], [7, 6, 1, 4, 2, 8, 4, 2, 3, 6], [2, 6, 4, 3, 0, 1, 8, 1, 2, 8],
        [4, 7, 5, 3, 4, 4, 4, 0, 4, 4], [8, 5, 7, 5, 7, 1, 7, 2, 3, 3], [5, 0, 5, 8, 2, 8, 8, 3, 2, 2]]}, 0,
        "07453426c8cd4bc8344f4ca09b6a1198094ee042458a87064e0ab647372363f7"),
    "gf9_10_6_equal_columns": ({"field": {"p": 3, "e": 2}, "generator": [
        [7, 5, 6, 2, 3, 2, 5, 6, 1, 6], [1, 3, 7, 0, 3, 5, 4, 3, 3, 7], [8, 8, 2, 0, 3, 6, 7, 6, 2, 2],
        [6, 2, 8, 0, 3, 8, 8, 3, 6, 8], [5, 7, 3, 0, 3, 1, 5, 6, 1, 3], [2, 6, 5, 0, 3, 7, 4, 3, 3, 5]]}, 1,
        "0b48e774c42d906c959b787016aadc9d696d4d4394be7e22ab314f298ba69da9"),
}
PINNED_INFO_STDOUT = {
    ("--q", "9"): "77edf30685a1cae31701fada21b7e842a1fa5daa53a5b01206ed9a07238fa3a7",
    ("--q", "13", "--n", "14", "--k", "5"): "77dd56a9926e4f823dc8a8f6062657d3ed3983de3bcdb0b3b2e02089655c647b",
}


def test_verify_and_info_match_pinned_hashes(capsys, tmp_path):
    for name, (record, code, digest) in PINNED_VERIFY_STDOUT.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(record))
        rc, out, _ = run(capsys, "verify", str(path))
        assert rc == code and hashlib.sha256(out.encode()).hexdigest() == digest, name
    for argv, digest in PINNED_INFO_STDOUT.items():
        rc, out, _ = run(capsys, "info", *argv)
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_verify_weighs_the_dual_of_a_high_rate_record(capsys, tmp_path, monkeypatch):
    # a high-rate record the GRS certificate proves MDS weighs no codeword;
    # the equal-column one, which it does not, is weighed once, on its k rows
    weighed = []
    real = lcdmds.linear._enumerate_min_weight
    monkeypatch.setattr(lcdmds.linear, "_enumerate_min_weight", lambda F, G: weighed.append(G.shape) or real(F, G))
    for name in ("gf9_8_6", "gf9_9_6", "gf9_10_6", "gf9_10_6_equal_columns"):
        record, code, _ = PINNED_VERIFY_STDOUT[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(record))
        weighed.clear()
        rc, out, _ = run(capsys, "verify", str(path))
        n = len(record["generator"][0])
        assert rc == code and json.loads(out)["mds_route"] == "enumeration"
        assert weighed == ([(6, n)] if name == "gf9_10_6_equal_columns" else []), name


# the shapes the CLI writes, and the ones it does not: str keys with escapes,
# control characters and non-ASCII; ints past 2^63; bools among ints; floats;
# empty containers at every depth
KEYS = st.text() | st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é", " ", "𝔽", ""])
WRITTEN_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**63 - 2, 2**80) | st.integers(-(2**80), -1)
    | st.floats() | KEYS | st.just([]) | st.just(()) | st.just({}),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=5) | st.lists(st.integers() | st.booleans(), max_size=6),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(WRITTEN_VALUES)
def test_write_is_the_bytes_of_json_dumps_with_indent_2(value):
    out = io.StringIO()
    lcdmds.cli._write(value, out)
    assert out.getvalue() == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_construct_writes_its_report_in_pieces():
    # one piece per element of the report's top two levels: the longest is one
    # generator row, not the whole document
    pieces = []

    class Recorder:
        write = pieces.append
        writelines = pieces.extend

    with redirect_stdout(Recorder()):
        assert main(["construct", "--q", "243", "--n", "244", "--k", "122", "--skip-verify"]) == 0
    document = "".join(pieces)
    assert document == json.dumps(json.loads(document), sort_keys=True, indent=2) + "\n"
    assert max(map(len, pieces)) < len(document) / 10


# sha256 of construct --format text, one cell of each family, verified and
# not, recorded from the build that printed through read_code_record
PINNED_CONSTRUCT_TEXT = {
    ("--theorem", "extended", "--q", "9", "--n", "10", "--k", "4"): "8296709ccedb4f85e518807948b7a4b54ea6d34f918058a010595de9709d34db",
    ("--theorem", "extended", "--q", "9", "--n", "10", "--k", "4", "--skip-verify"): "78a9bd7d9bb5aab0d76b775959a9702c58e18d30ddc8ca80c3c8f1cffd56503f",
    ("--theorem", "divisor", "--q", "13", "--n", "12", "--k", "5"): "7fa2a00197b5c8177b4378a74215ef9480ead7340e9dc83acbc3f9183edc6c4b",
    ("--theorem", "divisor", "--q", "13", "--n", "12", "--k", "5", "--skip-verify"): "e62b9980c1aa8990f303b81a94be4fa61d445c049d916fd2f6687ac40cf2a069",
    ("--theorem", "prime-power", "--q", "27", "--n", "9", "--k", "3"): "704ac2a55c942665054cd812dce60768e5d972253f9d3e021e554cef99cc721a",
    ("--theorem", "prime-power", "--q", "27", "--n", "9", "--k", "3", "--skip-verify"): "eb8decbbcbb811ac84913b25359bb821a0a85d6aa6acfecbd1cc34f7caf36f6f",
    ("--theorem", "large-nk", "--q", "11", "--n", "9", "--k", "3"): "6ae98dfba2f2c8322bc1fdbb2a938bad4df1b888c47f482f05a2f43194b71ce3",
    ("--theorem", "large-nk", "--q", "11", "--n", "9", "--k", "3", "--skip-verify"): "93d2a47fc73e730a9f757a446e3838c97c1a91d6ebd75c8692dcb799991e3618",
    ("--theorem", "window", "--q", "11", "--n", "6", "--k", "3"): "72f1754a4dacece156e141b0956d1a3d1a876b8bfd29b3bb9286dfac79865ae9",
    ("--theorem", "window", "--q", "11", "--n", "6", "--k", "3", "--skip-verify"): "64029353827ee6e8c7168a73e7ab0a0c9ef165b98c7aadfb336e6bd1db055064",
}


def test_construct_text_prints_from_its_record(capsys, monkeypatch):
    # the text report prints n, k and the rows from the record it wrote, with
    # no second read_code_record (no second check and copy of G), byte for byte
    reads = []
    monkeypatch.setattr(lcdmds.cli, "read_code_record", lambda *a: reads.append(a))
    for argv, digest in PINNED_CONSTRUCT_TEXT.items():
        rc, text, _ = run(capsys, "construct", *argv, "--format", "text")
        assert rc == 0 and hashlib.sha256(text.encode()).hexdigest() == digest, argv
        record = json.loads(run(capsys, "construct", *argv)[1])
        rows = [line.split() for line in text.split("generator:\n")[1].splitlines()]
        assert f"code:    [{record['n']}, {record['k']}] over GF({argv[3]})" in text
        assert rows == [[str(x) for x in row] for row in record["generator"]]
    assert reads == []


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
