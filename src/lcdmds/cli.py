"""Command-line interface: construct, verify, sweep, info.

Exit codes: 0 success (for verify: the code is LCD and MDS), 1 verify found a
code that is not, 2 usage or parameter errors (including malformed input),
3 no covered construction applies, 4 a constructed code failed verification
(always a bug), 5 work budget exceeded. The verification budget defaults to
linear.DEFAULT_BUDGET, 10^6 enumerated codewords or column subsets, the same
default the library uses; --budget or LCDMDS_BUDGET override it.

All JSON output is canonical: exactly the bytes of
json.dumps(obj, sort_keys=True, indent=2) plus a newline, with no timestamps,
so identical inputs produce byte-identical bytes. _write writes them in
pieces, one per element of the document's top two levels, so no string
longer than one generator row (or sweep row) is held at once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
from json.encoder import encode_basestring_ascii
from time import perf_counter

from .construct import (
    ALL_THEOREMS,
    FAMILIES,
    _choose_family,
    applicable_conditions,
    construct_auto,
    require_construction_field,
    verify_report,
)
from .errors import (
    BudgetExceeded,
    FieldMismatch,
    NoConstructionApplies,
    ParameterError,
    TheoremViolation,
)
from .fields import Field, field, prime_power
from .linear import DEFAULT_BUDGET, LinearCode, mds_route, read_code_record

BUDGET_ENV = "LCDMDS_BUDGET"

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_CONSTRUCTION = 3
EXIT_VIOLATION = 4
EXIT_BUDGET = 5


_CONSTANTS = {None: "null", True: "true", False: "false"}.__getitem__
# the encoder of each exact scalar type the CLI writes
_SCALARS = {int: int.__repr__, str: encode_basestring_ascii, bool: _CONSTANTS, type(None): _CONSTANTS}


def _write(obj, out) -> None:
    """Write the bytes of json.dumps(obj, sort_keys=True, indent=2) plus a
    newline to out, without json's pure-Python encoder (which indent selects),
    one piece per element of obj's top two container levels."""
    out.writelines(_pieces(obj, "\n", 2))
    out.write("\n")


def _pieces(v, pad: str, split: int, lead: str = ""):
    """lead, then v's canonical JSON with its lines indented by pad (a newline
    and spaces), in pieces: one per element of v's top split container levels."""
    t = type(v)
    if t is dict and v and {*map(type, v)} == {str}:
        opening, closing = "{}"
        items = [(encode_basestring_ascii(key) + ": ", x) for key, x in sorted(v.items())]
    elif (t is list or t is tuple) and v and {*map(type, v)} != {int}:
        opening, closing = "[]"
        items = [("", x) for x in v]
    else:
        yield lead + _encode(v, pad)
        return
    inner = pad + "  "
    sep = lead + opening + inner
    for head, x in items:
        if split > 1 and type(x) in (dict, list, tuple):
            yield from _pieces(x, inner, split - 1, sep + head)
        else:
            yield sep + head + _encode(x, inner)
        sep = "," + inner
    yield pad + closing


def _encode(v, pad: str) -> str:
    """The canonical JSON of v as one string, by v's exact type; json.dumps
    only for what the CLI does not write (floats, non-str keys, subclasses)."""
    t = type(v)
    scalar = _SCALARS.get(t)
    if scalar is not None:
        return scalar(v)
    inner = pad + "  "
    if t is list or t is tuple:
        if not v:
            return "[]"
        if {*map(type, v)} == {int}:  # bools excluded
            body = map(int.__repr__, v)
        else:
            body = [_encode(x, inner) for x in v]
        return f"[{inner}{(',' + inner).join(body)}{pad}]"
    if t is dict and {*map(type, v)} <= {str}:
        if not v:
            return "{}"
        body = [encode_basestring_ascii(key) + ": " + _encode(x, inner) for key, x in sorted(v.items())]
        return f"{{{inner}{(',' + inner).join(body)}{pad}}}"
    return json.dumps(v, sort_keys=True, indent=2).replace("\n", pad)


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _budget(args) -> int:
    raw, source = args.budget, "--budget"
    if raw is None:
        raw, source = os.environ.get(BUDGET_ENV, DEFAULT_BUDGET), BUDGET_ENV
    try:
        budget = int(raw)
    except ValueError:
        raise ParameterError(f"{BUDGET_ENV} must be an integer, got {raw!r}")
    if budget < 0:
        raise ParameterError(f"{source} must not be negative, got {budget}")
    return budget


def _construction_field(q: int) -> Field:
    """GF(q), once q is an odd prime power above 3: checked before the tables are built."""
    p, e = prime_power(q)
    require_construction_field(p, q)
    return field(p, e)


# ---------- construct ----------

THEOREM_BY_FLAG = {family.flag: family.tag for family in FAMILIES}


def cmd_construct(args) -> int:
    budget = _budget(args)
    F = _construction_field(args.q)
    tail = args.tail
    if tail is not None and len(tail) == 1:
        tail = tail[0]
    family, overrides = _choose_family(
        F, args.n, args.k, args.gamma, tail, args.permutation, THEOREM_BY_FLAG.get(args.theorem)
    )
    if not args.skip_verify:
        mds_route(F.q, args.n, args.k, budget)  # verify_report's gate, before the build
    report = construct_auto(F, args.n, args.k, theorem=family.tag, **overrides)
    if not args.skip_verify:
        verify_report(report, budget)
    record = report.to_dict()
    if args.format == "json":
        _write(record, sys.stdout)
    else:
        print(f"theorem: {report.theorem}")
        print(f"field:   GF({F.q}) = GF({F.p}^{F.e}), modulus {list(F.modulus)}")
        print(f"code:    [{record['n']}, {record['k']}] over GF({F.q})")
        print(f"params:  {json.dumps(report.params, sort_keys=True)}")
        if report.verified is not None:
            print(f"verified: {json.dumps(report.verified, sort_keys=True)}")
        print("generator:")
        for row in record["generator"]:
            print("  " + " ".join(f"{x:>3d}" for x in row))
    return EXIT_OK


# ---------- verify ----------


def _load_code(path: str, budget: int) -> LinearCode:
    """The code of a JSON record: read_code_record's checks, then mds_route,
    and only then G Gt and the elimination, so over budget is cheap."""
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParameterError(f"cannot read code file {path!r}: {exc}")
    F, G = read_code_record(data)
    mds_route(F.q, G.shape[1], len(G), budget)
    return LinearCode(F, G)


def cmd_verify(args) -> int:
    budget = _budget(args)
    code = _load_code(args.input, budget)
    verdict = {"n": code.n, "k": code.k, **code.verdict(budget)}
    _write(verdict, sys.stdout)
    return EXIT_OK if (verdict["is_lcd"] and verdict["is_mds"]) else EXIT_VERDICT_FAIL


# ---------- sweep ----------


def _sweep_cell(F: Field, n: int, k: int, budget: int) -> dict:
    """One row: the family's checks, then the budget, and only then the build."""
    verdict_keys = ("hull_dimension", "is_mds", "mds_route", "min_distance")
    row = {"n": n, "k": k, "condition": "none", "status": "no_construction", "verified": False}
    row.update(dict.fromkeys(verdict_keys))
    try:
        row["condition"] = _choose_family(F, n, k)[0].tag
        mds_route(F.q, n, k, budget)
    except NoConstructionApplies:
        return row
    except BudgetExceeded:
        row["status"] = "budget_exceeded"
        return row
    report = construct_auto(F, n, k, theorem=row["condition"])
    try:
        verify_report(report, budget)
        row["status"] = "ok"
    except TheoremViolation:
        row["status"] = "violation"
    row["verified"] = row["status"] == "ok"
    row.update((key, report.verified[key]) for key in verdict_keys if report.verified)
    return row


def cmd_sweep(args) -> int:
    F = _construction_field(args.q)
    n_max = args.n_max if args.n_max is not None else F.q + 1
    if n_max > F.q + 1:
        raise ParameterError(f"--n-max cannot exceed q + 1 = {F.q + 1}")
    if n_max < 4:
        raise ParameterError(f"--n-max must be at least 4, the smallest length swept, got {n_max}")
    budget = _budget(args)
    if not args.output:
        return _sweep(F, n_max, budget, sys.stdout)
    # opened before the first cell, so an unwritable path costs no work
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            status = _sweep(F, n_max, budget, fh)
    except OSError as exc:
        raise ParameterError(f"cannot write {args.output!r}: {exc}")
    print(f"wrote {args.output}")
    return status


def _sweep(F: Field, n_max: int, budget: int, out) -> int:
    """Run every cell, printing its table row as it finishes, then write the JSON result to out."""
    header = f"{'n':>4} {'k':>3}  {'condition':<18} {'status':<16} {'hull':>4} {'mds':>4}  {'route':<15} {'d':>3} {'ms':>8}"
    print(header)
    print("-" * len(header))
    rows = []
    for n, k in ((n, k) for n in range(4, n_max + 1) for k in range(2, n // 2 + 1)):
        start = perf_counter()
        row = _sweep_cell(F, n, k, budget)
        secs = perf_counter() - start
        rows.append(row)
        hull = "-" if row["hull_dimension"] is None else str(row["hull_dimension"])
        mds = "-" if row["is_mds"] is None else ("yes" if row["is_mds"] else "no")
        dist = "-" if row["min_distance"] is None else str(row["min_distance"])
        route = row["mds_route"] or "-"
        print(
            f"{row['n']:>4} {row['k']:>3}  {row['condition']:<18} {row['status']:<16} "
            f"{hull:>4} {mds:>4}  {route:<15} {dist:>3} {secs * 1000:>8.1f}"
        )
    result = {
        "q": F.q,
        "field": F.to_dict(),
        "n_max": n_max,
        "budget": budget,
        "rows": rows,
    }
    _write(result, out)

    if any(row["status"] == "violation" for row in rows):
        return EXIT_VIOLATION
    if any(row["status"] == "budget_exceeded" for row in rows):
        return EXIT_BUDGET
    return EXIT_OK


# ---------- info ----------


def cmd_info(args) -> int:
    F = field(*prime_power(args.q))
    info = {
        "p": F.p,
        "e": F.e,
        "q": F.q,
        "modulus": list(F.modulus),
        "primitive_element": F.primitive_element,
        "theorems": list(ALL_THEOREMS),
    }
    if (args.n is None) != (args.k is None):
        raise ParameterError("info needs both --n and --k to list applicable conditions")
    if args.n is not None:
        info["applicable_conditions"] = applicable_conditions(F, args.n, args.k)
    _write(info, sys.stdout)
    return EXIT_OK


# ---------- plumbing ----------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="lcdmds",
        description="Construct and verify complementary-dual MDS codes from "
        "generalized Reed-Solomon codes over odd-characteristic fields.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(subs.add_parser, allow_abbrev=False)  # no --perm for --permutation

    c = add("construct", help="build one code and print its report")
    c.add_argument("--q", type=int, required=True, help="field order (prime power)")
    c.add_argument("--n", type=int, required=True, help="code length")
    c.add_argument("--k", type=int, required=True, help="code dimension")
    c.add_argument(
        "--theorem",
        choices=sorted(["auto", *THEOREM_BY_FLAG]),
        default="auto",
        help="which family to use (default: first applicable)",
    )
    c.add_argument("--gamma", type=int, help="override the scaling element")
    c.add_argument(
        "--tail",
        type=_int_list,
        help="override tail multipliers for the divisor family (one value or a comma list)",
    )
    c.add_argument(
        "--permutation",
        type=_int_list,
        help="override the element labeling (comma list of all q element indices)",
    )
    c.add_argument("--budget", type=int, help="verification work budget")
    c.add_argument("--skip-verify", action="store_true", help="emit the report unverified")
    c.add_argument("--format", choices=["json", "text"], default="json")
    c.set_defaults(func=cmd_construct)

    v = add("verify", help="check a generator matrix file for LCD and MDS")
    v.add_argument("input", help="JSON file with 'field' and 'generator' ('-' for stdin)")
    v.add_argument("--budget", type=int, help="verification work budget")
    v.set_defaults(func=cmd_verify)

    s = add("sweep", help="run every admissible (n, k) for one field")
    s.add_argument("--q", type=int, required=True, help="field order (prime power)")
    s.add_argument("--n-max", type=int, help="largest length to try (default q + 1)")
    s.add_argument("--budget", type=int, help="verification work budget per cell")
    s.add_argument("--output", help="write the JSON result here instead of stdout")
    s.set_defaults(func=cmd_sweep)

    i = add("info", help="describe a field and the covered families")
    i.add_argument("--q", type=int, required=True, help="field order (prime power)")
    i.add_argument("--n", type=int, help="with --k: list conditions matching (n, k)")
    i.add_argument("--k", type=int)
    i.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    exit_codes = {
        NoConstructionApplies: EXIT_NO_CONSTRUCTION,
        TheoremViolation: EXIT_VIOLATION,
        BudgetExceeded: EXIT_BUDGET,
        ParameterError: EXIT_USAGE,
        FieldMismatch: EXIT_USAGE,
    }
    try:
        return args.func(args)
    except tuple(exit_codes) as exc:
        print(f"lcdmds: {exc}", file=sys.stderr)
        return next(code for kind, code in exit_codes.items() if isinstance(exc, kind))


def entry() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a closed stdout (lcdmds ... | head) ends the process as it does any
        # filter, not with a BrokenPipeError traceback and exit 1
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
