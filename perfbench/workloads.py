"""The benchmark's workloads: seeded inputs, the operations, and their checks.

A workload is built from a seed. Its `ops` are zero-argument callables, one
per operation of a round; the runner repeats whole rounds. Every call into
lcdmds looks the function up when it runs, so the tracer's wrappers (when a
traced run installs them) see the same calls as an untraced run makes.

Expected answers come from `oracles`, which imports nothing from lcdmds, or
from what a code is known to be by construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from functools import partial
from itertools import product
from math import comb
from pathlib import Path

import oracles as O

CLI_BUDGET = 10**6  # the CLI's default verification budget


def prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    return p, e


def run_cli(cli, argv):
    """lcdmds' CLI main in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def call_in_dual(spec, f):
    return spec.in_dual(f)


class Workload:
    name = ""
    determinism_sample = 10

    def __init__(self):
        self.ops: list = []
        self.fields: list[tuple[int, int]] = []  # (p, e) of every field used
        self.largest: tuple[int, int] = (2, 1)
        self.problems: list[str] = []  # faults found while making the inputs
        self._memo: dict = {}

    def stable(self, i, outcome):
        """The part of an outcome that must repeat byte for byte."""
        return outcome

    def check(self, i, outcome) -> str | None:
        raise NotImplementedError

    def check_round(self, outcomes) -> dict[int, str]:
        """Verdict failures of one round, by op index; None marks a raised op."""
        bad = {}
        for i, out in enumerate(outcomes):
            if out is None:
                continue
            key = (i, self.stable(i, out))
            if key not in self._memo:
                self._memo[key] = self.check(i, out)
            if self._memo[key] is not None:
                bad[i] = self._memo[key]
        return bad

    def _note_fields(self, qs):
        self.fields = sorted({prime_power(q) for q in qs})
        self.largest = max(self.fields, key=lambda pe: pe[0] ** pe[1])


def _json_payload(stdout: str) -> str:
    return stdout[stdout.index("{") :] if "{" in stdout else stdout


# ---------------------------------------------------------------- sweep


class Sweep(Workload):
    """`lcdmds sweep` over the paper's coverage grids, one call per field."""

    name = "sweep"
    determinism_sample = 2

    def __init__(self, pkg, seed, small=False, workdir=None):
        super().__init__()
        full = (5, 7, 9) if small else (5, 7, 9, 11, 13)
        capped = (17,) if small else (17, 19, 23, 25, 27, 29, 31)
        n_cap = 8 if small else 13
        self.calls = [(q, q + 1) for q in full] + [(q, n_cap) for q in capped]
        random.Random(seed).shuffle(self.calls)
        self._note_fields(full + capped)
        self.ops = [
            partial(run_cli, pkg.cli, ["sweep", "--q", str(q)] + ([] if n == q + 1 else ["--n-max", str(n)]))
            for q, n in self.calls
        ]

    def stable(self, i, outcome):
        # the table carries per-cell milliseconds; only the JSON is canonical
        return outcome[0], _json_payload(outcome[1])

    def check(self, i, outcome):
        rc, stdout = outcome
        q, n_max = self.calls[i]
        p, e = prime_power(q)
        if rc != 0:
            return f"sweep --q {q} exited {rc}"
        data = json.loads(_json_payload(stdout))
        rec = data["field"]
        if (data["q"], data["n_max"], rec["p"], rec["e"]) != (q, n_max, p, e):
            return f"sweep --q {q}: wrong field or n_max in {data['q'], data['n_max'], rec}"
        if e > 1 and not O.is_irreducible(rec["modulus"], p):
            return f"sweep --q {q}: modulus {rec['modulus']} is reducible"
        grid = [(n, k) for n in range(4, n_max + 1) for k in range(2, n // 2 + 1)]
        if [(r["n"], r["k"]) for r in data["rows"]] != grid:
            return f"sweep --q {q}: rows do not cover the grid in order"
        for r in data["rows"]:
            n, k = r["n"], r["k"]
            fam = O.family(p, e, n, k)
            where = f"sweep --q {q} cell [{n},{k}]"
            if r["condition"] != (fam or "none"):
                return f"{where}: condition {r['condition']}, expected {fam}"
            if fam is None:
                if r["status"] != "no_construction" or r["verified"] or r["mds_route"] is not None:
                    return f"{where}: uncovered cell reported {r['status']}"
                continue
            if (r["status"], r["verified"], r["hull_dimension"], r["is_mds"]) != ("ok", True, 0, True):
                return f"{where}: {r['status']} hull={r['hull_dimension']} mds={r['is_mds']}"
            if r["mds_route"] == "enumeration" and r["min_distance"] != n - k + 1:
                return f"{where}: min distance {r['min_distance']} != {n - k + 1}"
        return None


# ---------------------------------------------------------------- subset-verify


class SubsetVerify(Workload):
    """`lcdmds construct` for one code per family proven by column subsets."""

    name = "subset-verify"
    determinism_sample = 1
    SUBSET_SAMPLE = 200

    def __init__(self, pkg, seed, small=False, workdir=None):
        super().__init__()
        if small:
            cells = [(11, 12, 6), (13, 12, 6)]
        else:
            cells = [
                (23, 22, 5),  # DivisorOfQMinus1
                (17, 17, 6),  # PrimePowerLength
                (19, 17, 7),  # LargeNPlusK
                (27, 28, 5),  # ExtendedQPlus1, over an extension field
                (29, 15, 5),  # Window2n
            ]
        rng = random.Random(seed)
        rng.shuffle(cells)
        self.cells = cells
        self.rng = rng
        self._note_fields([q for q, _, _ in cells])
        self.ops = [
            partial(run_cli, pkg.cli, ["construct", "--q", str(q), "--n", str(n), "--k", str(k)])
            for q, n, k in cells
        ]

    def check(self, i, outcome):
        rc, stdout = outcome
        q, n, k = self.cells[i]
        p, e = prime_power(q)
        where = f"construct q={q} [{n},{k}]"
        if rc != 0:
            return f"{where} exited {rc}"
        d = json.loads(stdout)
        if (d["n"], d["k"], d["field"]["p"], d["field"]["e"]) != (n, k, p, e):
            return f"{where}: wrong shape or field"
        if d["theorem"] != O.family(p, e, n, k):
            return f"{where}: theorem {d['theorem']}, expected {O.family(p, e, n, k)}"
        v = d["verified"]
        if (v["hull_dimension"], v["is_lcd"], v["is_mds"]) != (0, True, True):
            return f"{where}: verified {v}"
        if v["mds_route"] == "enumeration" and v["min_distance"] != n - k + 1:
            return f"{where}: min distance {v['min_distance']}"
        F = O.gf_from_record(d["field"])
        G = d["generator"]
        if len(G) != k or any(len(row) != n for row in G):
            return f"{where}: generator is not {k} x {n}"
        if O.rank(F, G) != k or O.hull_dimension(F, G) != 0:
            return f"{where}: oracle rank {O.rank(F, G)}, hull {O.hull_dimension(F, G)}"
        for _ in range(self.SUBSET_SAMPLE):
            cols = sorted(self.rng.sample(range(n), k))
            if O.columns_singular(F, G, cols):
                return f"{where}: columns {cols} are singular"
        return None


# ---------------------------------------------------------------- verify-mixed


def _random_full_rank(F, n, k, rng):
    while True:
        G = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        if O.rank(F, G) == k:
            return G


def _mix_rows(F, G, rng):
    """A G for a random invertible A: another basis of the same code."""
    A = _random_full_rank(F, len(G), len(G), rng)
    out = []
    for arow in A:
        acc = [0] * len(G[0])
        for a, grow in zip(arow, G):
            if a:
                acc = [F.add(x, F.mul(a, y)) for x, y in zip(acc, grow)]
        out.append(acc)
    return out


def _shuffle_columns(F, G, rng):
    """Permute columns and flip seeded signs; hull and MDS are unchanged."""
    n = len(G[0])
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, F.neg(1))) for _ in range(n)]
    return [[F.mul(signs[j], row[perm[j]]) for j in range(n)] for row in G]


def _construct(pkg, F, p, e, n, k, rng):
    """The family's code for (n, k) with seeded free choices (labeling, gamma, tail)."""
    q = F.q
    fam = O.family(p, e, n, k)
    perm = rng.sample(range(q), q)
    units = [c for c in range(2, q) if c != F.neg(1)]
    if fam == O.EXTENDED:
        return pkg.construct_extended(F, k, permutation=perm)
    if fam == O.DIVISOR:
        return pkg.construct_divisor(F, n, k, tail=[rng.choice(units) for _ in range(k - 1)])
    if fam == O.PRIME_POWER:
        level = next(l for l in range(1, e + 1) if p**l == n)
        return pkg.construct_prime_power(F, level, k, gamma=rng.choice(units))
    if fam == O.LARGE_NK:
        return pkg.construct_large_nk(F, n, k, permutation=perm)
    return pkg.construct_window(F, n, k, permutation=perm)


def _cheap(q, n, k):
    """Cells the CLI verifies by enumeration or by at most 1,000 column subsets."""
    return q**k <= CLI_BUDGET or comb(n, k) <= 1000


class VerifyMixed(Workload):
    """`lcdmds verify FILE` over codes the program did not build itself."""

    name = "verify-mixed"
    determinism_sample = 20
    BRUTE_FORCE_MAX = 2500  # q^k up to which the oracle enumerates codewords

    def __init__(self, pkg, seed, small=False, workdir=None):
        super().__init__()
        rng = random.Random(seed)
        prime_qs = (5, 7, 11) if small else (5, 7, 9, 11, 13)
        big = [(3, 7), (127, 2)]
        self.items: list[dict] = []  # one per file: kind, code and expected verdict

        def field_pair(q):
            p, e = prime_power(q)
            return pkg.field(p, e), O.GF(p, e)

        # The make-up and order of the files is fixed; the seed changes their
        # contents only, so every seed costs the same work.
        # constructed LCD MDS codes, and the duals of half of those with k < n/2
        for q in prime_qs:
            Fp, Fo = field_pair(q)
            p, e = prime_power(q)
            for n in range(4, q + 2):
                for k in range(2, n // 2 + 1):
                    if O.family(p, e, n, k) is None or not _cheap(q, n, k):
                        continue
                    if small and (n + k) % 3:
                        continue
                    code = _construct(pkg, Fp, p, e, n, k, rng).spec.generator()
                    G = [list(r) for r in code.gen]
                    self._add(Fo, "constructed", _shuffle_columns(Fo, _mix_rows(Fo, G, rng), rng), known_hull=0, mds=True)
                    if 2 * k < n and (n + k) % 2 == 0:
                        D = [list(r) for r in code.dual().gen]
                        self._add(Fo, "dual", _shuffle_columns(Fo, _mix_rows(Fo, D, rng), rng), known_hull=0, mds=True)

        # self-orthogonal Reed-Solomon codes on all q elements, k <= q/2
        for q in prime_qs:
            _, Fo = field_pair(q)
            for k in range(2, q // 2 + 1):
                if not _cheap(q, q, k):
                    continue
                locs = rng.sample(range(q), q)
                signs = [rng.choice((1, Fo.neg(1))) for _ in range(q)]
                G = O.grs_generator(Fo, locs, signs, k)
                self._add(Fo, "rs_self_orthogonal", _mix_rows(Fo, G, rng), known_hull=k, mds=True)

        # GRS codes with two equal columns at seeded positions: never MDS
        shapes = [(6, 3), (8, 3), (8, 4), (10, 4), (10, 5), (12, 5), (12, 6)]
        for q in (7, 11, 13):
            _, Fo = field_pair(q)
            for n, k in shapes[: 3 if small else None]:
                if n > q or not _cheap(q, n, k):
                    continue
                for _ in range(2):
                    G = O.grs_generator(
                        Fo, rng.sample(range(q), n), [rng.randrange(1, q) for _ in range(n)], k
                    )
                    i, j = rng.sample(range(n), 2)
                    for row in G:
                        row[j] = row[i]
                    self._add(Fo, "equal_columns", _mix_rows(Fo, G, rng), mds=False)

        # random codes over prime fields: the oracle decides hull and MDS
        shapes = [(5, 2), (6, 2), (8, 2), (10, 2), (6, 3), (8, 3), (10, 3)]
        for q in (5, 7, 11, 13):
            _, Fo = field_pair(q)
            for n, k in shapes[: 3 if small else None]:
                for _ in range(1 if small else 2):
                    self._add(Fo, "random", _random_full_rank(Fo, n, k, rng))
        if not small:
            for q, n, k in ((7, 12, 8), (5, 12, 9)):
                _, Fo = field_pair(q)
                self._add(Fo, "random", _random_full_rank(Fo, n, k, rng))

        # small GRS codes over larger fields; each verify rebuilds the field
        for p, e in big[: 1 if small else None]:
            Fo = O.GF(p, e)
            for n, k in ((6, 2), (8, 3)):
                for _ in range(1 if small else 3):
                    locs = rng.sample(range(Fo.q), n)
                    G = O.grs_generator(Fo, locs, [rng.randrange(1, Fo.q) for _ in range(n)], k)
                    self._add(Fo, "large_field_grs", _mix_rows(Fo, G, rng), mds=True)

        self._note_fields(list(prime_qs) + [p**e for p, e in big[: 1 if small else None]])
        workdir = Path(workdir) / self.name
        workdir.mkdir(parents=True, exist_ok=True)
        for old in workdir.glob("*.json"):
            old.unlink()
        for i, item in enumerate(self.items):
            path = workdir / f"code{i:04d}.json"
            record = {"field": item["field"], "generator": item["generator"]}
            path.write_text(json.dumps(record), encoding="utf-8")
            self.ops.append(partial(run_cli, pkg.cli, ["verify", str(path)]))

    def _add(self, F, kind, G, known_hull=None, mds=None):
        n, k = len(G[0]), len(G)
        hull = O.hull_dimension(F, G)
        if known_hull is not None and hull != known_hull:
            self.problems.append(f"{kind} [{n},{k}] over GF({F.q}): oracle hull {hull}, expected {known_hull}")
        dist = O.min_distance(F, G) if F.q**k <= self.BRUTE_FORCE_MAX else None
        if mds is None:
            mds = dist == n - k + 1 if dist is not None else O.is_mds_by_subsets(F, G)
        elif dist is not None and (dist == n - k + 1) != mds:
            self.problems.append(f"{kind} [{n},{k}] over GF({F.q}): oracle distance {dist}, MDS expected {mds}")
        self.items.append(
            {"kind": kind, "field": F.to_record(), "generator": G, "n": n, "k": k, "hull": hull, "mds": mds, "dist": dist}
        )

    def check(self, i, outcome):
        rc, stdout = outcome
        it = self.items[i]
        where = f"verify {it['kind']} [{it['n']},{it['k']}] over GF({it['field']['p']}^{it['field']['e']})"
        want_rc = 0 if it["hull"] == 0 and it["mds"] else 1
        if rc != want_rc:
            return f"{where}: exit {rc}, expected {want_rc}"
        d = json.loads(stdout)
        got = (d["n"], d["k"], d["hull_dimension"], d["is_lcd"], d["is_mds"])
        want = (it["n"], it["k"], it["hull"], it["hull"] == 0, it["mds"])
        if got != want:
            return f"{where}: (n, k, hull, lcd, mds) = {got}, expected {want}"
        dist = d["min_distance"]
        if dist is None:
            return None
        if it["dist"] is not None:
            ok = dist == it["dist"]
        else:
            ok = (dist == it["n"] - it["k"] + 1) == it["mds"]
        return None if ok else f"{where}: min distance {dist}, oracle {it['dist']}"


# ---------------------------------------------------------------- dual-membership


class DualMembership(Workload):
    """Library `GrsSpec.in_dual` on every message of degree < k."""

    name = "dual-membership"
    determinism_sample = 500
    INNER_PRODUCT_SAMPLE = 400

    def __init__(self, pkg, seed, small=False, workdir=None):
        super().__init__()
        rng = random.Random(seed)
        rs = [(5, 2), (7, 3)] if small else [(5, 2), (7, 3), (11, 3), (13, 3)]
        lcd = [(7, 8, 3), (7, 6, 3)] if small else [(11, 10, 3), (11, 11, 3), (13, 14, 3), (13, 12, 3), (13, 11, 3), (13, 7, 3)]
        specs = []
        for q, k in rs:
            F = pkg.field(q)
            for extended in (False, True):
                locs = tuple(rng.sample(range(q), q))
                mults = tuple(rng.choice((1, q - 1)) for _ in range(q))
                specs.append(pkg.GrsSpec(F, locs, mults, k, extended=extended))
        for q, n, k in lcd:
            specs.append(_construct(pkg, pkg.field(q), q, 1, n, k, rng).spec)
        self.specs = specs
        self._note_fields([s.field.q for s in specs])

        self.blocks = []  # (spec index, first op, end op)
        self.messages = []  # coefficient tuples, one per op
        self.oracle_codes = []  # (oracle field, generator) per spec
        self.hulls = []
        for s, spec in enumerate(specs):
            q, k = spec.field.q, spec.k
            Fo = O.GF(q)
            G = O.grs_generator(Fo, spec.locators, spec.multipliers, k, spec.extended)
            self.oracle_codes.append((Fo, G))
            self.hulls.append(O.hull_dimension(Fo, G))
            first = len(self.ops)
            for coeffs in product(range(q), repeat=k):
                self.messages.append(coeffs)
                self.ops.append(partial(call_in_dual, spec, pkg.Poly(spec.field, coeffs)))
            self.blocks.append((s, first, len(self.ops)))
        self.sample = sorted(rng.sample(range(len(self.ops)), min(self.INNER_PRODUCT_SAMPLE, len(self.ops))))
        self._truth = {}

    def _in_dual_oracle(self, s, coeffs) -> bool:
        spec = self.specs[s]
        Fo, G = self.oracle_codes[s]
        word = [Fo.mul(v, O.eval_poly(Fo, coeffs, a)) for v, a in zip(spec.multipliers, spec.locators)]
        if spec.extended:
            word.append(coeffs[spec.k - 1])
        return all(O.dot(Fo, row, word) == 0 for row in G)

    def _oracle_at(self, i) -> bool:
        if i not in self._truth:
            s = next(s for s, a, b in self.blocks if a <= i < b)
            self._truth[i] = self._in_dual_oracle(s, self.messages[i])
        return self._truth[i]

    def check_round(self, outcomes):
        bad = {}
        for s, a, b in self.blocks:
            accepted = sum(1 for out in outcomes[a:b] if out is True)
            want = self.specs[s].field.q ** self.hulls[s]
            if accepted != want:
                # the count is off: find the wrong verdicts one by one
                for i in range(a, b):
                    if outcomes[i] is not None and outcomes[i] != self._oracle_at(i):
                        bad[i] = f"spec {s}: in_dual accepted {accepted} messages, expected q^h = {want}"
        for i in self.sample:
            if outcomes[i] is not None and outcomes[i] != self._oracle_at(i):
                bad[i] = f"message {self.messages[i]}: in_dual {outcomes[i]}, inner products disagree"
        return bad


WORKLOADS = {w.name: w for w in (Sweep, SubsetVerify, VerifyMixed, DualMembership)}
