"""The lcdmds benchmark: one workload per run, as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
One operation runs at a time, in this process, with no threads beyond the
program's own. The run repeats whole rounds of the workload's operations
until S seconds have passed (at least one round), then repeats a seeded
sample of operations to check that their output is byte-identical, and
checks every output against independent oracles.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones from spans around each layer's public functions (see
README.md). Diagnostics go to stderr. The exit code is 0 whenever a result
is printed, and 1 when lcdmds cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5
FIELD_BATCH = 20_000

import workloads as W  # noqa: E402  (imports nothing from lcdmds)
from refclock import RefClock  # noqa: E402


def load_package():
    """lcdmds from this checkout's src/, never an installed copy."""
    if not (SRC / "lcdmds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lcdmds package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lcdmds
    import lcdmds.cli

    if Path(lcdmds.__file__).resolve().parent != (SRC / "lcdmds").resolve():
        sys.exit(f"perfbench: imported lcdmds from {lcdmds.__file__}, not {SRC}")
    return lcdmds


def measure_setup(fields) -> float:
    """Median over fresh processes of importing lcdmds and building the fields."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    argv += [f"{p}^{e}" for p, e in fields]
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
        times.append(float(res.stdout.split()[-1]))
    return statistics.median(times)


class Checker:
    """Checks each round's outcomes as it ends, then forgets them.

    An op fails if it raised, if the workload's checks reject its verdict,
    or if its canonical output differs from its first round's.
    """

    def __init__(self, work):
        self.work = work
        self.reference = {}
        self.attempted = self.failed = self.wrong = 0
        self.stdout_bytes = 0

    def _fail(self, i, why):
        print(f"perfbench: op {i} failed: {why}", file=sys.stderr)
        self.failed += 1

    def round(self, outs, errs):
        work = self.work
        self.attempted += len(outs)
        bad = work.check_round(outs)
        self.wrong += len(bad)
        for i, out in enumerate(outs):
            if out is None or i in bad:
                continue
            key = work.stable(i, out)
            if self.reference.setdefault(i, key) != key:
                bad[i] = "output differs from its first round"
                self.wrong += 1
        bad.update(errs)
        for i, why in sorted(bad.items()):
            self._fail(i, why)
        self.stdout_bytes = sum(len(o[1].encode()) for o in outs if isinstance(o, tuple))

    def repeat_sample(self, seed):
        """Run a seeded sample of ops once more; their output must not change."""
        ops = self.work.ops
        rng = random.Random(f"determinism-{seed}")
        for i in rng.sample(range(len(ops)), min(self.work.determinism_sample, len(ops))):
            self.attempted += 1
            try:
                key = self.work.stable(i, ops[i]())
            except (Exception, SystemExit) as exc:
                self._fail(i, f"repeat raised {exc!r}")
                continue
            if i in self.reference and key != self.reference[i]:
                self._fail(i, "repeat gave different output")
                self.wrong += 1


def run_rounds(ops, seconds, clock, checker, tracer=None, max_rounds=None):
    """Whole rounds until `seconds` of wall time have been spent in them.

    Returns each round's per-op times, in scaled CPU seconds (see refclock).
    """
    rounds = []
    busy = 0.0
    while True:
        lat = array("d", bytes(8 * len(ops)))
        outs = [None] * len(ops)
        errs = {}
        base = len(rounds) * len(ops) + 1
        w0 = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = base + i
            mark = clock.mark()
            try:
                outs[i] = op()
            except (Exception, SystemExit) as exc:
                errs[i] = f"raised {type(exc).__name__}: {exc}"
            lat[i] = clock.since(mark)
        busy += perf_counter() - w0
        rounds.append(lat)
        checker.round(outs, errs)
        del outs
        if busy >= seconds or len(rounds) == max_rounds:
            return rounds


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def per_op_medians(rounds):
    return [statistics.median(r[i] for r in rounds) for i in range(len(rounds[0]))]


def end_to_end(rounds, setup_s):
    per_op = per_op_medians(rounds)
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": (quantile(per_op, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def field_op_ns(pkg, p, e, seed):
    """ns per call of Field.mul, add and inv on a seeded batch of elements."""
    F = pkg.field(p, e)
    rng = random.Random(f"field-ops-{seed}")
    xs = [rng.randrange(F.q) for _ in range(FIELD_BATCH)]
    ys = [rng.randrange(1, F.q) for _ in range(FIELD_BATCH)]
    out = {}
    for name, fn in (("mul", F.mul), ("add", F.add), ("inv", F.inv)):
        times = []
        for _ in range(5):
            t0 = perf_counter()
            if name == "inv":
                for y in ys:
                    fn(y)
            else:
                for x, y in zip(xs, ys):
                    fn(x, y)
            times.append(perf_counter() - t0)
        out[name] = statistics.median(times) / FIELD_BATCH * 1e9
    return out


def per_layer(tracer, traced, untraced, stdout_bytes, field_ns):
    R = len(traced)
    stats, c = tracer.stats, tracer.counters

    def secs(name):
        return stats[name][1] / R

    def calls(name):
        return stats[name][0] / R

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {
        "fields.build_s": (secs("fields.build"), "s"),
        "fields.builds": (calls("fields.build"), "count"),
        "fields.mul_ns": (field_ns["mul"], "ns"),
        "fields.add_ns": (field_ns["add"], "ns"),
        "fields.inv_ns": (field_ns["inv"], "ns"),
        "poly.interpolate_s": (secs("poly.interpolate"), "s"),
        "poly.interpolate_calls": (calls("poly.interpolate"), "count"),
        "poly.interpolate_points_per_s": (
            rate(c.get("poly.interpolate_points", 0), stats["poly.interpolate"][1]),
            "1/s",
        ),
        "poly.eval_s": (secs("poly.eval"), "s"),
        "poly.eval_calls": (calls("poly.eval"), "count"),
        "poly.self_s": (tracer.layer_self("poly") / R, "s"),
        "linear.code_init_s": (secs("linear.code_init"), "s"),
        "linear.code_inits": (calls("linear.code_init"), "count"),
        "linear.rref_s": (secs("linear.rref"), "s"),
        "linear.rref_calls": (calls("linear.rref"), "count"),
        "linear.hull_s": (secs("linear.hull"), "s"),
        "linear.mds_s": (secs("linear.mds"), "s"),
        "linear.subsets": (c.get("linear.subsets", 0) / R, "count"),
        "linear.subsets_per_s": (rate(c.get("linear.subsets", 0), c.get("linear.subsets_s", 0)), "1/s"),
        "linear.enum_codewords": (c.get("linear.enum_codewords", 0) / R, "count"),
        "linear.enum_codewords_per_s": (
            rate(c.get("linear.enum_codewords", 0), c.get("linear.enum_s", 0)),
            "1/s",
        ),
        "linear.routes_enumeration": (c.get("linear.routes_enumeration", 0) / R, "count"),
        "linear.routes_column_subsets": (c.get("linear.routes_column_subsets", 0) / R, "count"),
        "linear.routes_other": (c.get("linear.routes_other", 0) / R, "count"),
        "linear.self_s": (tracer.layer_self("linear") / R, "s"),
        "grs.generator_s": (secs("grs.generator"), "s"),
        "grs.generator_calls": (calls("grs.generator"), "count"),
        "grs.dual_multipliers_s": (secs("grs.dual_multipliers"), "s"),
        "grs.in_dual_s": (secs("grs.in_dual"), "s"),
        "grs.in_dual_calls": (calls("grs.in_dual"), "count"),
        "grs.self_s": (tracer.layer_self("grs") / R, "s"),
        "construct.build_s": (secs("construct.build"), "s"),
        "construct.builds": (calls("construct.build"), "count"),
        "construct.verify_s": (secs("construct.verify"), "s"),
        "construct.self_s": (tracer.layer_self("construct") / R, "s"),
        "cli.main_s": (secs("cli.main"), "s"),
        "cli.self_s": (tracer.layer_self("cli") / R, "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "trace.overhead_s": (sum(per_op_medians(traced)) - sum(untraced[0]), "s"),
    }
    return m


def run(workload, seed, seconds, trace, small=False):
    """One benchmark run; returns the result object that run.py prints."""
    os.environ.pop("LCDMDS_BUDGET", None)  # measure the CLI's default budget
    pkg = load_package()
    work = W.WORKLOADS[workload](pkg, seed, small=small, workdir=WORK)
    for p, e in work.fields:
        pkg.field(p, e)
    checker = Checker(work)

    if trace:
        from tracing import Tracer

        tracer = Tracer()
        with RefClock() as clock:
            untraced = run_rounds(work.ops, 0, clock, checker, max_rounds=1)
            tracer.install()
            try:
                traced = run_rounds(work.ops, seconds, clock, checker, tracer)
            finally:
                tracer.uninstall()
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(WORK / f"trace-{workload}.jsonl")
        if tracer.dropped:
            print(f"perfbench: kept {len(tracer.spans)} spans, dropped {tracer.dropped}", file=sys.stderr)
        field_ns = field_op_ns(pkg, *work.largest, seed)
        metrics = per_layer(tracer, traced, untraced, checker.stdout_bytes, field_ns)
    else:
        with RefClock() as clock:
            rounds = run_rounds(work.ops, seconds, clock, checker)
        metrics = end_to_end(rounds, measure_setup(work.fields))

    checker.repeat_sample(seed)
    for problem in work.problems:
        print(f"perfbench: input check failed: {problem}", file=sys.stderr)
    return {
        "correct": checker.wrong == 0 and not work.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
