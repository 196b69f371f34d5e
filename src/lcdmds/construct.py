"""Deterministic generators of LCD MDS codes for five parameter families.

Each construction returns a ConstructionReport holding the GRS spec it built
plus every auxiliary choice it made (scaling element, root of unity, additive
subgroup, chosen multipliers), so a report can be re-checked from its
parameters alone. The prime-power and large-n+k builders take their
multipliers from closed forms of the dual multipliers u_i, stated in their
docstrings, and compute no u_i. verify_report then proves the code from its
spec in O(kn), with no LinearCode and no codeword weighed (grs.verdicts),
and refuses to return one that is not LCD; verify_reports proves many
reports' specs together, in one array pass a chunk, and returns each
report's TheoremViolation instead of raising it, so lcdmds sweep can prove
a chunk of cells at once. lcdmds verify, given a record and no spec to
trust, runs linear.py's MDS check: the GRS certificate, and then the
enumeration or the column-subset walk for a code it does not prove.

All families need an odd prime power q > 3, a length n <= q + 1 and a
dimension 1 < k <= floor(n/2) (larger k is covered by duality: the dual of an
LCD MDS code is again one). FAMILIES, at the end of this module, is the one
table of the families: each row's tag, CLI flag, parameter condition and
builder, in the order construct_auto tries them. Each builder checks its
parameters against the shared rules (integer n and k among them) and its own
row's condition alone; only construct_auto with no family named evaluates
every row, once. Field.additive_subgroup owns the prime-power builder's
subgroup degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

from .errors import NoConstructionApplies, ParameterError, TheoremViolation
from .fields import Field, json_int
from .grs import GrsSpec, difference_products, verdicts
from .grs import dual_multipliers  # noqa: F401 (perfbench wraps construct.dual_multipliers)
from .linear import DEFAULT_BUDGET, code_record

THEOREM_EXTENDED = "ExtendedQPlus1"
THEOREM_DIVISOR = "DivisorOfQMinus1"
THEOREM_PRIME_POWER = "PrimePowerLength"
THEOREM_LARGE_NK = "LargeNPlusK"
THEOREM_WINDOW = "Window2n"

@dataclass
class ConstructionReport:
    theorem: str
    spec: GrsSpec
    params: dict
    verified: dict | None = None

    def to_dict(self) -> dict:
        """JSON-ready report: the code's record, from the spec's rows, plus the construction."""
        return {
            **code_record(self.spec.field, self.spec._rows),
            "theorem": self.theorem,
            "spec": self.spec.to_dict(),
            "params": self.params,
            "verified": self.verified,
        }


def require_construction_field(p: int, q: int) -> None:
    if p == 2:
        raise ParameterError(f"q = {q} has even characteristic; constructions need odd q")
    if q <= 3:
        raise ParameterError(f"q = {q} is too small; constructions need q > 3")


def _labeling(F: Field, permutation) -> tuple[int, ...]:
    if permutation is None:
        return tuple(range(F.q))
    perm = tuple(F.check(x) for x in permutation)
    if sorted(perm) != list(range(F.q)):
        raise ParameterError("permutation must list every field element exactly once")
    return perm


def _square_free_unit(F: Field, value, what: str) -> int:
    """First canonical element c with c^2 != 1 and c != 0, or a validated override."""
    minus_one = F.neg(1)
    if value is None:
        return next(c for c in range(2, F.q) if c != minus_one)
    c = F.check(value)
    if c in (0, 1, minus_one):
        raise ParameterError(f"{what} must avoid 0, 1 and -1, got {c}")
    return c


def construct_extended(F: Field, k: int, gamma=None, permutation=None) -> ConstructionReport:
    """Extended code of length q + 1 over all q field elements.

    The scaling element is a primitive element (multiplicative order q - 1);
    since q > 3 its square is not 1. Multipliers are 1 on a leading block and
    gamma on the rest; the split point depends on whether k = (q + 1)/2
    (case 2) or k < (q + 1)/2 (case 1).
    """
    q = F.q
    _require_family(THEOREM_EXTENDED, F, q + 1, k)
    locators = _labeling(F, permutation)
    if gamma is None:
        gamma = F.primitive_element
    elif F.multiplicative_order(gamma) != q - 1:  # which checks the element
        raise ParameterError(
            f"gamma = {gamma} is not primitive (order {F.multiplicative_order(gamma)})"
        )
    if 2 * k == q + 1:
        case = 2
        ones = k - 1
    else:
        case = 1
        ones = q - k + 1
    v = (1,) * ones + (gamma,) * (q - ones)
    spec = GrsSpec(F, locators, v, k, extended=True)
    return ConstructionReport(
        THEOREM_EXTENDED, spec, {"case": case, "gamma": gamma}
    )


def construct_divisor(F: Field, n: int, k: int, tail=None) -> ConstructionReport:
    """Length-n code on the powers of a primitive n-th root of unity, n | q - 1.

    Multipliers are 1 on the first n - k + 1 coordinates; the remaining k - 1
    only need squares different from 1, chosen uniformly as the first
    canonical element outside {-1, 0, 1} unless overridden (a single value or
    one value per tail coordinate).
    """
    _require_family(THEOREM_DIVISOR, F, n, k)
    omega = F.nth_root_of_unity(n)
    locators = tuple(F.pow(omega, i) for i in range(n))
    if tail is None or isinstance(tail, int):
        tail_values = [_square_free_unit(F, tail, "tail multiplier")] * (k - 1)
    else:
        tail_values = [_square_free_unit(F, t, "tail multiplier") for t in tail]
        if len(tail_values) != k - 1:
            raise ParameterError(f"need {k - 1} tail multipliers, got {len(tail_values)}")
    v = (1,) * (n - k + 1) + tuple(tail_values)
    spec = GrsSpec(F, locators, v, k)
    return ConstructionReport(
        THEOREM_DIVISOR, spec, {"omega": omega, "tail_multipliers": list(tail_values)}
    )


def construct_prime_power(F: Field, level: int, k: int, gamma=None) -> ConstructionReport:
    """Length n = p^level code on an additive subgroup H of the field.

    Over H every dual multiplier u_i = prod over j != i of (a_i - a_j)^(-1)
    is h^(-1), with h the product of the nonzero elements of H: as j runs,
    a_i - a_j runs over the nonzero elements of H (H is the root set of a
    linearized polynomial; Lidl & Niederreiter, Finite Fields, sec. 3.4). The
    report records h and u_constant = h^(-1), both O(n). The scaling element
    gamma only needs gamma^2 != 1.
    """
    subgroup = F.additive_subgroup(level)
    n = len(subgroup)
    _require_family(THEOREM_PRIME_POWER, F, n, k)
    gamma = _square_free_unit(F, gamma, "gamma")
    v = (1,) * (n - k) + (gamma,) * k
    spec = GrsSpec(F, tuple(subgroup), v, k)
    h = reduce(F._mul, filter(None, subgroup))
    params = {"subgroup": list(subgroup), "h": h, "u_constant": F.inv(h), "gamma": gamma}
    return ConstructionReport(THEOREM_PRIME_POWER, spec, params)


def construct_large_nk(F: Field, n: int, k: int, permutation=None) -> ConstructionReport:
    """Length n < q with n + k >= q + 1: locators are the first n labeled elements.

    The first q - k multipliers are 1. Each remaining coordinate i needs a
    nonzero c with -c^2 * prod(a_i - x over excluded x) != u_i. Locators and
    excluded elements partition GF(q), and the nonzero elements of GF(q)
    multiply to -1 (Wilson's theorem: compare the constant terms of
    x^(q-1) - 1 = prod over c != 0 of (x - c)), so that product is -u_i and
    the condition is c^2 != 1. Every such coordinate takes the first
    canonical c outside {0, 1, -1}, as the divisor and prime-power families do.
    """
    q = F.q
    _require_family(THEOREM_LARGE_NK, F, n, k)
    labeling = _labeling(F, permutation)
    locators, excluded = labeling[:n], labeling[n:]
    c = _square_free_unit(F, None, "multiplier")
    spec = GrsSpec(F, locators, (1,) * (q - k) + (c,) * (n + k - q), k)
    params = {"excluded": list(excluded), "chosen_multipliers": [[i + 1, c] for i in range(q - k, n)]}
    return ConstructionReport(THEOREM_LARGE_NK, spec, params)


def construct_window(F: Field, n: int, k: int, permutation=None) -> ConstructionReport:
    """Length n < q with 2n - k < q <= 2n.

    Since q - n > n - k there are at least n - k excluded elements; each
    multiplier is the product of (a_i - x) over the first n - k of them,
    nonzero because locators and excluded elements are distinct.
    """
    _require_family(THEOREM_WINDOW, F, n, k)
    labeling = _labeling(F, permutation)
    locators = labeling[:n]
    window = labeling[n : n + (n - k)]
    v = tuple(difference_products(F, locators, window).tolist())
    spec = GrsSpec(F, locators, v, k)
    params = {"excluded": list(labeling[n:]), "window": list(window)}
    return ConstructionReport(THEOREM_WINDOW, spec, params)


@dataclass(frozen=True)
class Family:
    """One covered family. applies(F, n, k) assumes the shared boundary checks
    passed; overrides names the keyword overrides build(F, n, k, **overrides)
    accepts, and construct_auto rejects any other."""

    tag: str
    flag: str
    condition: str
    overrides: tuple[str, ...]
    applies: Callable[[Field, int, int], bool]
    build: Callable[..., ConstructionReport]


FAMILIES = (
    Family(
        THEOREM_EXTENDED, "extended", "n = q + 1", ("gamma", "permutation"),
        lambda F, n, k: n == F.q + 1,
        lambda F, n, k, **kw: construct_extended(F, k, **kw),
    ),
    Family(
        THEOREM_DIVISOR, "divisor", "n divides q - 1", ("tail",),
        lambda F, n, k: (F.q - 1) % n == 0,
        construct_divisor,
    ),
    Family(
        THEOREM_PRIME_POWER, "prime-power", "n = p^l with 1 <= l <= e", ("gamma",),
        lambda F, n, k: F.q % n == 0,  # n >= 4 here, and p^e's divisors above 1 are the p^l
        lambda F, n, k, **kw: construct_prime_power(
            F, next(level for level in range(1, F.e + 1) if F.p**level == n), k, **kw
        ),
    ),
    Family(
        THEOREM_LARGE_NK, "large-nk", "n < q and n + k >= q + 1", ("permutation",),
        lambda F, n, k: n < F.q and n + k >= F.q + 1,
        construct_large_nk,
    ),
    Family(
        THEOREM_WINDOW, "window", "n < q and 2n - k < q <= 2n", ("permutation",),
        lambda F, n, k: n < F.q and 2 * n - k < F.q <= 2 * n,
        construct_window,
    ),
)

ALL_THEOREMS = tuple(family.tag for family in FAMILIES)


def _require_shared(F: Field, n: int, k: int) -> None:
    """The boundary checks every family shares: odd q > 3, integer n <= q + 1
    and integer 1 < k <= n/2; ParameterError if one fails."""
    require_construction_field(F.p, F.q)
    n, k = json_int(n, "n"), json_int(k, "k")
    if n > F.q + 1:
        raise ParameterError(f"n = {n} exceeds q + 1 = {F.q + 1}")
    if not 1 < k <= n // 2:
        raise ParameterError(
            f"k = {k} out of range: need 1 < k <= floor(n/2) = {n // 2} for n = {n}"
        )


def applicable_conditions(F: Field, n: int, k: int) -> list[str]:
    """Tags of every family whose parameter condition holds, in dispatch order,
    once the shared boundary checks pass."""
    _require_shared(F, n, k)
    return [family.tag for family in FAMILIES if family.applies(F, n, k)]


def _require_family(tag: str, F: Field, n: int, k: int) -> Family:
    """The family tagged tag, once the shared boundary checks and its own
    condition pass for (n, k), evaluating no other row; else ParameterError."""
    _require_shared(F, n, k)
    family = next((f for f in FAMILIES if f.tag == tag), None)
    if family is None:
        raise ParameterError(f"unknown theorem tag {tag!r}")
    if not family.applies(F, n, k):
        raise ParameterError(
            f"{tag} needs {family.condition}; got q = {F.q}, n = {n}, k = {k}"
        )
    return family


def _choose_family(
    F: Field, n: int, k: int, gamma=None, tail=None, permutation=None, theorem=None
) -> tuple[Family, dict]:
    """Every check construct_auto makes before it builds, and so its errors:
    the family it would build and the overrides that family takes."""
    if theorem is None:
        applicable = applicable_conditions(F, n, k)
        if not applicable:
            raise NoConstructionApplies(
                f"no covered family matches q = {F.q}, n = {n}, k = {k}; "
                "this does not rule out an LCD MDS code with these parameters"
            )
        family = next(f for f in FAMILIES if f.tag == applicable[0])
    else:
        family = _require_family(theorem, F, n, k)
    given = {"gamma": gamma, "tail": tail, "permutation": permutation}
    overrides = {name: value for name, value in given.items() if value is not None}
    unused = [name for name in overrides if name not in family.overrides]
    if unused:
        raise ParameterError(
            f"{family.tag} does not take the {' or '.join(unused)} override; "
            f"it takes {' or '.join(family.overrides)}"
        )
    return family, overrides


def construct_auto(
    F: Field, n: int, k: int, gamma=None, tail=None, permutation=None, theorem=None
) -> ConstructionReport:
    """Build with the family tagged theorem, or else the first that applies.

    A named family whose condition fails raises ParameterError naming the
    condition, and so does an override (gamma, tail, permutation) that the
    chosen family does not take; its builder checks the values. With no family
    named, NoConstructionApplies means none of the five constructions covers
    (n, k), not that no LCD MDS code with these parameters exists.
    """
    family, overrides = _choose_family(F, n, k, gamma, tail, permutation, theorem)
    return family.build(F, n, k, **overrides)


def verify_reports(reports, budget: int = DEFAULT_BUDGET) -> list[TheoremViolation | None]:
    """Prove each report's code LCD and MDS from its spec, the specs together
    (grs.verdicts): None for a proven report, else the TheoremViolation it
    earns, which leaves the others alone and is returned, not raised.

    A report's code is not LCD, or its rows are not its spec's V diag(v),
    whose check proves it MDS: either would be a bug, never an acceptable
    outcome. report.verified is filled unless the rows fail. BudgetExceeded
    is raised before any work when neither route fits a report.
    """
    failures = []
    for report, verdict in zip(reports, verdicts([report.spec for report in reports], budget)):
        if isinstance(verdict, dict):
            report.verified, spec, hull = verdict, report.spec, verdict["hull_dimension"]
            verdict = None if not hull else TheoremViolation(
                f"{report.theorem} produced a code with hull dimension {hull}, "
                f"MDS = {verdict['is_mds']} over {spec.field!r} "
                f"(n = {spec.length}, k = {spec.k}); this is a bug"
            )
        failures.append(verdict)
    return failures


def verify_report(report: ConstructionReport, budget: int = DEFAULT_BUDGET) -> ConstructionReport:
    """verify_reports on this report alone: returns it, verified, or raises its TheoremViolation."""
    (failure,) = verify_reports([report], budget)
    if failure:
        raise failure
    return report
