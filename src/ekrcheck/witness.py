"""Independent validation of the counterexamples that reports carry.

``check-witness`` reads a report's ``counterexample`` and looks up its
``kind`` in ``VALIDATORS``.  Each validator type-checks the fields it reads,
so a malformed payload is an InputError that names the field, and then
recomputes the claim from the library: it returns (True, detail) when the
counterexample is confirmed and (False, detail) when it is refuted.
"""

from __future__ import annotations

from . import counts, cycles, graphs, rook
from .errors import InputError, is_integer


def _field(obj: dict, name: str, where: str = "counterexample"):
    """``obj[name]``, or an input error that names the missing field."""
    if name not in obj:
        raise InputError(f'{where} is missing the "{name}" field')
    return obj[name]


def _integer(obj: dict, name: str, where: str = "counterexample") -> int:
    value = _field(obj, name, where)
    if not is_integer(value):
        raise InputError(f'{where} "{name}" must be an integer, got {value!r}')
    return value


def _list(obj: dict, name: str, where: str = "counterexample") -> list:
    value = _field(obj, name, where)
    if not isinstance(value, list):
        raise InputError(f'{where} "{name}" must be a list, got {value!r}')
    return value


def _integers(obj: dict, name: str) -> list[int]:
    value = _list(obj, name)
    if not all(map(is_integer, value)):
        raise InputError(f'counterexample "{name}" must be a list of integers, got {value!r}')
    return value


def _placement(value: object, n: int, m: int, name: str) -> rook.Placement:
    try:
        return rook.canonical_placement(value, n, m)
    except InputError as exc:
        raise InputError(f"counterexample {name}: {exc}") from None


def _placements(payload: dict, n: int, m: int) -> list[rook.Placement]:
    return [
        _placement(member, n, m, f'"family"[{index}]')
        for index, member in enumerate(_list(payload, "family"))
    ]


def _order(payload: dict) -> cycles.CyclicOrder:
    return cycles.canonical_order(_integers(payload, "sigma1"), _integers(payload, "sigma2"))


def _validate_family_exceeds_star(payload: dict) -> tuple[bool, str]:
    context = _field(payload, "context")
    if not isinstance(context, dict):
        raise InputError(f'"context" must be a JSON object, got {type(context).__name__}')
    if context.get("type") == "rook":
        n, m, r = (_integer(context, key, "counterexample context") for key in ("n", "m", "r"))
        members = _placements(payload, n, m)
        if any(len(member) != r for member in members):
            return False, "family member has the wrong size"
        star = counts.rook_star_count(n, m, r)
    elif context.get("type") == "graph":
        g = graphs.graph_from_json_dict(_field(context, "graph", "counterexample context"))
        r = _integer(context, "r", "counterexample context")
        members = []
        for index, member in enumerate(_list(payload, "family")):
            if not isinstance(member, list) or not all(map(is_integer, member)):
                raise InputError(f'counterexample "family"[{index}] must be a list of vertices, '
                                 f"got {member!r}")
            members.append(tuple(sorted(member)))
        for member in members:
            if len(set(member)) != r:
                return False, "family member has the wrong size"
            if not g.is_independent(member):
                return False, f"family member {list(member)} is not independent"
        star = graphs.best_star_size(g, graphs.enumerate_independent(g, r))
    else:
        return False, f"unknown counterexample context {context.get('type')!r}"
    if len(set(members)) != len(members):
        return False, "family contains duplicate members"
    if not rook.pairwise_intersecting(members):
        return False, "family is not pairwise intersecting"
    if len(members) <= star:
        return False, f"family size {len(members)} does not exceed the star size {star}"
    return True, f"intersecting family of {len(members)} exceeds the star size {star}"


def _validate_interval_family(payload: dict) -> tuple[bool, str]:
    order = _order(payload)
    r = _integer(payload, "r")
    if payload["kind"] == "interval_tightness_gap":
        found = _integer(payload, "found_max")
        recomputed = cycles.max_intersecting_intervals(order, r)
        if recomputed == found and recomputed < r:
            return True, f"recomputed interval maximum {recomputed} is below r={r}"
        return False, f"recomputed interval maximum is {recomputed}"
    members = _placements(payload, order.n, order.m)
    if len(set(members)) != len(members):
        return False, "family contains duplicate members"
    for member in members:
        if cycles.interval_start(order, member) is None:
            return False, f"{list(member)} is not an interval of the order"
    if not rook.pairwise_intersecting(members):
        return False, "family is not pairwise intersecting"
    if len(members) <= r:
        return False, f"family size {len(members)} does not exceed r={r}"
    return True, f"intersecting interval family of {len(members)} exceeds r={r}"


def _validate_double_count(payload: dict) -> tuple[bool, str]:
    family = rook.family_from_json_dict(_field(payload, "family"))
    lhs, rhs = cycles.interval_double_count(family)
    bound = family.r * counts.cyclic_order_count(family.n, family.m)
    if lhs != rhs:
        return True, f"recomputed lhs={lhs} differs from rhs={rhs}"
    if rook.is_intersecting(family) and lhs > bound:
        return True, f"recomputed lhs={lhs} exceeds the bound {bound}"
    return False, f"recomputation finds lhs=rhs={lhs} within the bound {bound}"


def _validate_window(payload: dict) -> tuple[bool, str]:
    order = _order(payload)
    start = _integers(payload, "start")
    if len(start) != 2:
        raise InputError(f'counterexample "start" must be a pair (i, j), got {start!r}')
    report = cycles.check_interval_windows(order, *start, _integer(payload, "r"))
    if not report.passed:
        return True, f"recomputed window check fails: {report.failure}"
    return False, "recomputed window check passes"


def _validate_occurrence(payload: dict) -> tuple[bool, str]:
    n, m, expected, found = (_integer(payload, key) for key in ("n", "m", "expected", "found"))
    placement = _placement(_field(payload, "placement"), n, m, '"placement"')
    recomputed = cycles.count_orders_containing(n, m, placement)
    if recomputed != expected and recomputed == found:
        return True, f"recomputed occurrence count {recomputed} differs from expected {expected}"
    return False, f"recomputed occurrence count is {recomputed}"


VALIDATORS = {
    "intersecting_family_exceeds_star": _validate_family_exceeds_star,
    "interval_family_exceeds_r": _validate_interval_family,
    "interval_tightness_gap": _validate_interval_family,
    "double_count_violation": _validate_double_count,
    "window_violation": _validate_window,
    "occurrence_mismatch": _validate_occurrence,
}
