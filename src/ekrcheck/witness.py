"""Each counterexample kind, written once: the producer that a command
calls when it finds a violation, beside the validator that re-checks it.

``check-witness`` hands a report file to ``check_report``, which looks up
the payload's ``kind`` in ``VALIDATORS``.  Each validator type-checks the
fields it reads, so a malformed payload is an InputError that names the
field, and then recomputes the claim from the library: it returns (True,
detail) when the counterexample is confirmed and (False, detail) when it
is refuted.  This module imports only ``errors`` when it loads; each
producer and validator imports the library modules it runs.
"""

from __future__ import annotations

from .errors import InputError, is_integer, load_json


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


def _placement(value: object, n: int, m: int, name: str) -> tuple:
    from . import rook

    try:
        return rook.canonical_placement(value, n, m)
    except InputError as exc:
        raise InputError(f"counterexample {name}: {exc}") from None


def _placements(payload: dict, n: int, m: int) -> list[tuple]:
    return [
        _placement(member, n, m, f'"family"[{index}]')
        for index, member in enumerate(_list(payload, "family"))
    ]


def _order(payload: dict):
    from . import cycles

    return cycles.canonical_order(_integers(payload, "sigma1"), _integers(payload, "sigma2"))


def family_exceeds_star_payload(report, g) -> dict:
    """The counterexample of a search report that refutes EKR; ``g`` is the
    searched graph, or None for a rook grid."""
    params = report.parameters
    if params["kind"] == "rook":
        context = {"type": "rook", "n": params["n"], "m": params["m"], "r": params["r"]}
    else:
        from . import graphs

        context = {"type": "graph", "graph": graphs.graph_to_json_dict(g), "r": params["r"]}
    return {
        "kind": "intersecting_family_exceeds_star",
        "context": context,
        "family": report.witness_to_json(),
        "best_star": report.best_star,
    }


def _validate_family_exceeds_star(payload: dict) -> tuple[bool, str]:
    from . import counts, rook

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
        from . import graphs

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


def interval_family_payload(order, r: int, family: tuple) -> dict:
    """The counterexample of an order whose largest intersecting interval
    family, ``family``, does not have r members."""
    return {
        "kind": "interval_family_exceeds_r" if len(family) > r else "interval_tightness_gap",
        **order.to_json_dict(),
        "r": r,
        "found_max": len(family),
        "family": [[list(cell) for cell in p] for p in family],
    }


def _validate_interval_family(payload: dict) -> tuple[bool, str]:
    from . import cycles, rook

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


def double_count_payload(family, lhs: int, rhs: int, bound: int) -> dict:
    """The counterexample of a family whose two sides of the interval double
    count differ, or, for an intersecting family, exceed ``bound``."""
    from . import rook

    return {
        "kind": "double_count_violation",
        "family": rook.family_to_json_dict(family),
        "lhs": lhs,
        "rhs": rhs,
        "bound": bound,
    }


def _validate_double_count(payload: dict) -> tuple[bool, str]:
    from . import counts, cycles, rook

    family = rook.family_from_json_dict(_field(payload, "family"))
    lhs, rhs = cycles.interval_double_count(family)
    bound = family.r * counts.cyclic_order_count(family.n, family.m)
    if lhs != rhs:
        return True, f"recomputed lhs={lhs} differs from rhs={rhs}"
    if rook.is_intersecting(family) and lhs > bound:
        return True, f"recomputed lhs={lhs} exceeds the bound {bound}"
    return False, f"recomputation finds lhs=rhs={lhs} within the bound {bound}"


def window_payload(report) -> dict:
    """The counterexample of a failed window check, ``cycles.WindowReport``."""
    return {
        "kind": "window_violation",
        **report.order.to_json_dict(),
        "start": list(report.start),
        "r": report.r,
        "failure": report.failure,
        "witness": [[list(cell) for cell in p] for p in (report.witness or ())],
    }


def _validate_window(payload: dict) -> tuple[bool, str]:
    from . import cycles

    order = _order(payload)
    start = _integers(payload, "start")
    if len(start) != 2:
        raise InputError(f'counterexample "start" must be a pair (i, j), got {start!r}')
    report = cycles.check_interval_windows(order, *start, _integer(payload, "r"))
    if not report.passed:
        return True, f"recomputed window check fails: {report.failure}"
    return False, "recomputed window check passes"


def occurrence_payload(n: int, m: int, placement: tuple, expected: int, found: int) -> dict:
    """The counterexample of a placement that is an interval of ``found``
    cyclic orders of the n-by-m grid, not of the ``expected`` number."""
    return {
        "kind": "occurrence_mismatch",
        "n": n,
        "m": m,
        "placement": [list(cell) for cell in placement],
        "expected": expected,
        "found": found,
    }


def _validate_occurrence(payload: dict) -> tuple[bool, str]:
    from . import cycles

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


def check_report(path: str) -> tuple[str, bool, str]:
    """The kind of the counterexample that the report in the file at
    ``path`` carries, and its validator's (confirmed, detail)."""
    report = load_json(path)
    if not isinstance(report, dict):
        raise InputError(f"{path}: a report must be a JSON object, got {type(report).__name__}")
    payload = report.get("counterexample")
    if payload is None:
        raise InputError("the report carries no counterexample to check")
    if not isinstance(payload, dict):
        raise InputError(f'"counterexample" must be a JSON object, got {type(payload).__name__}')
    kind = payload.get("kind")
    validator = VALIDATORS.get(kind) if isinstance(kind, str) else None
    if validator is None:
        raise InputError(f"unknown counterexample kind {kind!r}")
    return (kind, *validator(payload))
