"""Correctness gates, run after the timed window.

A response is correct when it is bit-identical to scoring the same
canonical query afresh: the same selected list in the same order, and a
ranking whose names, float scores (compared with ``!=``, no tolerance)
and selected flags match the reference ranking entry by entry. The
reference ranking is built exactly as the service builds its own:
score descending, then name ascending, capped at the ranking limit.

An adaptive request that the service answered with the plain fallback
(``degraded: true``) fails the gate: it is not the paper's answer.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable


def reference_ranking(outcome, limit: int | None) -> list[tuple[str, float]]:
    ranking = sorted(outcome.scores.items(), key=lambda item: (-item[1], item[0]))
    return ranking[:limit] if limit is not None else ranking


def response_problem(
    response: dict,
    outcome,
    limit: int | None,
    prefix: int | None = None,
) -> str | None:
    """Why ``response`` differs from the fresh ``outcome``, or None.

    ``prefix`` compares only the first entries of the ranking (the
    scatter-gather merge guarantees the top ``k``, not the tail).
    """
    if response.get("degraded"):
        return "degraded to the plain fallback"
    if response.get("partial"):
        return "partial scatter-gather response"
    if list(response["selected"]) != list(outcome.names):
        return f"selected {response['selected']!r} != {list(outcome.names)!r}"
    expected = reference_ranking(outcome, limit)
    got = response["ranking"]
    if prefix is not None:
        expected, got = expected[:prefix], got[:prefix]
    if len(got) != len(expected):
        return f"ranking length {len(got)} != {len(expected)}"
    chosen = set(outcome.names)
    for entry, (name, score) in zip(got, expected):
        if entry["name"] != name:
            return f"ranking order {entry['name']!r} != {name!r}"
        if entry["score"] != score:
            return f"score of {name!r}: {entry['score']!r} != {score!r}"
        if bool(entry["selected"]) != (name in chosen):
            return f"selected flag of {name!r}"
    return None


def check_answers(
    answers: Iterable[tuple[object, dict]],
    reference: Callable[[object], object],
    limit: int | None,
    prefix: int | None = None,
) -> dict:
    """Check each distinct (key, response) against ``reference(key)``.

    ``key`` identifies the request (query terms, algorithm, strategy);
    repeated keys are checked once, against their first response.
    Returns ``{"checked", "wrong", "examples"}``.
    """
    seen: set = set()
    checked = 0
    wrong: list[str] = []
    for key, response in answers:
        if key in seen:
            continue
        seen.add(key)
        checked += 1
        problem = response_problem(response, reference(key), limit, prefix)
        if problem is not None:
            wrong.append(f"{key!r}: {problem}")
    return {"checked": checked, "wrong": len(wrong), "examples": wrong[:5]}
