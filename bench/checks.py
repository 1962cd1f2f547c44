"""Exact output checks on the JSON the program printed.

These run after each op, outside its timed interval, and use no code of the
program: the determinant is recomputed here with Bareiss elimination.
Integers arrive as decimal strings (the program's JSON convention).
"""

from __future__ import annotations

import hashlib


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def bareiss_det(rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def field_problems(f: dict) -> list[str]:
    """Self-consistency of one field block; empty when every check holds."""
    problems = []
    n = int(f["degree"])
    gram = [[int(x) for x in row] for row in f["trace_gram"]]
    if bareiss_det(gram) != int(f["disc"]):
        problems.append("det(trace gram) != disc")
    for place, entry in f["per_prime"].items():
        if sum(int(e) * int(fi) for e, fi in entry["pairs"]) != n:
            problems.append(f"sum e*f != n at p = {place}")
    product = 1
    for v in f["hasse_profile"].values():
        product *= int(v)
    if product != 1:
        problems.append("Hasse profile product != +1")
    return problems


# Verdicts the paper states for its pairs.  c8281a/c8281b has no stated
# verdict; the verdicts the program computed when the digests were recorded
# are kept in expected.json and pinned instead.
PINNED_PAIR = "c8281a|c8281b"


def _k4_l4(v):
    return v["root_numbers"]["differ"] == ["7", "43"]


def _g7(v):
    return v["weak_arithmetic_equivalence"] and v["both_galois"]


def _s6(v):
    return v["fundamental_disc"]


def _c3(v):
    return v["weak_arithmetic_equivalence"] and any(
        "(a) degree <= 3" in step for step in v["theorem_trail"]
    )


def _f7_l7(v):
    return v["isometry_verdict"] == "undetermined"


KNOWN_VERDICTS = {
    ("K4", "L4"): _k4_l4,
    ("G7a", "G7b"): _g7,
    ("S6a", "S6b"): _s6,
    ("C3a", "C3b"): _c3,
    ("F7", "L7"): _f7_l7,
}


def payload_problems(payload: dict, pair: tuple[str, str] | None) -> list[str]:
    problems = []
    for f in payload["fields"]:
        problems += field_problems(f)
    known = KNOWN_VERDICTS.get(pair) if pair else None
    if known is not None and not known(payload["verdicts"]):
        problems.append(f"known verdict of {pair[0]}/{pair[1]} not reproduced")
    return problems
