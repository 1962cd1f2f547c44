"""Output identity against the digests the benchmark recorded.

Regenerates the inspect-random table and the compare-pool pairs through
bench/workloads.py and checks sha256(render_json(...))[:16] of every input
against bench/expected.json, so an output change fails here and not only
in the benchmark run.  Inputs without a recorded digest (the capped ones
when the digests were recorded) are skipped before they run.  Only reads
bench/.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from nftrace.cli import compare, inspect_field, parse_polynomial, render_json
from nftrace.exact import IntPoly, factor_poly
from nftrace.numberfield import new_field

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _expected_digests() -> dict:
    return json.loads((BENCH / "expected.json").read_text())["digests"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _is_irreducible(coeffs) -> bool:
    fac = factor_poly(IntPoly(coeffs))
    return len(fac) == 1 and fac[0][1] == 1


def test_inspect_random_outputs_match_recorded_digests():
    want = _expected_digests()
    ops, _ = _workloads().inspect_random(1, _is_irreducible)
    checked, differ = 0, []
    for op in ops:
        if op["name"] not in want:
            continue
        K = new_field(parse_polynomial(op["poly"]))
        if _digest(render_json(inspect_field(K))) != want[op["name"]]:
            differ.append(op["name"])
        checked += 1
    assert differ == []
    assert checked >= 100


def test_compare_pool_outputs_match_recorded_digests():
    want = _expected_digests()
    ops, info = _workloads().compare_pool(1)
    pool = {name: new_field(parse_polynomial(s)) for name, s in info["pool"].items()}
    checked, differ = 0, []
    for op in ops:
        if op["name"] not in want:
            continue
        a, b = op["pair"]
        if _digest(render_json(compare(pool[a], pool[b]).to_dict())) != want[op["name"]]:
            differ.append(op["name"])
        checked += 1
    assert differ == []
    assert checked == 136
