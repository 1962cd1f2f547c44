"""CLI: parsing, exit codes, report structure, JSON determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import field
from nftrace.cli import (
    PolynomialParseError,
    compare,
    inspect_field,
    main,
    parse_polynomial,
    render_json,
)
from nftrace.exact import IntPoly


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def test_parse_expression():
    f = parse_polynomial("x^4 - x^3 + 4*x^2 + 68*x + 152")
    assert f == IntPoly([152, 68, 4, -1, 1])


def test_parse_list_form():
    assert parse_polynomial("[-15, -8, 0, 1]") == IntPoly([-15, -8, 0, 1])
    assert parse_polynomial(" [1 , 0 , 1] ") == IntPoly([1, 0, 1])


def test_parse_whitespace_and_implicit_star():
    assert parse_polynomial("x^2+1") == parse_polynomial("  x ^ 2  +  1 ")
    assert parse_polynomial("2x") == IntPoly([0, 2])
    assert parse_polynomial("2*x") == IntPoly([0, 2])
    assert parse_polynomial("-x^2 + x - 7") == IntPoly([-7, 1, -1])
    assert parse_polynomial("x + x") == IntPoly([0, 2])


def test_parse_rational_coefficient_rejected():
    with pytest.raises(PolynomialParseError) as exc:
        parse_polynomial("x^2 - 1/2")
    assert exc.value.position == 7


def test_parse_malformed():
    for bad in ("", "x^", "x +", "* x", "x^2 ++ 1", "[1, 2", "[]", "[1, a]", "y^2"):
        with pytest.raises(PolynomialParseError):
            parse_polynomial(bad)


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------


def test_exit_code_ok(capsys):
    assert main(["inspect", "x^2 + 1"]) == 0
    assert "disc" in capsys.readouterr().out


def test_exit_code_parse_error(capsys):
    assert main(["inspect", "x^2 - 1/2"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_exit_code_reducible(capsys):
    assert main(["inspect", "x^2 - 1"]) == 3
    err = capsys.readouterr().err
    assert "invalid polynomial" in err and "factor" in err


def test_exit_code_nonmonic(capsys):
    assert main(["inspect", "2*x^2 + 1"]) == 3


def test_exit_code_degree_one(capsys):
    assert main(["inspect", "x + 3"]) == 3


def test_exit_code_internal_invariant(capsys, monkeypatch):
    from nftrace.exact import InternalInvariantError
    import nftrace.cli as cli_mod

    def boom(K, assume_galois=False):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli_mod, "inspect_field", boom)
    assert main(["inspect", "x^2 + 1"]) == 4
    assert "internal invariant violation" in capsys.readouterr().err


def test_python_dash_m_runs_cleanly():
    import nftrace

    src = str(Path(nftrace.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nftrace", "inspect", "x^2+1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "disc             -4 = -2^2" in proc.stdout


# ----------------------------------------------------------------------
# report content
# ----------------------------------------------------------------------


def test_inspect_quartic_report():
    payload = inspect_field(field("K4"))
    f = payload["fields"][0]
    assert f["disc"] == 15311569
    assert f["disc_factored"] == "7^2 * 13^2 * 43^2"
    assert f["signature"] == [0, 2]
    assert f["per_prime"]["7"]["pairs"] == [[1, 1], [3, 1]]
    assert f["per_prime"]["-1"]["l_factor"] == "GammaC(s)^2"
    assert payload["verdicts"]["galois"] is False


def test_inspect_gauss_has_dyadic_note():
    payload = inspect_field(field("gauss"))
    f = payload["fields"][0]
    assert "jordan_note" in f["per_prime"]["2"]
    assert f["per_prime"]["2"]["tame"] is False


def test_inspect_disc49_unit_form_flag():
    payload = inspect_field(field("c49"))
    assert payload["verdicts"]["rational_trace_is_unit_form"] is True


def test_compare_quartic_pair_report():
    rep = compare(field("K4"), field("L4"))
    assert rep.weak_ae is True
    assert rep.genus_equal == "no"
    assert rep.spinor_genus_equal == "no"
    assert rep.isometry_verdict == "not-isometric-genus"
    assert rep.root_number_comparison["differ"] == [7, 43]
    assert rep.root_number_comparison["agree"] == [13]
    assert rep.counterexample_note is not None


def test_compare_cubic_pair_isometric():
    rep = compare(field("C3a"), field("C3b"))
    assert rep.isometry_verdict == "isometric"
    assert any("(a) degree <= 3" in s for s in rep.theorem_trail)
    assert any("cross-check passed" in s for s in rep.theorem_trail)


def test_compare_8281_pair():
    rep = compare(field("c8281a"), field("c8281b"))
    assert rep.weak_ae and rep.both_galois
    assert rep.genus_equal == "yes"
    assert rep.isometry_verdict == "undetermined"  # totally real
    assert rep.root_number_comparison["differ"] == []


def test_compare_disc49_vs_disc81():
    rep = compare(field("c49"), field("c81"))
    assert rep.weak_ae is False
    assert rep.genus_equal == "inapplicable"
    assert rep.root_number_comparison["applicable"] is False


def test_compare_assume_flags():
    rep = compare(field("F7"), field("L7"), assume_galois=True, assume_ae=True)
    assert rep.both_galois is True
    assert any("--assume-galois" in s for s in rep.theorem_trail)
    assert any("--assume-ae" in s for s in rep.theorem_trail)
    assert any("totally real" in s for s in rep.theorem_trail)
    assert rep.isometry_verdict == "undetermined"


def test_quadratic_pair_verdicts_limited():
    rep = compare(field("gauss"), field("gauss"))
    assert rep.spinor_genus_equal == "inapplicable"
    assert rep.isometry_verdict == "undetermined"


# ----------------------------------------------------------------------
# JSON output
# ----------------------------------------------------------------------


def _walk(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _walk(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk(v)
    else:
        yield obj


def test_json_schema_and_integer_strings(capsys):
    assert main(["compare", "x^3 - 8*x - 15", "x^3 + 10*x - 1", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert set(payload) == {"fields", "verdicts", "evidence"}
    assert len(payload["fields"]) == 2
    assert "per_prime" in payload["evidence"]
    # every leaf is a string, bool or None: big integers survive as decimals
    for leaf in _walk(payload):
        assert leaf is None or isinstance(leaf, (str, bool))
    assert payload["fields"][0]["disc"] == "-4027"


def test_json_deterministic(capsys):
    main(["compare", "x^4 - x^3 + 4*x^2 + 68*x + 152", "x^4 - 15*x^2 - 21*x + 121", "--json"])
    first = capsys.readouterr().out
    main(["compare", "x^4 - x^3 + 4*x^2 + 68*x + 152", "x^4 - 15*x^2 - 21*x + 121", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_text_deterministic(capsys):
    main(["inspect", "x^4 - x^3 + 4*x^2 + 68*x + 152"])
    first = capsys.readouterr().out
    main(["inspect", "[152, 68, 4, -1, 1]"])
    second = capsys.readouterr().out
    assert first == second


def test_json_text_same_data(capsys):
    # the JSON payload carries exactly the data the text rendering shows
    main(["compare", "x^3 + x^2 - 2*x - 1", "x^3 - 3*x - 1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    main(["compare", "x^3 + x^2 - 2*x - 1", "x^3 - 3*x - 1"])
    text = capsys.readouterr().out
    v = payload["verdicts"]
    assert ("weak arithmetic equivalence  " + ("true" if v["weak_arithmetic_equivalence"] else "false")) in text
    assert f"genus equal                  {v['genus_equal']}" in text
    assert f"isometry verdict             {v['isometry_verdict']}" in text


def test_conway_convention_keys(capsys):
    main(["inspect", "x^2 + 1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert "-1" in payload["evidence"]["per_prime"]


# ----------------------------------------------------------------------
# inputs whose trace-form Hasse profile used to stall in factor_integer
# ----------------------------------------------------------------------

# sha256(...)[:16] of `nf inspect --json`, as the entry-by-entry Hasse
# profile (factoring each whole diagonal entry) printed it, which took 14 s
# and 23 s for the sextics
_STALL_INSPECTS = {
    "x^6 - 89*x^5 - 60*x^4 - 80*x^3 - 29*x^2 + 33*x - 39": "b7c1029e38430582",
    "x^6 - 96*x^5 - 96*x^4 - 51*x^3 - 61*x^2 + 93*x - 58": "3a1549596ffcc4e0",
}


@pytest.mark.parametrize("poly", sorted(_STALL_INSPECTS))
def test_stalled_inspects_finish_with_recorded_output(poly, capsys):
    t0 = time.perf_counter()
    assert main(["inspect", "--json", poly]) == 0
    assert time.perf_counter() - t0 < 10
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == _STALL_INSPECTS[poly]


def test_item4a_inspect_finishes(capsys):
    # ROADMAP item 4(a): the 80-digit numerators of the rational
    # diagonalization once kept Brent's rho busy for more than 100 s
    poly = (
        "x^10 + 55*x^9 - 36*x^8 - 22*x^7 + 71*x^6 + 88*x^5 - 57*x^4 "
        "- 8*x^3 - 79*x^2 - 77*x - 86"
    )
    t0 = time.perf_counter()
    assert main(["inspect", "--json", poly]) == 0
    assert time.perf_counter() - t0 < 10
    f = json.loads(capsys.readouterr().out)["fields"][0]
    product = 1
    for v in f["hasse_profile"].values():
        product *= int(v)
    assert product == 1
    assert f["disc_factored"] == "2^2 * 3 * 71 * 54589663111 * 63794796416229049421231473057"
