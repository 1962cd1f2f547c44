"""Command-line front end: polynomial parsing, field inspection, and the
comparison verdict engine.

Verdict chain for `compare`: weak arithmetic equivalence from decomposition
types; genus of the integral trace forms through Hasse invariants (when the
tame/same-disc/same-signature hypotheses hold); spinor genus = genus in
degree >= 3; isometry only through the indefinite spinor-genus route, so
totally real pairs in one spinor genus come out "undetermined"; and a
normalized root-number comparison at the odd ramified primes when the
discriminants agree.  The theorem trail records which sufficient conditions
(degree <= 3, fundamental discriminant, both Galois) held and cross-checks
the predicted conclusions against the computed ones.

Exit codes: 0 ok, 2 parse error, 3 invalid polynomial, 4 internal
invariant violation, 5 refused: a stage reached its budget (the Galois
prime scan cap) without an exact answer.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field as dc_field

from nftrace.exact import InternalInvariantError, IntPoly
from nftrace.numberfield import (
    FieldConstructionError,
    GaloisScanExceeded,
    NumberField,
    is_fundamental_disc,
    is_galois,
    new_field,
    trace_gram,
)
from nftrace.quadform import same_genus_trace, trace_hasse_profile, trace_jordan
from nftrace.rootnum import compare_root_numbers, det_rho_discriminant, stiefel_whitney_local
from nftrace.splitting import decomposition_type, is_tame_field, ramified_primes, split_prime
from nftrace.zeta import local_l_factor, weakly_equivalent


# ----------------------------------------------------------------------
# polynomial parsing
# ----------------------------------------------------------------------


class PolynomialParseError(ValueError):
    """Parse failure with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_polynomial(text: str) -> IntPoly:
    """Parse `x^4 - x^3 + 4*x^2 + 68*x + 152` or `[152, 68, 4, -1, 1]`.

    Integer coefficients only; `*` before x is optional; whitespace is
    ignored.  Errors carry the character position.
    """
    stripped = text.strip()
    if stripped.startswith("["):
        return _parse_coeff_list(stripped)
    return _parse_expression(text)


def _parse_coeff_list(s: str) -> IntPoly:
    if not s.endswith("]"):
        raise PolynomialParseError("unterminated coefficient list", len(s) - 1)
    body = s[1:-1].strip()
    if not body:
        raise PolynomialParseError("empty coefficient list", 1)
    coeffs = []
    for i, part in enumerate(body.split(",")):
        part = part.strip()
        try:
            coeffs.append(int(part))
        except ValueError:
            raise PolynomialParseError(
                f"coefficient {part!r} is not an integer", s.find(part) if part else i
            ) from None
    return IntPoly(coeffs)


def _parse_expression(text: str) -> IntPoly:
    coeffs: dict[int, int] = {}
    i = 0
    n = len(text)

    def skip_ws(j):
        while j < n and text[j].isspace():
            j += 1
        return j

    def read_int(j):
        start = j
        while j < n and text[j].isdigit():
            j += 1
        if start == j:
            raise PolynomialParseError("expected an integer", start)
        return int(text[start:j]), j

    i = skip_ws(i)
    if i == n:
        raise PolynomialParseError("empty polynomial", 0)
    first = True
    while i < n:
        sign = 1
        i = skip_ws(i)
        if i < n and text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = skip_ws(i + 1)
        elif not first:
            raise PolynomialParseError(f"expected '+' or '-', got {text[i]!r}", i)
        first = False
        coef = None
        if i < n and text[i].isdigit():
            coef, i = read_int(i)
            i = skip_ws(i)
            if i < n and text[i] == "/":
                raise PolynomialParseError("rational coefficients are not allowed", i)
            if i < n and text[i] == "*":
                i = skip_ws(i + 1)
                if i >= n or text[i] not in "xX":
                    raise PolynomialParseError("expected 'x' after '*'", i)
        power = 0
        if i < n and text[i] in "xX":
            power = 1
            i = skip_ws(i + 1)
            if i < n and text[i] == "^":
                i = skip_ws(i + 1)
                power, i = read_int(i)
                i = skip_ws(i)
        elif coef is None:
            got = repr(text[i]) if i < n else "end of input"
            raise PolynomialParseError(f"expected a coefficient or 'x', got {got}", i)
        if coef is None:
            coef = 1
        coeffs[power] = coeffs.get(power, 0) + sign * coef
        i = skip_ws(i)
    if not coeffs:
        raise PolynomialParseError("empty polynomial", 0)
    top = max(coeffs)
    return IntPoly([coeffs.get(k, 0) for k in range(top + 1)])


# ----------------------------------------------------------------------
# field reports
# ----------------------------------------------------------------------


def _fmt_fraction(fr) -> str:
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def field_summary(K: NumberField, assume_galois: bool = False) -> dict:
    """Shared per-field block: invariants, splittings, local data."""
    ram = sorted(ramified_primes(K))
    per_prime: dict[str, dict] = {}
    minus_one = split_prime(K, -1)
    per_prime["-1"] = {
        "pairs": [list(t) for t in minus_one.pairs],
        "decomposition_type": list(decomposition_type(K, -1).fs),
        "l_factor": local_l_factor(K, -1).render(),
    }
    for p in ram:
        sp = split_prime(K, p)
        entry = {
            "pairs": [list(t) for t in sp.pairs],
            "decomposition_type": list(sp.decomposition_type().fs),
            "tame": sp.is_tame,
            "l_factor": local_l_factor(K, p).render(),
        }
        if p != 2 and sp.is_tame:
            J = trace_jordan(K, p)
            entry["jordan"] = {
                "display": J.display(),
                "flattened": J.flattened(),
                "unimodular": [J.unimodular_dim, J.unimodular_class],
                "p_part": [J.p_part_dim, J.p_part_class],
            }
        elif p == 2:
            entry["jordan_note"] = "dyadic Jordan structure not computed"
        else:
            entry["jordan_note"] = "wild prime: tame Jordan shape unavailable"
        if p != 2:
            entry["normalized_root_number"] = stiefel_whitney_local(K, p).value
        per_prime[str(p)] = entry
    G = trace_gram(K)
    prof = trace_hasse_profile(K)
    galois = True if assume_galois else is_galois(K)
    return {
        "polynomial": str(K.defining_poly),
        "degree": K.degree,
        "disc": K.disc,
        "disc_factored": str(K.disc_factorization),
        "signature": list(K.signature),
        "index": K.index,
        "integral_basis": [[_fmt_fraction(a) for a in row] for row in K.integral_basis],
        "ramified_primes": ram,
        "tame": is_tame_field(K),
        "galois": galois,
        "galois_assumed": bool(assume_galois),
        "fundamental_disc": is_fundamental_disc(K.disc_factorization),
        "det_character_class": det_rho_discriminant(K).square_class,
        "trace_gram": [list(r) for r in G.entries],
        "hasse_profile": {str(p): v for p, v in sorted(prof.values.items())},
        "rational_trace_is_unit_form": prof.is_unit_form(),
        "per_prime": per_prime,
    }


def inspect_field(K: NumberField, assume_galois: bool = False) -> dict:
    summary = field_summary(K, assume_galois)
    return {
        "fields": [summary],
        "verdicts": {
            "galois": summary["galois"],
            "fundamental_disc": summary["fundamental_disc"],
            "tame": summary["tame"],
            "rational_trace_is_unit_form": summary["rational_trace_is_unit_form"],
        },
        "evidence": {"per_prime": summary["per_prime"]},
    }


# ----------------------------------------------------------------------
# comparison verdict engine
# ----------------------------------------------------------------------

YES, NO, INAPPLICABLE = "yes", "no", "inapplicable"
ISOMETRIC, NOT_ISOMETRIC_GENUS, UNDETERMINED = (
    "isometric",
    "not-isometric-genus",
    "undetermined",
)


@dataclass
class ComparisonReport:
    fields: list[dict]
    weak_ae: bool
    weak_ae_witness: dict
    same_disc: bool
    same_signature: bool
    both_tame: bool
    both_non_totally_real: bool
    both_galois: bool
    fundamental_disc: bool
    genus_equal: str
    genus_detail: dict
    spinor_genus_equal: str
    isometry_verdict: str
    root_number_comparison: dict
    theorem_trail: list[str] = dc_field(default_factory=list)
    counterexample_note: str | None = None

    def to_dict(self) -> dict:
        return {
            "fields": self.fields,
            "verdicts": {
                "weak_arithmetic_equivalence": self.weak_ae,
                "same_disc": self.same_disc,
                "same_signature": self.same_signature,
                "both_tame": self.both_tame,
                "both_non_totally_real": self.both_non_totally_real,
                "both_galois": self.both_galois,
                "fundamental_disc": self.fundamental_disc,
                "genus_equal": self.genus_equal,
                "spinor_genus_equal": self.spinor_genus_equal,
                "isometry_verdict": self.isometry_verdict,
                "root_numbers": self.root_number_comparison,
                "theorem_trail": self.theorem_trail,
                "counterexample_note": self.counterexample_note,
                "weak_ae_witness": self.weak_ae_witness,
                "genus_detail": self.genus_detail,
            },
            "evidence": {"per_prime": self._per_prime_evidence()},
        }

    def _per_prime_evidence(self) -> dict:
        out: dict[str, dict] = {}
        fK, fL = self.fields
        places = sorted(
            set(fK["per_prime"]) | set(fL["per_prime"]), key=lambda s: int(s)
        )
        for place in places:
            entry = {}
            for tag, f in (("K", fK), ("L", fL)):
                if place in f["per_prime"]:
                    pp = f["per_prime"][place]
                    entry[f"type_{tag}"] = pp["decomposition_type"]
                    entry[f"pairs_{tag}"] = pp["pairs"]
                    if "jordan" in pp:
                        entry[f"jordan_{tag}"] = pp["jordan"]["display"]
                    if "normalized_root_number" in pp:
                        entry[f"w_{tag}"] = pp["normalized_root_number"]
            out[place] = entry
        for p, hK, hL in self.genus_detail.get("per_prime", ()):
            out.setdefault(str(p), {})["h_K"] = hK
            out.setdefault(str(p), {})["h_L"] = hL
        return out


def compare(
    K: NumberField,
    L: NumberField,
    assume_galois: bool = False,
    assume_ae: bool = False,
) -> ComparisonReport:
    trail: list[str] = []
    wae = weakly_equivalent(K, L)
    if wae.equivalent:
        trail.append(
            "weak arithmetic equivalence holds: equal decomposition types at "
            "every ramified prime and at p = -1"
        )
    else:
        trail.append(f"weak arithmetic equivalence fails: {wae.reason}")
    same_disc = K.disc == L.disc
    same_sig = K.signature == L.signature
    both_tame = is_tame_field(K) and is_tame_field(L)
    if wae.equivalent and both_tame:
        # equality of discriminants is a theorem here; weakly_equivalent
        # has already raised if it failed
        trail.append(
            "both fields tame and weakly equivalent: discriminant equality "
            "confirmed (tame exponent formula)"
        )
    both_nontot_real = K.r2 > 0 and L.r2 > 0
    if assume_galois:
        both_galois = True
        trail.append("normality of both fields assumed via --assume-galois")
    else:
        both_galois = is_galois(K) and is_galois(L)
    fund = is_fundamental_disc(K.disc_factorization)

    genus = same_genus_trace(K, L)
    if genus.applicable:
        genus_state = YES if genus.equal else NO
        trail.append(
            "genus comparison via Hasse invariants at odd ramified primes: "
            + ("equal" if genus.equal else "not equal")
        )
    else:
        genus_state = INAPPLICABLE
        trail.append(
            f"genus comparison inapplicable: hypothesis failed ({genus.failed_hypothesis})"
        )
    genus_detail = {
        "applicable": genus.applicable,
        "failed_hypothesis": genus.failed_hypothesis,
        "per_prime": list(genus.per_prime),
    }

    if K.degree >= 3 and L.degree >= 3:
        spinor_state = genus_state
        if genus_state != INAPPLICABLE:
            trail.append(
                "spinor genus equals genus for trace forms in degree >= 3"
            )
    else:
        spinor_state = INAPPLICABLE
        trail.append("spinor genus refinement needs degree >= 3: inapplicable")

    if genus_state == NO:
        isometry = NOT_ISOMETRIC_GENUS
        trail.append("different genus: the integral trace forms are not isometric")
    elif spinor_state == YES and both_nontot_real:
        isometry = ISOMETRIC
        trail.append(
            "one spinor genus and indefinite forms (both fields non-totally "
            "real): the integral trace forms are isometric"
        )
    elif spinor_state == YES:
        isometry = UNDETERMINED
        trail.append(
            "one spinor genus but both fields totally real: isometry is "
            "undetermined (definite forms; a degree-7 pair shows a single "
            "spinor genus does not force isometry here)"
        )
    else:
        isometry = UNDETERMINED
        trail.append("isometry undetermined: spinor-genus comparison unavailable")

    rn = compare_root_numbers(K, L)
    if rn.applicable:
        if rn.differ:
            trail.append(
                "normalized local root numbers differ at {"
                + ", ".join(str(p) for p in rn.differ)
                + "}"
            )
        else:
            trail.append(
                "normalized local root numbers agree at every odd ramified prime"
            )
    else:
        trail.append(f"root-number comparison inapplicable: {rn.reason}")
    rn_dict = {
        "applicable": rn.applicable,
        "reason": rn.reason,
        "agree": list(rn.agree),
        "differ": list(rn.differ),
        "per_prime": [list(t) for t in rn.per_prime],
    }

    conditions = []
    if K.degree <= 3 and L.degree <= 3:
        conditions.append("(a) degree <= 3")
    if fund:
        conditions.append("(b) fundamental discriminant")
    if both_galois:
        conditions.append("(c) both Galois")
    if conditions:
        trail.append("sufficient conditions held: " + "; ".join(conditions))
    else:
        trail.append("none of the sufficient conditions (a)/(b)/(c) held")

    # executable form of the two classification theorems
    if wae.equivalent and both_tame and conditions:
        if rn.applicable and rn.differ:
            raise InternalInvariantError(
                "theorem cross-check failed: a tame weakly-equivalent pair "
                "satisfying a sufficient condition has differing root numbers"
            )
        trail.append(
            "cross-check passed: local root numbers agree as the "
            "classification theorem predicts"
        )
        if both_nontot_real:
            if isometry != ISOMETRIC:
                raise InternalInvariantError(
                    "theorem cross-check failed: predicted isometric trace "
                    "forms but the verdict engine disagrees"
                )
            trail.append(
                "cross-check passed: integral trace forms isometric as the "
                "non-totally-real theorem predicts"
            )

    if assume_ae:
        trail.append("arithmetic equivalence asserted via --assume-ae")
        if both_tame and both_nontot_real:
            trail.append(
                "tame non-totally-real arithmetically equivalent fields have "
                "isometric integral traces"
            )
        elif both_tame:
            trail.append(
                "asserted AE pair is totally real: isometry of integral "
                "traces is not implied (known counterexample in degree 7)"
            )

    note = None
    if wae.equivalent and both_tame and genus_state == NO:
        note = (
            "weakly arithmetically equivalent tame pair with different local "
            "trace invariants: negative evidence for the general weak-AE "
            "isometry and root-number questions"
        )

    return ComparisonReport(
        fields=[field_summary(K, assume_galois), field_summary(L, assume_galois)],
        weak_ae=wae.equivalent,
        weak_ae_witness={
            "compared_places": list(wae.compared_places),
            "mismatch_place": wae.mismatch_place,
            "reason": wae.reason,
        },
        same_disc=same_disc,
        same_signature=same_sig,
        both_tame=both_tame,
        both_non_totally_real=both_nontot_real,
        both_galois=both_galois,
        fundamental_disc=fund,
        genus_equal=genus_state,
        genus_detail=genus_detail,
        spinor_genus_equal=spinor_state,
        isometry_verdict=isometry,
        root_number_comparison=rn_dict,
        theorem_trail=trail,
        counterexample_note=note,
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _stringify_ints(obj):
    """Arbitrary-precision safety: every non-bool int becomes a string."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _stringify_ints(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify_ints(v) for v in obj]
    return obj


def render_json(payload: dict) -> str:
    return json.dumps(_stringify_ints(payload), sort_keys=True, indent=2) + "\n"


def _render_field_text(f: dict, out: list[str]) -> None:
    out.append(f"  polynomial       {f['polynomial']}")
    out.append(f"  degree           {f['degree']}")
    out.append(f"  disc             {f['disc']} = {f['disc_factored']}")
    out.append(f"  signature        ({f['signature'][0]}, {f['signature'][1]})")
    out.append(f"  index            {f['index']}")
    basis = ["[" + ", ".join(row) + "]" for row in f["integral_basis"]]
    out.append(f"  integral basis   {'; '.join(basis)}")
    out.append(f"  ramified primes  {{{', '.join(str(p) for p in f['ramified_primes'])}}}")
    galois = str(f["galois"]).lower() + (" (assumed)" if f["galois_assumed"] else "")
    out.append(f"  tame             {str(f['tame']).lower()}")
    out.append(f"  galois           {galois}")
    out.append(f"  fundamental disc {str(f['fundamental_disc']).lower()}")
    out.append(
        f"  rational trace ~ <1,...,1>  {str(f['rational_trace_is_unit_form']).lower()}"
    )
    gram_rows = ["[" + ", ".join(str(x) for x in r) + "]" for r in f["trace_gram"]]
    out.append(f"  trace gram       {'; '.join(gram_rows)}")
    hp = ", ".join(f"h_{p} = {v:+d}" for p, v in f["hasse_profile"].items())
    out.append(f"  hasse profile    {hp}")
    for place in sorted(f["per_prime"], key=int):
        pp = f["per_prime"][place]
        line = f"  p = {place}: "
        line += "type " + "(" + ",".join(str(x) for x in pp["decomposition_type"]) + ")"
        line += "  (e,f) " + " ".join(f"({e},{fi})" for e, fi in pp["pairs"])
        if "tame" in pp:
            line += "  tame" if pp["tame"] else "  wild"
        out.append(line)
        out.append(f"      L-factor: {pp['l_factor']}")
        if "jordan" in pp:
            out.append(
                f"      jordan:   {pp['jordan']['display']}  =  {pp['jordan']['flattened']}"
            )
        elif "jordan_note" in pp:
            out.append(f"      jordan:   ({pp['jordan_note']})")
        if "normalized_root_number" in pp:
            out.append(f"      root number (normalized): {pp['normalized_root_number']:+d}")


def render_inspect_text(payload: dict) -> str:
    out: list[str] = ["field report"]
    _render_field_text(payload["fields"][0], out)
    return "\n".join(out) + "\n"


def render_compare_text(report: ComparisonReport) -> str:
    out: list[str] = []
    for label, f in zip(("field K", "field L"), report.fields):
        out.append(label)
        _render_field_text(f, out)
        out.append("")
    v = report
    out.append("verdicts")
    out.append(f"  weak arithmetic equivalence  {str(v.weak_ae).lower()}")
    if not v.weak_ae and v.weak_ae_witness["reason"]:
        out.append(f"      witness: {v.weak_ae_witness['reason']}")
    out.append(f"  same discriminant            {str(v.same_disc).lower()}")
    out.append(f"  same signature               {str(v.same_signature).lower()}")
    out.append(f"  both tame                    {str(v.both_tame).lower()}")
    out.append(f"  both non-totally-real        {str(v.both_non_totally_real).lower()}")
    out.append(f"  both Galois                  {str(v.both_galois).lower()}")
    out.append(f"  fundamental discriminant     {str(v.fundamental_disc).lower()}")
    out.append(f"  genus equal                  {v.genus_equal}")
    for p, hK, hL in v.genus_detail["per_prime"]:
        out.append(f"      p = {p}: h_p(q_K) = {hK:+d}, h_p(q_L) = {hL:+d}")
    out.append(f"  spinor genus equal           {v.spinor_genus_equal}")
    out.append(f"  isometry verdict             {v.isometry_verdict}")
    rn = v.root_number_comparison
    if rn["applicable"]:
        agree = "{" + ", ".join(str(p) for p in rn["agree"]) + "}"
        differ = "{" + ", ".join(str(p) for p in rn["differ"]) + "}"
        out.append(f"  root numbers                 agree at {agree}, differ at {differ}")
    else:
        out.append(f"  root numbers                 inapplicable: {rn['reason']}")
    if v.counterexample_note:
        out.append(f"  note: {v.counterexample_note}")
    out.append("")
    out.append("theorem trail")
    for i, step in enumerate(v.theorem_trail, 1):
        out.append(f"  {i}. {step}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nf",
        description="number field invariants: splittings, local zeta factors, "
        "integral trace forms, normalized root numbers",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    ins = sub.add_parser("inspect", help="report the invariants of one field")
    ins.add_argument("poly", help="defining polynomial, e.g. 'x^2 + 1' or '[1, 0, 1]'")
    ins.add_argument("--json", action="store_true", dest="as_json")
    ins.add_argument("--assume-galois", action="store_true")
    cmp_ = sub.add_parser("compare", help="compare two fields")
    cmp_.add_argument("poly_a")
    cmp_.add_argument("poly_b")
    cmp_.add_argument("--json", action="store_true", dest="as_json")
    cmp_.add_argument("--assume-galois", action="store_true")
    cmp_.add_argument("--assume-ae", action="store_true")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            K = new_field(parse_polynomial(args.poly))
            payload = inspect_field(K, assume_galois=args.assume_galois)
            if args.as_json:
                sys.stdout.write(render_json(payload))
            else:
                sys.stdout.write(render_inspect_text(payload))
        else:
            K = new_field(parse_polynomial(args.poly_a))
            L = new_field(parse_polynomial(args.poly_b))
            report = compare(
                K, L, assume_galois=args.assume_galois, assume_ae=args.assume_ae
            )
            if args.as_json:
                sys.stdout.write(render_json(report.to_dict()))
            else:
                sys.stdout.write(render_compare_text(report))
    except PolynomialParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FieldConstructionError as exc:
        print(f"invalid polynomial: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except GaloisScanExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
