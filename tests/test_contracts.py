"""Source-level contracts: checks that survive `python -O`, and the names the
traced bench wraps."""

import ast
import importlib
from pathlib import Path

import nftrace

SRC = Path(nftrace.__file__).resolve().parent
BENCH_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_no_assert_statements_in_package():
    # `python -O` strips asserts; invariants must raise InternalInvariantError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _bench_layers():
    """The LAYERS table of bench/spans.py, read without importing bench."""
    tree = ast.parse(BENCH_SPANS.read_text(), str(BENCH_SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no LAYERS table")


def test_bench_layers_resolve_to_callables():
    layers = _bench_layers()
    assert layers
    missing = []
    for module, func in layers:
        mod = importlib.import_module(f"nftrace.{module}")
        if not callable(getattr(mod, func, None)):
            missing.append(f"nftrace.{module}.{func}")
    assert missing == []


def test_no_module_imports_a_private_name_of_numberfield_or_local():
    # the order and p-adic kernels other modules share are public names
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "nftrace.numberfield",
                "nftrace.local",
            ):
                found += [f"{path.name}:{a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


# integer-only kernels: Gram-Schmidt data is carried as Gram determinants,
# the Gram inverse of the coordinate bound as the integer adjugate, the
# Newton slope of the Round-2 start and the sides of Ore's polygons as
# integer pairs with int valuations, the algebra O/pO as residues mod p,
# the symmetric elimination of a quadratic form as leading minors (over Q)
# or residues mod p^K (over Z_p), and polynomial remainders as
# pseudo-remainders
_INTEGER_ONLY = {
    "_linalg.py": ("lll_reduce", "nearest_plane", "int_adjugate"),
    "numberfield.py": (
        "_count_roots_split",
        "_all_roots_inert",
        "_coordinate_bound",
        "_newton_start",
        "_p_maximal_order",
    ),
    "local.py": (
        "ore",
        "_phi_expansion",
        "_sides",
        "_lattice_points",
        "_residual",
        "_factor_degrees",
        "frobenius_matrix",
        "minimal_polynomial",
        "split_by_idempotents",
    ),
    "quadform.py": ("_sym_bareiss", "diagonalize_rational", "jordan_form_odd"),
    "exact.py": (
        "split_val",
        "_pseudo_rem",
        "poly_gcd",
        "_sturm_chain",
        "count_real_roots",
        "IntPoly.divmod_exact",
    ),
}


def _defs(tree):
    """Top-level functions by name, and class methods as `Class.method`."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out[f"{node.name}.{item.name}"] = item
    return out


def test_lattice_kernels_use_no_fraction():
    found = []
    for filename, names in _INTEGER_ONLY.items():
        path = SRC / filename
        defs = _defs(ast.parse(path.read_text(), str(path)))
        for name in names:
            for node in ast.walk(defs[name]):
                if (isinstance(node, ast.Name) and node.id == "Fraction") or (
                    isinstance(node, ast.Attribute) and node.attr == "Fraction"
                ):
                    found.append(f"{filename}:{name}:{node.lineno}")
    assert found == []


def test_integer_kernels_use_no_true_division():
    # a slope or a valuation computed with `/` would be a float
    found = []
    for filename, names in _INTEGER_ONLY.items():
        path = SRC / filename
        defs = _defs(ast.parse(path.read_text(), str(path)))
        for name in names:
            for node in ast.walk(defs[name]):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                    found.append(f"{filename}:{name}:{node.lineno}")
    assert found == []
