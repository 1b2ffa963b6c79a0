"""The package surface: every public name that no package code uses is
listed here with the reason it stays, and no module imports a name it
never reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bztflow"

ENTRY = "entry point"
PAPER = "paper object"
TEST = "test reference"

# module.name (or module.Class.method) -> why it stays public
UNCALLED = {
    # the finite-difference residuals of the paper's decompositions, read
    # on the solver fans and the sweep solutions, independent of the fan
    # series
    "characteristics.FlowField": TEST,
    "characteristics.PotentialFlowField": TEST,
    "characteristics.decomposition_residual_potential": TEST,
    "characteristics.decomposition_residual_euler_isentropic": TEST,
    # QUADPACK turning of a potential fan, against the stored series
    "fan.pm_potential": TEST,
    "selfsimilar.solve_euler_fsf": ENTRY,
    "selfsimilar.solve_potential_sfs": ENTRY,
    "selfsimilar.evaluate": ENTRY,
    "selfsimilar.validate": ENTRY,
    "selfsimilar.ValidationReport.ok": ENTRY,
    # the shock of the Euler expansion ramp past tau_f_e, a planned
    # construction (ROADMAP)
    "shocks.post_sonic_back_state_euler": PAPER,
    # the closed-form internal energy the tests check the enthalpy against
    "thermo.internal_energy": TEST,
    # the hodograph wave curves of a compression-ramp state
    "wavecurves.polar_branch_I": PAPER,
    "wavecurves.shock_fan_branch": PAPER,
    "wavecurves.polar_branch_II": PAPER,
    # the wall angles a state admits, read before solve_potential_sfs, and
    # the branch parameter of one wall on a branch of any kind
    "wavecurves.deflection_range": ENTRY,
    "wavecurves.solve_wedge_state": ENTRY,
    # checks of the composite branch against its defining relations
    "wavecurves.polar_tangency_check": TEST,
    "wavecurves.tail_tangent_acute": TEST,
    "wavecurves.tail_back_supersonic": TEST,
}


def _uncalled_public_names():
    """Public module-level functions and classes whose identifier no
    package module names (by reference, attribute or import), and public
    methods that no package module reads as an attribute."""
    functions, methods, names, attrs = {}, {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            functions[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                methods.update(
                    (f"{path.stem}.{node.name}.{sub.name}", sub.name)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not sub.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    # a local variable of the same name is no call of a method
    return ({q for q, name in functions.items() if name not in names | attrs}
            | {q for q, name in methods.items() if name not in attrs})


def test_every_uncalled_public_name_has_a_reason():
    found = _uncalled_public_names()
    assert sorted(found - set(UNCALLED)) == [], "uncalled, no reason given"
    assert sorted(set(UNCALLED) - found) == [], "listed, but now called"


def _unused_imports():
    """module: name for each name a package module imports and never
    reads, other than __future__ features and imports marked
    `# noqa: F401` on their first line."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.stem}: {name}")
    return unused


def test_no_unused_import():
    assert _unused_imports() == []
