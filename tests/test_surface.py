"""The package surface: every public name that no package code uses is
listed here with the reason it stays."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bztflow"

ENTRY = "entry point"
PAPER = "paper object"
TEST = "test reference"

# module.name (or module.Class.method) -> why it stays public
UNCALLED = {
    # the characteristic geometry and the finite-difference residuals of
    # the paper's decompositions, independent of the fan series
    "characteristics.velocity_from_frame": TEST,
    "characteristics.FieldSample": TEST,
    "characteristics.FieldSample.omega": TEST,
    "characteristics.directional_derivatives": TEST,
    "characteristics.plane_gradient": TEST,
    "characteristics.FlowField": TEST,
    "characteristics.PotentialFlowField": TEST,
    "characteristics.commutator_residual": TEST,
    "characteristics.decomposition_residual_potential": TEST,
    "characteristics.decomposition_residual_euler_isentropic": TEST,
    # QUADPACK turning of a potential fan, against the stored series
    "fan.pm_potential": TEST,
    "selfsimilar.solve_euler_fsf": ENTRY,
    "selfsimilar.solve_potential_sfs": ENTRY,
    "selfsimilar.evaluate": ENTRY,
    "selfsimilar.validate": ENTRY,
    # the sonic-shock quadratic and the front inclination of a given
    # normal speed, against the closed-form sonic shocks
    "shocks.eta_roots": TEST,
    "shocks.shock_angle": TEST,
    # the shock of the Euler expansion ramp past tau_f_e, a planned
    # construction (ROADMAP)
    "shocks.post_sonic_back_state_euler": PAPER,
    # closed-form thermodynamics the tests differentiate against
    "thermo.fundamental_derivative": TEST,
    "thermo.internal_energy": TEST,
    "thermo.enthalpy_S": TEST,
    # the hodograph wave curves of a compression-ramp state
    "wavecurves.polar_branch_I": PAPER,
    "wavecurves.shock_fan_branch": PAPER,
    "wavecurves.polar_branch_II": PAPER,
    # the wall angles a state admits, read before solve_potential_sfs, and
    # the branch parameter of one wall on a branch of any kind
    "wavecurves.deflection_range": ENTRY,
    "wavecurves.solve_wedge_state": ENTRY,
    # checks of the composite branch against its defining relations
    "wavecurves.H_residual": TEST,
    "wavecurves.polar_tangency_check": TEST,
    "wavecurves.tail_tangent_acute": TEST,
    "wavecurves.tail_back_supersonic": TEST,
}


def _uncalled_public_names():
    """Public module-level functions and classes, and public methods, whose
    identifier no package module names (by reference, attribute or
    import)."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (f"{path.stem}.{node.name}.{sub.name}", sub.name)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not sub.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return {q for q, name in defined.items() if name not in used}


def test_every_uncalled_public_name_has_a_reason():
    found = _uncalled_public_names()
    assert sorted(found - set(UNCALLED)) == [], "uncalled, no reason given"
    assert sorted(set(UNCALLED) - found) == [], "listed, but now called"
