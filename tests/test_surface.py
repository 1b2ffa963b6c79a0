"""The package surface: every public name that no package code uses is
listed here with the reason it stays, no module imports a name it never
reads, and an import kept only for the benchmark binds no name its module
reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bztflow"

ENTRY = "entry point"
PAPER = "paper object"
BENCH = "benchmark pin (ROADMAP item 1)"

# module.name (or module.Class.method) -> why it stays public
UNCALLED = {
    "selfsimilar.solve_euler_fsf": ENTRY,
    "selfsimilar.solve_potential_sfs": ENTRY,
    "selfsimilar.evaluate": ENTRY,
    "selfsimilar.validate": ENTRY,
    "selfsimilar.ValidationReport.ok": ENTRY,
    # the shock of the Euler expansion ramp past tau_f_e, a planned
    # construction (ROADMAP)
    "shocks.post_sonic_back_state_euler": PAPER,
    # both crossings of the double-sonic locus; the solvers read only the
    # front one (front_locus_volume), and bench/tests/test_bench_inputs.py
    # checks the benchmark's generator against this pair
    "thermo.locus_intersections": BENCH,
    # the speed-to-volume root, no longer on a solver path: the benchmark
    # tracer wraps it under thermo, fan and wavecurves, and
    # bench/tests/test_bench_tracer.py asserts those bindings
    "thermo.tau_from_speed": BENCH,
    # the potential model through an incoming state, as its callers build
    # it
    "thermo.PotentialGas.from_state": ENTRY,
    # the hodograph wave curves of a compression-ramp state
    "wavecurves.polar_branch_I": PAPER,
    "wavecurves.shock_fan_branch": PAPER,
    "wavecurves.polar_branch_II": PAPER,
    # the wall angles a state admits, read before solve_potential_sfs, and
    # the branch parameter of one wall on a branch of any kind
    "wavecurves.deflection_range": ENTRY,
    "wavecurves.solve_wedge_state": ENTRY,
}

# module.name of every name bound by an import marked `# noqa: F401`: each
# is kept only for the benchmark tracer, which wraps it under that module
NOQA_BINDINGS = {
    "fan.quad",
    "fan.solve_ivp",
    "fan.tau_from_speed",
    "selfsimilar.ramp_context",
    "wavecurves.tau_from_speed",
}


def _modules():
    """(stem, tree, lines) of each package module."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        yield path.stem, ast.parse(text), text.splitlines()


def _imports(tree, lines):
    """(name, noqa) for each name a module imports, other than
    __future__ features; noqa is True when the import is marked
    `# noqa: F401` on its first line."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            noqa = "# noqa: F401" in lines[node.lineno - 1]
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], noqa


def _read(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _uncalled_public_names():
    """Public module-level functions and classes whose identifier no
    package module names (by reference, attribute or import other than a
    `# noqa: F401` one), and public methods that no package module reads
    as an attribute."""
    functions, methods, names, attrs = {}, {}, set(), set()
    for stem, tree, lines in _modules():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            functions[f"{stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                methods.update(
                    (f"{stem}.{node.name}.{sub.name}", sub.name)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not sub.name.startswith("_"))
        names |= _read(tree)
        names |= {name for name, noqa in _imports(tree, lines) if not noqa}
        attrs |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
    # a local variable of the same name is no call of a method
    return ({q for q, name in functions.items() if name not in names | attrs}
            | {q for q, name in methods.items() if name not in attrs})


def test_every_uncalled_public_name_has_a_reason():
    found = _uncalled_public_names()
    assert sorted(found - set(UNCALLED)) == [], "uncalled, no reason given"
    assert sorted(set(UNCALLED) - found) == [], "listed, but now called"


def test_no_unused_import():
    # module: name for each name imported without `# noqa: F401` and
    # never read
    unused = []
    for stem, tree, lines in _modules():
        read = _read(tree)
        unused += [f"{stem}: {name}" for name, noqa in _imports(tree, lines)
                   if not noqa and name not in read]
    assert unused == []


def test_noqa_imports_bind_only_unread_names():
    # a name its module reads needs no `# noqa: F401`, which would hide it
    # when it falls out of use
    bound, read = set(), []
    for stem, tree, lines in _modules():
        names = {name for name, noqa in _imports(tree, lines) if noqa}
        bound |= {f"{stem}.{name}" for name in names}
        read += [f"{stem}.{name}" for name in sorted(names & _read(tree))]
    assert bound == NOQA_BINDINGS
    assert read == []
