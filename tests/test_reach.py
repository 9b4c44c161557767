"""No code that only its own unit tests reach: every top-level public
function and class of the package is referenced by other package code,
or is on ALLOWED with the reason it is kept."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spingate"

# "module.name" -> why it stays though no other package code references it
ALLOWED = {
    "circuit.channel_transfer":
        "the complex reference of transmission_spectrum; ROADMAP item 3 "
        "drives it",
    "signal.apply_transfer": "C9's spectral oracle; ROADMAP item 3 drives it",
    "config.serialize_config": "the round-trip tests; ROADMAP item 6's hash",
    "config.parse_config": "perfbench's path fit (C6)",
    "config.build_netlist": "perfbench's path fit (C6)",
    "experiment.fit_effective_path": "perfbench's path fit (C6)",
    "physics.solve_k": "C4's scalar solve that raises BandError; a perfbench "
                       "span",
    "_kernels.backend_name": "perfbench's environment record",
}


def module_name(path: Path) -> str:
    """Dotted name of a package file relative to the package ("" for its
    __init__)."""
    parts = list(path.relative_to(PACKAGE).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def read_package():
    """Per module: its tree, and its relative imports as name -> (the
    module imported from, the name there)."""
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        name = module_name(path)
        tree = ast.parse(path.read_text())
        package = (name if path.name == "__init__.py"
                   else name.rpartition(".")[0])
        imports = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                base = package.split(".") if package else []
                base = base[:len(base) - (node.level - 1)]
                base = ".".join(base + ([node.module] if node.module else []))
                for alias in node.names:
                    imports[alias.asname or alias.name] = (base, alias.name)
        modules[name] = (tree, imports)
    return modules


def resolve(modules, module: str, name: str):
    """What name means in module: ("module", m) or ("symbol", m, name),
    following imports of imports."""
    while name in modules[module][1]:
        base, imported = modules[module][1][name]
        full = f"{base}.{imported}" if base else imported
        if full in modules:
            return ("module", full)
        module, name = base, imported
    return ("symbol", module, name)


def unreferenced():
    """The top-level public functions and classes no other code of the
    package references (an import alone is no reference)."""
    modules = read_package()
    defined, used = set(), set()
    for module, (tree, _) in modules.items():
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = (module, stmt.name)
                if not stmt.name.startswith("_"):
                    defined.add(own)
            for node in ast.walk(stmt):
                ref = None
                if isinstance(node, ast.Name):
                    ref = resolve(modules, module, node.id)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)):
                    target = resolve(modules, module, node.value.id)
                    if target[0] == "module":
                        ref = ("symbol", target[1], node.attr)
                if ref and ref[0] == "symbol" and ref[1:] != own:
                    used.add(ref[1:])
    return {".".join(d) for d in defined - used}


def test_every_public_name_is_reached_or_allowed():
    # a name dropped from ALLOWED fails, and so does one that package
    # code has come to reference, which no longer needs the entry
    assert unreferenced() == set(ALLOWED)


def test_the_walk_sees_references():
    # the three kinds of use the walk resolves: a module's attribute
    # (circuit.spectrum_to_csv in cli), a name imported from another
    # module (write_csv in cli), and an attribute of a module imported
    # through a package (kernels.solve_k in physics, kernels being
    # _kernels._core_py)
    names = unreferenced()
    assert not {"circuit.spectrum_to_csv", "table.write_csv",
                "_kernels._core_py.solve_k"} & names
