"""tools/snapshot_outputs.py --compare on two small snapshot trees, a guard
that every definition in src/bosedot serves the program or a check, and one
that every config key is typed."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

from bosedot import cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "snapshot_outputs.py"


def write_tree(root, value, label, row):
    run = root / "rte_case"
    run.mkdir(parents=True)
    (run / "rte.json").write_text(json.dumps(
        {"runs": [{"limit": value, "factorisation": {"path": label}}]}))
    (run / "rte.csv").write_text("# manifest=abc\nlambda,deviation\n"
                                 f"0.1,{row}\n")


def compare(old, new, *extra):
    proc = subprocess.run([sys.executable, str(TOOL), "--compare", str(old),
                           str(new), *extra], capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def test_compare_reports_moves_beyond_rtol_and_every_other_difference(
        tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write_tree(old, 0.25, "gauge", 0.5)
    write_tree(new, 0.25 * (1 + 1e-12), "gauge", 0.5 + 1e-6)
    assert compare(old, old) == (0, [])
    code, lines = compare(old, new)
    assert code == 1
    assert [line.split(": ")[0] for line in lines] == [
        "rte_case/rte.csv[2][1]", "rte_case/rte.json.runs[0].limit"]
    assert compare(old, new, "--rtol", "1e-11")[1] == [
        "rte_case/rte.csv[2][1]: '0.5' -> '0.500001' (relative 2e-06)"]
    assert compare(old, new, "--rtol", "1e-5") == (0, [])

    # a string, a key and a file that only one tree has are always reported
    other = tmp_path / "other"
    write_tree(other, 0.25, "sector", 0.5)
    path = other / "rte_case" / "rte.json"
    payload = json.loads(path.read_text())
    payload["runs"][0]["factorisation"]["chiral"] = 1
    path.write_text(json.dumps(payload))
    (other / "rte_case" / "extra.json").write_text("{}")
    code, lines = compare(old, other, "--rtol", "1")
    assert code == 1
    assert lines == [
        "rte_case/extra.json: only in NEW",
        "rte_case/rte.json.runs[0].factorisation.chiral: only in NEW",
        "rte_case/rte.json.runs[0].factorisation.path: 'gauge' -> 'sector'"]


# ---------------------------------------------------------------------------
# every definition in src/bosedot serves the program or a named check

# the definitions that neither cli.main nor a module-level statement reaches,
# each with what keeps it: an acceptance criterion (Cn), a test
# (file::name) or a layer that perfbench/spans.py wraps (LAYER_FUNCTIONS)
KEPT = {
    "dynamics._as_array": "the state argument of evolve and ergodic_mean; C6",
    "dynamics._comm": "the commutator of dyson_truncated; C10",
    "dynamics._phase_conjugate": "the free frame of dyson_truncated; C10",
    "dynamics.dyson_comparison": "C10",
    "dynamics.dyson_truncated":
        "C10; test_dynamics.py::test_dyson_truncated_tracks_exact_at_weak_coupling",
    "dynamics.ergodic_mean": "C6; LAYER_FUNCTIONS",
    "dynamics.evolve": "ROADMAP item 5; "
                       "test_dynamics.py::test_evolve_matches_dense_exponential",
    "dynamics.heisenberg_exact":
        "C10; test_dynamics.py::test_heisenberg_exact_properties",
    "dynamics.operator_norm":
        "C2; test_dynamics.py::test_operator_norm_dense_and_sparse_paths",
    "fock.FockBasis.index":
        "test_fock.py::test_array_basis_matches_tuple_oracle",
    "fock.FockBasis.occupation_vector": "the dense reference of "
        "test_fock.py::test_dgamma_diag_and_totals_match_occupations",
    "fock.FockBasis.states":
        "C8; test_fock.py::test_array_basis_matches_tuple_oracle",
    "liouville.OperatorBundle.L0": "C8",
    "liouville.OperatorBundle.Lambda":
        "C8; test_liouville.py::test_conjugate_commutator_identity",
    "liouville.OperatorBundle.Q": "C8",
    "liouville._diagonal_operator": "builds L0, Q and Lambda; C8",
    "spectral.kms_kernel_vector": "C3, C4",
    "spectral.KernelStructure": "what kernel_structure returns; C4",
    "spectral.kernel_structure": "C4",
    "spectral.orthogonal_kernel_panel": "C4",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreached_definitions(src):
    """The functions, classes and methods of src/*.py ("module.name" or
    "module.Class.name", dunders left out) that cli.main and the
    module-level statements do not reach.

    Reaching a definition walks its whole body; reaching a class walks its
    bases, decorators, class-level statements and dunder methods.  A name
    reaches the definition it is bound to in its module, by definition or by
    a relative import, and an attribute of a relatively imported module the
    definition of that module.  Any other attribute, except one of an
    external module, reaches every method of that name: the class of its
    object is not known, so a dead method that shares its name with a live
    attribute goes unnoticed, but a live one is never reported.
    """
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    defs, methods, internal, external = {}, {}, {}, {}
    for mod, tree in trees.items():
        internal[mod], external[mod] = {}, set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    internal[mod][alias.asname or alias.name] = (
                        (alias.name, None) if node.module is None
                        else (node.module, alias.name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                external[mod].update((alias.asname or alias.name).split(".")[0]
                                     for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = (mod, node)
                for item in (node.body if isinstance(node, ast.ClassDef)
                             else []):
                    if isinstance(item, ast.FunctionDef):
                        name = f"{mod}.{node.name}.{item.name}"
                        defs[name] = (mod, item)
                        methods.setdefault(item.name, []).append(name)

    reached, todo, attributes = set(), [], set()

    def reach(name):
        if name in defs and name not in reached:
            reached.add(name)
            mod, node = defs[name]
            if isinstance(node, ast.ClassDef):
                todo.extend((mod, part) for part in
                            node.bases + node.keywords + node.decorator_list
                            + [s for s in node.body
                               if not isinstance(s, ast.FunctionDef)
                               or _is_dunder(s.name)])
            else:
                todo.append((mod, node))

    for mod, tree in trees.items():
        todo.extend((mod, s) for s in tree.body if not isinstance(
            s, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)))
    reach("cli.main")
    while todo:
        while todo:
            mod, node = todo.pop()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    # a module alias gives "module.None", which is no definition
                    module, name = internal[mod].get(sub.id, (mod, sub.id))
                    reach(f"{module}.{name}")
                elif isinstance(sub, ast.Attribute):
                    root = sub.value
                    while isinstance(root, ast.Attribute):
                        root = root.value
                    bound = root.id if isinstance(root, ast.Name) else None
                    module, name = internal[mod].get(bound, (None, ""))
                    if sub.value is root and module and name is None:
                        reach(f"{module}.{sub.attr}")
                    elif bound not in external[mod]:
                        attributes.add(sub.attr)
        for attribute in attributes:
            for name in methods.get(attribute, []):
                reach(name)
    return {name for name in defs if name not in reached
            and not _is_dunder(name.rsplit(".", 1)[-1])}


def layer_functions():
    """perfbench/spans.py's LAYER_FUNCTIONS, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and node.targets[0].id == "LAYER_FUNCTIONS")


def test_every_definition_serves_the_program_or_a_named_check():
    unreached = unreached_definitions(ROOT / "src" / "bosedot")
    assert sorted(unreached - KEPT.keys()) == [], \
        "reached by nothing: delete it, or name what keeps it in KEPT"
    assert sorted(KEPT.keys() - unreached) == [], \
        "reached by the program or gone: take it out of KEPT"

    layers = {(module, name) for module, name, _ in layer_functions()}
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    for name, reason in KEPT.items():
        criteria = re.findall(r"\bC(\d+)\b", reason)
        tests = re.findall(r"\b(test_\w+\.py)::(\w+)", reason)
        assert criteria or tests or "LAYER_FUNCTIONS" in reason, name
        for n in criteria:
            assert f"\ndef test_c{n}_" in acceptance, (name, n)
        for path, test in tests:
            assert f"\ndef {test}(" in (ROOT / "tests" / path).read_text(), \
                (name, test)
        if "LAYER_FUNCTIONS" in reason:
            module, attr = name.rsplit(".", 1)
            assert (f"bosedot.{module}", attr) in layers, name
    # and every layer the benchmark wraps by name still exists
    for module, attr in layers:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def schema_nodes(node, where="config"):
    """(path, node) for node and every schema below it."""
    yield where, node
    for key, child in node.get("properties", {}).items():
        yield from schema_nodes(child, f"{where}.{key}")
    if "items" in node:
        yield from schema_nodes(node["items"], f"{where}[]")


def test_every_config_object_is_closed_and_every_key_typed():
    # an open object or an untyped key lets a misspelt or mistyped key run
    # at its default
    for where, node in schema_nodes(cli.SCHEMA):
        assert "type" in node or "enum" in node, where
        if node.get("type") == "object":
            assert node.get("properties"), where
            assert node.get("additionalProperties") is False, where
