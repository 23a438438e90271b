"""The package holds only what an experiment runs, and the README sketch runs.

Every public function or method under ``src/magstark`` must be read (as a
name or an attribute, not an import or a docstring) somewhere in the
package, every dataclass field as an attribute, every function parameter in
its function's body, and every imported name in the module that imports it;
reference implementations that only tests use live in ``tests/oracles.py``.
Each experiment's runner reads every entry of its ``[experiment]`` section.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

from magstark.cli import EXPERIMENTS, default_config

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "magstark"

# public methods kept without a reader in the package, and why
UNREAD = {}
# field names that more than one dataclass declares, with the functions that
# read each class's field: an attribute read alone cannot tell them apart
SHARED_FIELDS = {"eigensolve": {
    "ssf.TraceFormulaReport": ["cli._run_verify_theorem1"],
    "ssf.TruncationReport": ["cli._run_truncation"],
    "traces.ProbeReport": ["cli._run_scaling", "cli._run_lemma7"]}}
# every runner takes (grid, fields, spec, f, experiment section), read or not
RUNNER_PARAMS = ("grid", "fields", "spec", "f", "e")


def _public_defs(tree):
    """(qualified name, name) of each public top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def _dataclass_fields(tree):
    """(qualified name, name) of each field of a top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _modules():
    """Each module's stem and parsed tree."""
    return [(p.stem, ast.parse(p.read_text("utf-8")))
            for p in sorted(SRC.glob("*.py"))]


def _reads():
    """The parsed package, the names it loads and the attributes it loads."""
    trees = [tree for _, tree in _modules()]
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs.add(node.attr)
    return trees, names, attrs


def test_every_public_function_has_a_reader_in_src():
    trees, names, attrs = _reads()
    unread = {qual for tree in trees for qual, name in _public_defs(tree)
              if name not in names | attrs}
    assert unread == set(UNREAD)


def test_every_dataclass_field_has_a_reader_in_src():
    # a field is read as an attribute; a local of the same name is no reader
    trees, _, attrs = _reads()
    unread = {qual for tree in trees for qual, name in _dataclass_fields(tree)
              if name not in attrs}
    assert unread == set()
    # a field whose name another dataclass shares hides behind that one's
    # readers, so each class names the functions that read its field
    modules = dict(_modules())
    owners = {}
    for stem, tree in modules.items():
        for qual, name in _dataclass_fields(tree):
            owners.setdefault(name, set()).add(f"{stem}.{qual.split('.')[0]}")
    shared = {name: classes for name, classes in owners.items()
              if len(classes) > 1}
    assert {n: set(c) for n, c in SHARED_FIELDS.items()} == shared
    defs = {f"{stem}.{node.name}": node for stem, tree in modules.items()
            for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, readers in SHARED_FIELDS.items():
        for qual in (q for qs in readers.values() for q in qs):
            assert any(isinstance(node, ast.Attribute) and node.attr == name
                       and isinstance(node.ctx, ast.Load)
                       for node in ast.walk(defs[qual])), (name, qual)


def test_every_parameter_is_read_in_its_function():
    # a parameter its body never loads selects nothing; the runners share
    # one signature, so theirs are exempt
    runners = {f"cli.{exp.run.__name__}" for exp in EXPERIMENTS.values()}
    unread = set()
    for stem, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if x is not None]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            qual = f"{stem}.{node.name}"
            unread |= {(qual, x) for x in params if x not in loaded
                       and not (qual in runners and x in RUNNER_PARAMS)}
    assert unread == set()


def test_every_import_has_a_reader():
    # each name a module imports is loaded somewhere in that module;
    # __init__ only re-exports
    stale = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        stale |= {f"{path.stem}.{alias.asname or alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for alias in node.names
                  if (alias.asname or alias.name).split(".")[0] not in loaded}
    assert stale == set()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_entry_is_read_by_its_runner(name):
    # an entry that the runner does not read as e["key"] selects nothing
    run = EXPERIMENTS[name].run
    tree = ast.parse(inspect.getsource(run))
    e = tree.body[0].args.args[-1].arg
    reads = {node.slice.value for node in ast.walk(tree)
             if isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Name) and node.value.id == e
             and isinstance(node.slice, ast.Constant)}
    assert reads == set(default_config(name)["experiment"])


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text("utf-8")
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme,
                       re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(sketch, "README.md", "exec"), {})
    assert (tmp_path / "lap_probe.csv").read_text().startswith("delta,norm\n")
