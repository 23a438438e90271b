"""The package holds only what an experiment runs, and the README sketch runs.

Every public function or method under ``src/magstark`` must be read (as a
name or an attribute, not an import or a docstring) somewhere in the
package, every dataclass field as an attribute, and every imported name in
the module that imports it; reference implementations that only tests use
live in ``tests/oracles.py``.  Each experiment's runner reads every entry of
its ``[experiment]`` section.
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


def _reads():
    """The parsed package, the names it loads and the attributes it loads."""
    trees = [ast.parse(p.read_text("utf-8")) for p in sorted(SRC.glob("*.py"))]
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
