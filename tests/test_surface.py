"""The package holds only what an experiment runs, and the README sketch runs.

Every public function or method under ``src/magstark`` must be read (as a
name or an attribute, not an import or a docstring) somewhere in the
package; reference implementations that only tests use live in
``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

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


def test_every_public_function_has_a_reader_in_src():
    trees = [ast.parse(p.read_text("utf-8")) for p in sorted(SRC.glob("*.py"))]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    unread = {qual for tree in trees for qual, name in _public_defs(tree)
              if name not in read}
    assert unread == set(UNREAD)


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text("utf-8")
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme,
                       re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(sketch, "README.md", "exec"), {})
    assert (tmp_path / "lap_probe.csv").read_text().startswith("delta,norm\n")
