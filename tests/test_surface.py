"""The package namespace.

``concentratable.__all__`` is the list in README's Library section, every
entry resolves to its module's object, and every name that the acceptance
tests, README's Library block and the CI smoke steps import from the
package is on it. The CLI and ``verify`` import from the modules, so the
namespace can shrink without breaking them.
"""

import ast
import importlib
import re
import textwrap
from pathlib import Path

import pytest

import concentratable

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
LIBRARY = README[README.index("## Library\n") : README.index("\n## ", README.index("## Library\n"))]

#: Names the namespace no longer re-exports, each still public in its module.
MODULE_ONLY = {
    "apply_controlled_projector": "swaptest",
    "distribution_via_purities": "swaptest",
    "full_distribution_via_purities": "swaptest",
    "purity_table": "reductions",
    "make_product": "states",
    "permute_qubits": "states",
    "statevector_to_dict": "states",
}


def documented() -> dict[str, str]:
    """{name: module} from README's list lines "- `concentratable.<module>`: `a`, `b`, ..."."""
    names = {}
    for module, body in re.findall(r"^- `concentratable\.(\w+)`: (.*?)(?=\n- |\n\n)", LIBRARY, re.M | re.S):
        for name in re.findall(r"`(\w+)`", body):
            assert name not in names, name
            names[name] = module
    return names


def library_block() -> str:
    return re.search(r"```python\n(.*?)```", LIBRARY, re.S).group(1)


def package_imports(source: str) -> set[str]:
    """Names imported by ``from concentratable import ...`` or read as ``ce.<name>``."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "concentratable":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ce":
            names.add(node.attr)
    return names


def smoke_snippets() -> list[str]:
    """The inline ``python -c '...'`` programs of the CI smoke step."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    return [textwrap.dedent(body) for body in re.findall(r"python -c '\n(.*?)'\n", workflow, re.S)]


def test_all_is_the_documented_set():
    assert len(set(concentratable.__all__)) == len(concentratable.__all__)
    assert sorted(concentratable.__all__) == sorted(documented())


def test_every_entry_resolves_to_its_module():
    for name, module in documented().items():
        home = importlib.import_module(f"concentratable.{module}")
        assert getattr(concentratable, name) is getattr(home, name), name


@pytest.mark.parametrize(
    "caller",
    ["tests/test_acceptance.py", "README Library block", "tier1.yml smoke steps"],
)
def test_callers_import_only_documented_names(caller):
    if caller == "README Library block":
        sources = [library_block()]
    elif caller == "tier1.yml smoke steps":
        sources = smoke_snippets()
        assert sources
    else:
        sources = [(ROOT / caller).read_text(encoding="utf-8")]
    imported = set().union(*map(package_imports, sources))
    assert imported
    assert imported <= set(concentratable.__all__)


@pytest.mark.parametrize("module", ["cli", "verify"])
def test_cli_and_verify_import_from_modules(module):
    tree = ast.parse((ROOT / "src" / "concentratable" / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "concentratable", node.lineno
            if node.level == 1 and node.module is None:
                for alias in node.names:
                    assert alias.name not in concentratable.__all__, alias.name


def test_unexported_names_stay_in_their_modules():
    for name, module in MODULE_ONLY.items():
        assert name not in concentratable.__all__
        assert not hasattr(concentratable, name), name
        assert callable(getattr(importlib.import_module(f"concentratable.{module}"), name))


def test_library_block_runs():
    exec(compile(library_block(), "README.md", "exec"), {})
