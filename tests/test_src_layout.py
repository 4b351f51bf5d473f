"""`src/arec` holds what its commands run: every function defined there is
named somewhere in `src/` or `bench/` other than its own `def`.

A name counts where the code uses it: as a variable, an attribute, an import
or a string equal to it (`bench/tracing.py` wraps functions by attribute
name).  Comments and docstrings do not count.  Dunder methods, which Python
calls by protocol, are not checked.  A function that only tests call belongs
in `tests/`.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _references() -> Counter:
    names = Counter()
    for _, tree in _trees("src", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
            elif isinstance(node, ast.alias):
                names[node.name] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names[node.value] += 1
    return names


def test_every_function_in_src_arec_is_named_in_src_or_bench():
    names = _references()
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in _trees("src/arec")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not names[node.name]
    ]
    assert not unused, "defined in src/arec but named nowhere in src/ or bench/: " + ", ".join(unused)
