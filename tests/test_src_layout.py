"""`src/arec` holds what its commands run: every function defined there is
named somewhere in `src/` or `bench/` other than its own `def`.

A name counts where the code uses it: as a variable, an attribute, an import
or a string equal to it (`bench/tracing.py` wraps functions by attribute
name).  Comments and docstrings do not count.  Dunder methods, which Python
calls by protocol, are not checked.  A function that only tests call belongs
in `tests/`.

Likewise every field of a dataclass defined there is read somewhere in `src/`
or `bench/`: as an attribute, or by a string equal to its name (a checkpoint
header fills its dataclass by keyword).  A field that only its constructor
writes is dead weight in every instance.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_in_src_arec_is_read_in_src_or_bench():
    read = set()
    for _, tree in _trees("src", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    dead = [
        f"{path.relative_to(ROOT)}:{field.lineno} {cls.name}.{field.target.id}"
        for path, tree in _trees("src/arec")
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]
    assert not dead, "dataclass fields in src/arec read nowhere in src/ or bench/: " + ", ".join(dead)
