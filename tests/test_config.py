import ast
from dataclasses import fields
from pathlib import Path

import pytest

import vista
from vista.config import DataConfig, EvalConfig, ModelConfig, TrainConfig

SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data": DataConfig, "eval": EvalConfig}


def _section_of_annotation(annotation):
    """The section an annotation like ``ModelConfig`` or ``TrainConfig | None`` names."""
    names = {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)} if annotation else set()
    found = [s for s, cls in SECTIONS.items() if cls.__name__ in names]
    return found[0] if len(found) == 1 else None


def _bound_sections(scope):
    """Names a function or class body binds to a config section: annotated
    parameters and fields, and assignments from ``<expr>.<section>``."""
    bound = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.arg):
            name, section = node.arg, _section_of_annotation(node.annotation)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name, section = node.target.id, _section_of_annotation(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
        ):
            name, section = node.targets[0].id, node.value.attr
        else:
            continue
        if section in SECTIONS:
            bound[name] = section
    return bound


def section_reads_outside_config():
    """(section, field) pairs read through a receiver known to be that section:
    ``<expr>.<section>.<field>``, a name the enclosing function binds to the
    section, or ``self.<attr>`` for a class field annotated with it. A field
    name that merely matches an attribute of another class does not count."""
    reads = set()
    for path in Path(vista.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text())
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.ClassDef)):
                continue
            bound = _bound_sections(scope)
            for node in ast.walk(scope):
                if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                    continue
                receiver = node.value
                if isinstance(receiver, ast.Attribute) and receiver.attr in SECTIONS:
                    reads.add((receiver.attr, node.attr))
                if isinstance(receiver, ast.Attribute) and isinstance(receiver.value, ast.Name):
                    if receiver.value.id == "self" and receiver.attr in bound:
                        reads.add((bound[receiver.attr], node.attr))
                if isinstance(receiver, ast.Name) and receiver.id in bound:
                    reads.add((bound[receiver.id], node.attr))
    return reads


@pytest.mark.parametrize("section", [ModelConfig, TrainConfig, DataConfig, EvalConfig])
def test_every_config_field_has_a_reader(section):
    name = next(s for s, cls in SECTIONS.items() if cls is section)
    read = section_reads_outside_config()
    unread = [f.name for f in fields(section) if (name, f.name) not in read]
    assert not unread, f"{section.__name__} keys that no module reads: {unread}"
