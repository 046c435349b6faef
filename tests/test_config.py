import ast
from dataclasses import fields
from pathlib import Path

import pytest

import vista
from vista.config import DataConfig, EvalConfig, ModelConfig, TrainConfig


def attributes_read_outside_config():
    names = set()
    for path in Path(vista.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("section", [ModelConfig, TrainConfig, DataConfig, EvalConfig])
def test_every_config_field_has_a_reader(section):
    read = attributes_read_outside_config()
    unread = [f.name for f in fields(section) if f.name not in read]
    assert not unread, f"{section.__name__} keys that no module reads: {unread}"
