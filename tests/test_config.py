import ast
import itertools
import math
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import vista
from vista import cli
from vista.config import (
    BELOW_ONE,
    MAY_BE_ZERO,
    Config,
    DataConfig,
    EvalConfig,
    ModelConfig,
    TrainConfig,
    check_domains,
    format_config,
    parse_config_text,
)
from vista.data import ScenarioSpec

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


# -- domains --------------------------------------------------------------

NUMERIC_KEYS = [
    (section, f.name, f.type)
    for section, cls in SECTIONS.items()
    for f in fields(cls)
    if f.type in ("int", "float")
]


def in_domain(key, value):
    """The domain rule of config.py, restated as the oracle for the CLI."""
    low_ok = value >= 0 if key in MAY_BE_ZERO else value > 0
    return low_ok and value < (1 if key in BELOW_ONE else math.inf)


def test_domain_exceptions_name_numeric_fields():
    # A renamed key would otherwise silently lose its exception.
    numeric = {
        f.name for cls in (*SECTIONS.values(), ScenarioSpec) for f in fields(cls)
        if f.type in ("int", "float")
    }
    assert not (MAY_BE_ZERO | BELOW_ONE) - numeric


@pytest.fixture(scope="module")
def train_data(tmp_path_factory):
    base = tmp_path_factory.mktemp("domains")
    assert cli.main([
        "synth", "--scenario", "crossing", "--n", "2", "--seed", "3", "--windows", "6",
        "--frames", "7", "--grid", "16", "--randomize", "--speed", "0.6",
        "--out", str(base / "data"),
    ]) == 0
    return base, itertools.count()


@seed(17)
@settings(max_examples=80, deadline=None, database=None)
@given(
    key=st.sampled_from(NUMERIC_KEYS),
    value=st.sampled_from(["-1", "0", "0.5", "1", "2", "nan", "inf", "-inf"]),
)
def test_any_numeric_value_exits_with_a_documented_code(train_data, key, value):
    # One key of any section at a boundary or non-finite value: the run ends
    # with a documented code, and an out-of-domain value is rejected (exit 2)
    # before the output directory is made.
    base, counter = train_data
    section, name, ftype = key
    cfg = base / "run.cfg"
    cfg.write_text(
        "[model]\nt_obs=4\nt_fut=3\ngrid=16\n[train]\nmax_epochs=1\nval_k=2\n"
        f"[{section}]\n{name}={value}\n"
    )
    out = base / f"out{next(counter)}"
    code = cli.main([
        "train", "--data", str(base / "data"), "--config", str(cfg),
        "--fold", "ratio", "--out", str(out),
    ])
    assert code in (0, 2, 3, 4, 5)
    if code == 2:
        assert not out.exists()
    parsed = float(value)
    if (ftype == "int" and not parsed.is_integer()) or not in_domain(name, parsed):
        assert code == 2


def _in_domain_strategy(cls):
    strategies = {}
    for f in fields(cls):
        zero_ok, below_one = f.name in MAY_BE_ZERO, f.name in BELOW_ONE
        if f.type == "int":
            strategies[f.name] = st.integers(0 if zero_ok else 1, 10**6)
        elif f.type == "float":
            strategies[f.name] = st.floats(
                0.0, 1.0 if below_one else 1e6, exclude_min=not zero_ok, exclude_max=below_one
            )
        elif f.type == "tuple":
            strategies[f.name] = st.tuples(st.integers(1, 64), st.integers(1, 64))
        elif f.type == "bool":
            strategies[f.name] = st.booleans()
    return st.builds(cls, **strategies)


@seed(17)
@settings(max_examples=60, deadline=None, database=None)
@given(st.builds(Config, **{name: _in_domain_strategy(cls) for name, cls in SECTIONS.items()}))
def test_format_then_parse_reproduces_in_domain_config(cfg):
    for section in SECTIONS:
        check_domains(getattr(cfg, section))
    assert parse_config_text(format_config(cfg)) == cfg
