import ast
import importlib
import json
import re
import sys
from pathlib import Path

import vista

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_are_pinned():
    assert vista.__all__ == [
        "AgentTrack",
        "Config",
        "DataConfig",
        "EvalConfig",
        "EvalInput",
        "Model",
        "ModelConfig",
        "ParamStore",
        "PredictionSet",
        "ScenarioSpec",
        "Scene",
        "SceneRaster",
        "TrainConfig",
        "init_params",
    ]
    assert all(hasattr(vista, name) for name in vista.__all__)


def test_benchmark_traced_names_exist():
    # The benchmark's per-layer formulas read the traced spans of vista
    # functions by name, as "layer.function" or "layer.Class.method"; a
    # renamed or deleted function leaves its metric null and the traced run
    # without a result line.
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    )
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    worker = (ROOT / "perfbench" / "worker.py").read_text()
    names = set(re.findall(r"\"(\w+(?:\.\w+)+)\"", worker)) - metrics
    traced = sorted(n for n in names if n.split(".")[0] in layers)
    assert "gpm.gpm_forward_batch" in traced and "gpm.encode_gpm_input" in traced
    missing = []
    for name in traced:
        layer, *path = name.split(".")
        obj = importlib.import_module(f"vista.{layer}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert not missing


def test_engine_names_are_pinned():
    # ``vista.tensor`` is the engine core: the model records its blocks as
    # hand-written nodes, and the primitive ops and Tensor operators that
    # only tests use live in tests/reference_ops.py.
    tree = ast.parse((ROOT / "src" / "vista" / "tensor.py").read_text())
    kinds = (ast.FunctionDef, ast.ClassDef)
    defs = {node.name: node for node in tree.body if isinstance(node, kinds)}
    assert sorted(defs) == [
        "NumericsError",
        "Parameter",
        "ShapeError",
        "Tensor",
        "UsageError",
        "_gemm",
        "_node",
        "_recording",
        "_relu_data",
        "_topo_order",
        "as_tensor",
        "backward",
        "no_grad",
        "sinusoidal_table",
    ]
    methods = [node.name for node in defs["Tensor"].body if isinstance(node, ast.FunctionDef)]
    assert methods == ["__init__", "shape", "ndim", "size", "item", "__repr__"]


def test_every_public_definition_has_a_caller():
    # Each public function, class and method of the package is referenced
    # (a name, an attribute or an import) from the package itself, the
    # scripts or the benchmark, or is a benchmark-traced "layer.name"; a
    # definition that only the tests reach belongs in the tests.
    sources = [*(ROOT / "src" / "vista").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    sources += (ROOT / "perfbench").glob("*.py")
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
    worker = (ROOT / "perfbench" / "worker.py").read_text()
    traced = set(re.findall(r"\"(\w+(?:\.\w+)+)\"", worker))
    unused = []
    for path in sorted((ROOT / "src" / "vista").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            methods = [m.name for m in members if isinstance(m, ast.FunctionDef)]
            qualnames = [node.name] + [f"{node.name}.{m}" for m in methods]
            for qualname in qualnames:
                name, dotted = qualname.split(".")[-1], f"{path.stem}.{qualname}"
                if not name.startswith("_") and name not in used and dotted not in traced:
                    unused.append(dotted)
    assert not unused


def test_runtime_imports_only_numpy_and_the_standard_library():
    # The package runs on numpy alone (pyproject.toml): an import of another
    # installed package, such as scipy, would pass every other test here.
    allowed = sys.stdlib_module_names | {"numpy", "vista"}
    foreign = []
    for path in sorted((ROOT / "src" / "vista").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["vista" if node.level else node.module]
            else:
                continue
            foreign += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in allowed]
    assert not foreign
