"""The package's surface: every exported name exists, no module imports a
name it does not use, and the README's library example runs."""
import ast
import contextlib
import importlib
import inspect
import io
import json
import re
from pathlib import Path

import pytest

import segdyn
from segdyn.config import _FIELDS, PipelineConfig, parse_config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "segdyn"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _imported(tree: ast.Module) -> dict:
    """The names a module's imports bind, each with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"segdyn.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"segdyn.{name}.__all__ names what it does not define: {missing}"


def test_every_name_the_package_exports_exists_in_its_module():
    for node in _tree("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"segdyn.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"segdyn.{node.module}.{alias.name}"
                assert getattr(segdyn, alias.name) is getattr(module, alias.name)


def test_names_that_only_restated_derivable_fields_are_gone():
    # each restated what its owner holds: ball ids 1..N, the empty rows of
    # the counts, and the segment ids 1..N
    assert not hasattr(segdyn, "CoverBall") and not hasattr(segdyn.cover, "CoverBall")
    assert not hasattr(segdyn.Cover, "balls")
    assert not hasattr(segdyn.TransitionMatrix, "unsupported_rows")
    assert "cells" not in segdyn.SegmentLibrary.__dataclass_fields__


def test_options_and_entry_points_that_no_caller_set_are_gone():
    # none had a caller outside its own tests; the options are constants now
    fields = set(PipelineConfig.__dataclass_fields__)
    assert not {"collocation_cap", "delta_floor", "expansion_m_max"} & fields
    assert "fd_step" not in inspect.signature(segdyn.jacobian_norms).parameters
    assert "scheme" not in segdyn.IntegratorConfig.__dataclass_fields__
    assert not hasattr(segdyn.flow, "_rk4") and not hasattr(segdyn.symbolic._StateGraph, "closure")
    assert not hasattr(segdyn, "model_to_json") and not hasattr(segdyn.flow, "model_to_json")
    for model in (segdyn.LinearDiagonal, segdyn.Lorenz, segdyn.QuadraticGeneric):
        assert not hasattr(model, "parameters")
    assert not hasattr(segdyn.Partition, "assign")
    assert not hasattr(segdyn.SegmentLibrary, "starts")
    assert not hasattr(segdyn.BoxDomain, "contains")


def test_readme_lists_every_optional_config_field():
    # the config example holds the required fields, each of which the parser
    # needs, and the "Optional" paragraph names every other field it accepts
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config schema", 1)[1]
    example = json.loads(re.sub(r"//.*", "", re.search(r"```jsonc\n(.*?)```", section, re.S)[1]))
    parse_config(example)
    for name in example:
        with pytest.raises(segdyn.ConfigError):
            parse_config({k: v for k, v in example.items() if k != name})
    paragraph = section.split("Optional (defaults in parentheses):", 1)[1].split("\n\n", 1)[0]
    optional = re.findall(r"`(\w+)`\s+\(", paragraph)
    assert len(optional) == len(set(optional))
    assert set(optional) == _FIELDS - set(example)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_does_not_use(name):
    tree = _tree(name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(getattr(importlib.import_module(f"segdyn.{name}"), "__all__", ()))
    unused = {n: line for n, line in _imported(tree).items()
              if n not in used and n not in exported}
    assert not unused, f"segdyn.{name} imports names it never uses (name: line): {unused}"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    first, summary = out.getvalue().splitlines()
    # a complete five-symbol word, its 5 x 11 pseudo-orbit samples, and a
    # positive error within epsilon
    word, shape, error = re.fullmatch(r"(\(.*\)) (\(.*\)) (\S+)", first).groups()
    assert len(ast.literal_eval(word)) == 5
    assert ast.literal_eval(shape) == (55, 3)
    assert 0 < float(error) <= 4.0
    assert re.fullmatch(r"\d+ of 32 complete; max error \S+ for epsilon 4\.0", summary)
