"""Export hygiene: every exported name exists, and the package imports only
names its modules export."""

import ast
import importlib
import inspect

import pytest

import aqstate

MODULES = ["pauli", "statevector", "snapshots", "estimator", "harness"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"aqstate.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    imports = [n for n in ast.parse(inspect.getsource(aqstate)).body if isinstance(n, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        exported = importlib.import_module(f"aqstate.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == []
