"""pyproject.toml declares only what exists: importable dependencies, resolvable scripts."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]


def import_name(requirement: str) -> str:
    # every declared distribution is imported under its own name
    return re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0).lower().replace("-", "_")


DEPENDENCIES = PYPROJECT["dependencies"] + PYPROJECT.get("optional-dependencies", {}).get("dev", [])


@pytest.mark.parametrize("requirement", DEPENDENCIES)
def test_dependency_importable(requirement):
    importlib.import_module(import_name(requirement))


def test_scripts_resolve_to_callables():
    for name, target in PYPROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
