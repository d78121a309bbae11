"""Fixtures shared across the test packages."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def validator():
    """``scripts/validate_experiment_json.py`` as a module: the one
    ``validate(payload) -> list[str]`` every artifact goes through."""
    spec = importlib.util.spec_from_file_location(
        "validate_experiment_json",
        REPO / "scripts" / "validate_experiment_json.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
