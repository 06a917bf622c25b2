"""The package reports the version the project metadata declares."""

import tomllib
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def test_package_version_matches_pyproject():
    with PYPROJECT.open("rb") as handle:
        declared = tomllib.load(handle)["project"]["version"]
    assert repro.__version__ == declared
