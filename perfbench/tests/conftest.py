"""Fixtures for the benchmark's own tests: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.workloads import load_program  # noqa: E402


def _library_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "scbundles" or k.startswith("scbundles.")}


@pytest.fixture(scope="session")
def prog():
    """A fresh import of the library, as the benchmark makes one; the
    earlier import comes back afterwards for any tests that follow."""
    saved = _library_modules()
    yield load_program()
    for name in _library_modules():
        del sys.modules[name]
    sys.modules.update(saved)
