"""The package's import graph and its public names."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import txndpor

SRC = str(Path(txndpor.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(txndpor.__path__))
)
def test_submodule_imports_first_and_every_export_resolves(module):
    """A fresh interpreter imports the submodule without an import cycle,
    and every name in ``__all__`` exists."""
    code = (
        f"import txndpor.{module}, txndpor\n"
        "missing = [n for n in txndpor.__all__ if not hasattr(txndpor, n)]\n"
        "assert not missing, missing\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
