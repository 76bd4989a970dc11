"""Shared fixtures: the CLI run in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import projheat

SRC = str(Path(projheat.__file__).resolve().parent.parent)
# a CLI call as the console script makes it, with any import of mpmath failing
FRESH_CLI = ("import sys; sys.modules['mpmath'] = None; "
             "from projheat.cli import main; sys.exit(main(sys.argv[1:]))")


def _run_fresh_cli(argv) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", FRESH_CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)


@pytest.fixture
def fresh_cli():
    """Run argv through the CLI in a new interpreter, with cold caches and mpmath
    blocked; returns the CompletedProcess, stdout and stderr as text."""
    return _run_fresh_cli
