"""The demos and README's API list stay in step with the code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gauss_renyi

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr


def readme_api_names() -> set:
    """Names in backticks, bare or called, on the bullets of README's "Python API"."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    return {name for bullet in bullets
            for name in re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", bullet)}


def test_all_matches_readme():
    assert sorted(gauss_renyi.__all__) == sorted(readme_api_names())
    for name in gauss_renyi.__all__:
        assert hasattr(gauss_renyi, name)
