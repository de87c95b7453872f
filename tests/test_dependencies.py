"""The package depends on numpy and the standard library only."""
from __future__ import annotations

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from regimelist.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_cli_import_loads_no_scipy():
    code = ("import regimelist, regimelist.cli, sys; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_scipy_import_in_source_or_tests():
    for path in sorted([*(SRC / "regimelist").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name


def test_pyproject_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]



def test_numpy_floor_covers_bitwise_count():
    # np.bitwise_count arrived in numpy 2.0
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    (floor,) = [d.split(">=")[1] for d in project["dependencies"] if d.startswith("numpy>=")]
    if any("bitwise_count" in path.read_text() for path in (SRC / "regimelist").glob("*.py")):
        assert int(floor.split(".")[0]) >= 2


def test_every_file_parses_as_python_3_10():
    # the package supports Python 3.10, whose grammar lacks later syntax
    # such as except* and type parameter lists
    paths = sorted(path for d in ("src", "tests", "perfbench") for path in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def test_workflow_commands_parse():
    # the workflow's pipeline runs only where CI runs; every regimelist
    # command it holds, continuation lines joined and $data expanded, must
    # parse with the CLI's own parser
    text = re.sub(r"\\\n\s*", " ", WORKFLOW.read_text())
    data = re.search(r'^\s*data="([^"]*)"$', text, re.M).group(1)
    commands = [shlex.split(line.replace("$data", data))[1:]
                for line in text.splitlines() if line.strip().startswith("regimelist ")]
    assert {argv[0] for argv in commands} == {"generate", "mine", "fit", "learn", "evaluate"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the workflow's command does not parse: regimelist {shlex.join(argv)}")


def test_workflow_tests_the_oldest_python_and_numpy():
    # the oldest Python the workflow runs is pyproject's floor, and on it
    # the workflow pins numpy to pyproject's floor
    text = WORKFLOW.read_text()
    pyproject = (ROOT / "pyproject.toml").read_text()
    python_floor = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M).group(1)
    numpy_floor = re.search(r'"numpy>=([\d.]+)"', pyproject).group(1)
    pythons = [v for entry in re.findall(r'python-version: (\[[^\]]*\]|"[^"]*")', text)
               for v in re.findall(r'"([\d.]+)"', entry)]
    assert min(pythons, key=_version) == python_floor
    pins = re.findall(r'- python-version: "([\d.]+)"\n\s*numpy: "==([\d.]+)\.\*"', text)
    assert (python_floor, numpy_floor) in pins
