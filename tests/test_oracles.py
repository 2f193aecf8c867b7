"""The oracles stay apart from the program they judge."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from polyxform import oracles

PROGRAM_ONLY = {"ptransform", "bigmul", "cli", "claims"}


def test_program_does_not_import_oracles():
    src = Path(oracles.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, polyxform.cli; print('polyxform.oracles' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_oracles_import_no_pipeline_module():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):  # the module, and names that may be modules
            imported |= {(node.module or "").split(".")[-1]} | {a.name for a in node.names}
    assert {"modcore", "extension"} <= imported  # the walk sees the imports there are
    assert not imported & PROGRAM_ONLY
