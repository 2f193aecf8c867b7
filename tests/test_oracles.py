"""The oracles stay apart from the program they judge."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyxform import oracles
from polyxform.errors import UsageError
from polyxform.modcore import PrimeModulus

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


Q5, Q11 = PrimeModulus(5), PrimeModulus(11)


@pytest.mark.parametrize("call, message", [
    (lambda: oracles.cube_root_fermat(Q5.residue(2), Q11), "residue modulus does not match q"),
    (lambda: oracles.build_recovery([Q5.residue(2), Q11.residue(3)]),
     "roots must share one modulus"),
    (lambda: oracles.recover_components(
        [Q5.residue(1)], oracles.build_recovery([Q5.residue(2), Q5.residue(3)])),
     "evaluation count does not match"),
], ids=["cube-root-moduli", "recovery-mixed-moduli", "recovery-count"])
def test_oracles_refuse_arguments_from_mixed_or_wrong_sizes(call, message):
    with pytest.raises(UsageError, match=message):
        call()
