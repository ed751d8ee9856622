"""Byte-identical CLI output: the stdout of the README `spectrum` and `qes`
commands, and of spectra across the cases, against sha256 digests recorded
before the spectral pipeline moved to sympy's DomainMatrix."""
import hashlib
import json
from pathlib import Path

import pytest

from oscchain.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_stdout.json"))
                    .read_text())


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
