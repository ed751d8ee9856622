"""Byte-identical CLI output against recorded sha256 digests: the stdout of
the README `spectrum`, `qes`, `integrals`, `sepvar`, `curve --format csv` and
`verify-all` commands, and of spectra across the cases.  The `spectrum` and
`qes` digests were recorded before the spectral pipeline moved to sympy's
DomainMatrix, the other four before the exact kernel moved to integer
numerators, the spectra at N = 10, at N = 6 in the all-rational regime
(springs 1, 2, 2) and of onedim3 and molecular3 at N = 6 before harmonic
levels were read from the degree-1 block, and of general3 with zero
springs (degree-1 block A = 0) before A's spectrum was read in closed
form.  `bo` is left out: its floats
come from BLAS and can differ between machines."""
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
