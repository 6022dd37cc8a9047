"""The README's library example and case-file block agree with the code."""

import re
from dataclasses import replace
from pathlib import Path

from dqpassivity import load_ieee9, reference, serialize_case

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(code, {})
    *eigs, overall, kqv = capsys.readouterr().out.splitlines()
    first = float(re.search(r"\[\s*(\S+)", "\n".join(eigs)).group(1))
    assert abs(first - reference.TABLE_EIGS["base"][0]) <= reference.EIG_TOL
    assert overall == "passive-after-regulation"
    assert abs(float(kqv) - 0.634) <= 1e-3


def test_case_file_block_uses_serialized_headers():
    """Each section's column comment starts with the header serialize_case writes."""
    block = README.read_text().split("## Case file format", 1)[1].split("```")[1].splitlines()
    written = serialize_case(replace(load_ieee9(), regulation=((5, 0.65),))).splitlines()
    headers = {line: nxt for line, nxt in zip(written, written[1:]) if line.startswith("[")}
    documented = {
        line.split("#")[0].strip(): nxt for line, nxt in zip(block, block[1:]) if line.startswith("[")
    }
    assert documented.keys() == headers.keys()
    for section, header in headers.items():
        if header.startswith("#"):
            assert documented[section].startswith(header), section
