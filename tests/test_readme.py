"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

from dqpassivity import reference

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
