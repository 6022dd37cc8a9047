"""Case model, parser, serializer and variant derivation."""

import math
import re
from dataclasses import replace

import pytest

from dqpassivity import (
    Branch,
    CaseParseError,
    CaseTopologyError,
    CaseValidationError,
    Injection,
    VariantFlags,
    derive_variant,
    parse_case,
    serialize_case,
    solve_powerflow,
)
from dqpassivity.netcase import CaseError, validate_case

MINI = """
[system]
base_mva = 100.0
omega0 = 376.99111843077515

[buses]
1  1.0  0.0  0.0
2  1.0  0.0  0.0

[branches]
1  2  0.0  0.1  0.0  1.0

[injections]
1  slack  -     -    1.0
2  pq     -0.5  0.0  -
"""


def test_fixture_shape(ieee9):
    assert ieee9.n_bus == 9
    assert len(ieee9.branches) == 9
    lines = [b for b in ieee9.branches if b.b_line > 0]
    transformers = [b for b in ieee9.branches if b.b_line == 0]
    assert len(lines) == 6
    assert len(transformers) == 3
    gens = [i for i in ieee9.injections if i.kind in ("slack", "pv")]
    loads = [i for i in ieee9.injections if i.kind == "pq"]
    assert len(gens) == 3
    assert len(loads) == 3
    assert {i.bus for i in loads} == {5, 6, 8}


def test_minimal_two_bus_parses():
    case = parse_case(MINI)
    assert case.n_bus == 2
    assert case.branches[0].x == 0.1
    assert case.injections[1].p == -0.5


def test_unknown_bus_is_topology_error():
    bad = MINI.replace("1  2  0.0  0.1", "1  99  0.0  0.1")
    with pytest.raises(CaseTopologyError, match="99"):
        parse_case(bad)


def test_duplicate_bus_id():
    bad = MINI.replace("2  1.0  0.0  0.0", "1  1.0  0.0  0.0")
    with pytest.raises(CaseValidationError, match="duplicate"):
        parse_case(bad)


def test_one_bus_case_is_connected():
    one = MINI.replace("2  1.0  0.0  0.0\n", "").replace("1  2  0.0  0.1  0.0  1.0\n", "")
    case = parse_case(one.replace("2  pq     -0.5  0.0  -\n", ""))
    assert case.n_bus == 1
    assert case.branches == ()
    assert [inj.kind for inj in case.injections] == ["slack"]


def test_disconnected_graph():
    bad = MINI.replace(
        "2  1.0  0.0  0.0", "2  1.0  0.0  0.0\n3  1.0  0.0  0.0"
    )
    with pytest.raises(CaseTopologyError, match="disconnected"):
        parse_case(bad)


def test_parse_error_names_line():
    bad = MINI.replace("1  2  0.0  0.1  0.0  1.0", "1  2  0.0")
    with pytest.raises(CaseParseError, match=r"line \d+"):
        parse_case(bad)
    try:
        parse_case(bad)
    except CaseParseError as exc:
        assert bad.splitlines()[exc.line - 1].startswith("1  2  0.0")


def test_bad_number_names_field():
    bad = MINI.replace("-0.5", "oops")
    with pytest.raises(CaseParseError, match="field p"):
        parse_case(bad)


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("1  2  0.0  0.1", "1  2  0.0  inf", "x"),
        ("1  2  0.0  0.1", "1  2  nan  0.1", "r"),
        ("pq     -0.5", "pq     nan", "p"),
        ("pq     -0.5  0.0", "pq     -0.5  -inf", "q"),
    ],
    ids=["x=inf", "r=nan", "p=nan", "q=-inf"],
)
def test_non_finite_number_names_field_and_line(old, new, field):
    bad = MINI.replace(old, new)
    with pytest.raises(CaseParseError, match=f"field {field}: expected a finite number") as info:
        parse_case(bad)
    assert new in bad.splitlines()[info.value.line - 1]


@pytest.mark.parametrize(
    "part, index, field, value, where",
    [
        ("buses", 0, "vnom", math.inf, "bus 1"),
        ("buses", 0, "g_shunt", math.nan, "bus 1"),
        ("buses", 1, "b_shunt", math.nan, "bus 2"),
        ("branches", 0, "r", math.nan, "branch 4-1"),
        ("branches", 0, "x", math.inf, "branch 4-1"),
        ("branches", 1, "b_line", math.nan, "branch 7-2"),
        ("branches", 1, "ratio", math.inf, "branch 7-2"),
        ("injections", 3, "p", math.nan, "injection at bus 5"),
        ("injections", 3, "q", -math.inf, "injection at bus 5"),
        ("injections", 1, "vset", math.nan, "injection at bus 7"),
        ("system", None, "base_mva", math.nan, "system"),
        ("system", None, "omega0", math.inf, "system"),
    ],
)
def test_validate_case_rejects_non_finite_number(ieee9, part, index, field, value, where):
    """A case built in Python (not parsed) is checked for finite numbers too."""
    if part == "system":
        case = replace(ieee9, system=replace(ieee9.system, **{field: value}))
    else:
        items = list(getattr(ieee9, part))
        items[index] = replace(items[index], **{field: value})
        case = replace(ieee9, **{part: tuple(items)})
    with pytest.raises(CaseValidationError, match=re.escape(f"{where}: {field}={value} must be finite")):
        validate_case(case)


def _replace_item(case, part, index, **changes):
    items = list(getattr(case, part))
    items[index] = replace(items[index], **changes)
    return replace(case, **{part: tuple(items)})


@pytest.mark.parametrize("value", ["0.0", "-1.04"])
def test_parse_rejects_nonpositive_slack_vset(value):
    bad = MINI.replace("1  slack  -     -    1.0", f"1  slack  -     -    {value}")
    with pytest.raises(CaseValidationError, match=re.escape(f"bus 1: vset={float(value)} must be > 0")):
        parse_case(bad)


@pytest.mark.parametrize("index, bus", [(0, 4), (1, 7)], ids=["slack", "pv"])
@pytest.mark.parametrize("value", [0.0, -1.04])
def test_validate_case_rejects_nonpositive_vset(ieee9, index, bus, value):
    case = _replace_item(ieee9, "injections", index, vset=value)
    with pytest.raises(CaseValidationError, match=re.escape(f"bus {bus}: vset={value} must be > 0")):
        validate_case(case)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda c: replace(c, branches=c.branches + (Branch(from_bus=5, to_bus=5, r=0.0, x=0.1),)),
            "branch 5-5 is a self-loop",
        ),
        (lambda c: _replace_item(c, "injections", 3, kind="load"), "unknown kind 'load'"),
        (
            lambda c: replace(c, injections=c.injections + (Injection(bus=5, kind="pq", p=0.0, q=0.0),)),
            "multiple injections at bus 5",
        ),
        (lambda c: _replace_item(c, "injections", 1, vset=None), "PV injection at bus 7 needs"),
        (lambda c: _replace_item(c, "injections", 1, p=None), "PV injection at bus 7 needs"),
        (lambda c: _replace_item(c, "injections", 3, q=None), "PQ injection at bus 5 needs"),
        (lambda c: replace(c, regulation=((42, 0.5),)), "unknown bus 42"),
        (lambda c: replace(c, system=replace(c.system, base_mva=0.0)), "base MVA"),
        (lambda c: replace(c, system=replace(c.system, base_mva=-100.0)), "base MVA"),
        (lambda c: replace(c, system=replace(c.system, omega0=0.0)), "system: omega0 must be > 0"),
        (lambda c: replace(c, buses=()), "case has no buses"),
        (lambda c: _replace_item(c, "buses", 0, vnom=0.0), "bus 1: nominal |V| must be > 0"),
        (lambda c: _replace_item(c, "branches", 3, r=-0.01), "branch 1-5: series R must be >= 0"),
        (lambda c: _replace_item(c, "branches", 3, b_line=-0.1), "branch 1-5: line charging must be >= 0"),
        (lambda c: _replace_item(c, "branches", 0, ratio=0.0), "branch 4-1: turns ratio must be > 0"),
        (lambda c: _replace_item(c, "injections", 3, bus=42), "injection references unknown bus 42"),
        (lambda c: _replace_item(c, "injections", 0, vset=None), "slack at bus 4 needs a |V| setpoint"),
        (
            lambda c: replace(c, regulation=((5, -0.1),)),
            "regulation at bus 5: k_qv must be finite and >= 0",
        ),
    ],
    ids=[
        "self-loop",
        "unknown-kind",
        "two-injections",
        "pv-no-vset",
        "pv-no-p",
        "pq-no-q",
        "unknown-regulation-bus",
        "base-mva-zero",
        "base-mva-negative",
        "omega0-zero",
        "no-buses",
        "vnom-zero",
        "negative-r",
        "negative-b-line",
        "ratio-zero",
        "injection-unknown-bus",
        "slack-no-vset",
        "negative-k-qv",
    ],
)
def test_validate_case_rejects_invalid_case(ieee9, mutate, message):
    with pytest.raises(CaseError, match=re.escape(message)):
        validate_case(mutate(ieee9))


@pytest.mark.parametrize(
    "text, message",
    [
        (MINI + "[foo]\n", "line 16: unknown section [foo]"),
        ("1  1.0  0.0  0.0\n" + MINI, "line 1: data before any [section] header"),
        (MINI.replace("base_mva = 100.0", "base_mva 100.0"), "line 3: system entries must be 'key = value'"),
        (MINI.replace("base_mva = 100.0", "freq = 50"), "line 3: unknown system key 'freq'"),
        (MINI.replace("2  1.0  0.0  0.0", "2  1.0  0.0"), "line 8: bus rows need: id vnom g_shunt b_shunt"),
        (
            MINI.replace("1  2  0.0  0.1  0.0  1.0", "1  2  0.0  0.1  0.0"),
            "line 11: branch rows need: from to r x b_line ratio",
        ),
        (MINI.replace("0.0  -\n", "0.0\n"), "line 15: injection rows need: bus kind p q vset"),
        (MINI + "[regulation]\n2  0.4  1\n", "line 17: regulation rows need: bus k_qv"),
        (MINI.replace("2  1.0  0.0  0.0", "2.5  1.0  0.0  0.0"), "line 8: field bus id: expected an integer, got '2.5'"),
        (MINI.replace("1  2  0.0  0.1", "1  b  0.0  0.1"), "line 11: field to: expected an integer, got 'b'"),
        (
            MINI.replace("base_mva = 100.0", "base_mva = abc"),
            "line 3: field base_mva: expected a finite number, got 'abc'",
        ),
        (MINI.replace("2  1.0  0.0  0.0", "2  x  0.0  0.0"), "line 8: field vnom: expected a finite number, got 'x'"),
        (MINI.replace("0.1  0.0  1.0", "0.1  nan  1.0"), "line 11: field b_line: expected a finite number, got 'nan'"),
        (MINI.replace("0.0  -\n", "0.0  inf\n"), "line 15: field vset: expected a finite number, got 'inf'"),
        (MINI + "[regulation]\n2  nan\n", "line 17: field k_qv: expected a finite number, got 'nan'"),
        (MINI.replace("omega0", "base_mva = 50.0\nomega0"), "line 4: repeated system key 'base_mva'"),
        (MINI + "[buses]\n3  1.0  0.0  0.0\n", "line 16: repeated section [buses]"),
    ],
    ids=[
        "unknown-section",
        "data-before-header",
        "system-without-equals",
        "unknown-system-key",
        "bus-arity",
        "branch-arity",
        "injection-arity",
        "regulation-arity",
        "non-integer-id",
        "non-integer-to",
        "system-number",
        "bus-number",
        "branch-number",
        "injection-optional-number",
        "regulation-number",
        "repeated-system-key",
        "repeated-section",
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(CaseParseError) as info:
        parse_case(text)
    assert str(info.value) == message
    assert info.value.line == int(message.split()[1].rstrip(":"))


IEEE9_SERIALIZED = """\
[system]
base_mva = 100.0
omega0 = 376.99111843077515

[buses]
# id  vnom  g_shunt  b_shunt
1  1.0  0.0  0.0
2  1.0  0.0  0.0
3  1.0  0.0  0.0
4  1.0  0.0  0.0
5  1.0  0.0  0.0
6  1.0  0.0  0.0
7  1.0  0.0  0.0
8  1.0  0.0  0.0
9  1.0  0.0  0.0

[branches]
# from  to  r  x  b_line  ratio
4  1  0.0  0.0576  0.0  1.0
7  2  0.0  0.0625  0.0  1.0
9  3  0.0  0.0586  0.0  1.0
1  5  0.01  0.085  0.176  1.0
1  6  0.017  0.092  0.158  1.0
5  2  0.032  0.161  0.306  1.0
6  3  0.039  0.17  0.358  1.0
2  8  0.0085  0.072  0.149  1.0
8  3  0.0119  0.1008  0.209  1.0

[injections]
# bus  kind  p  q  vset
4  slack  -  -  1.04
7  pv  1.63  -  1.025
9  pv  0.85  -  1.025
5  pq  -1.25  -0.5  -
6  pq  -0.9  -0.3  -
8  pq  -1.0  -0.35  -
"""


def test_serialize_ieee9_golden(ieee9):
    assert serialize_case(ieee9) == IEEE9_SERIALIZED
    regulated = replace(ieee9, regulation=((1, 0.65), (5, 0.4)))
    tail = "\n[regulation]\n# bus  k_qv\n1  0.65\n5  0.4\n"
    assert serialize_case(regulated) == IEEE9_SERIALIZED + tail


def test_slack_count_enforced():
    with pytest.raises(CaseValidationError, match="slack"):
        parse_case(MINI.replace("1  slack  -     -    1.0", "1  pq  0.0  0.0  -"))


def test_nonpositive_reactance_rejected():
    with pytest.raises(CaseValidationError, match="X must be > 0"):
        parse_case(MINI.replace("0.0  0.1", "0.0  0.0"))


def test_negative_shunt_susceptance_rejected():
    with pytest.raises(CaseValidationError, match="susceptance"):
        parse_case(MINI.replace("2  1.0  0.0  0.0", "2  1.0  0.0  -0.1"))


def test_roundtrip_fixed_point(ieee9):
    once = parse_case(serialize_case(ieee9))
    twice = parse_case(serialize_case(once))
    assert once == ieee9
    assert twice == once


def test_regulation_section_roundtrip():
    text = MINI + "\n[regulation]\n2  0.4\n"
    case = parse_case(text)
    assert case.regulation == ((2, 0.4),)
    assert parse_case(serialize_case(case)) == case


def test_variant_lossless(ieee9):
    out = derive_variant(ieee9, VariantFlags(lossless=True))
    assert all(b.r == 0.0 for b in out.branches)
    assert len(out.branches) == 9
    # untouched fields and the original case
    assert out.injections == ieee9.injections
    assert any(b.r > 0 for b in ieee9.branches)


def test_variant_identity(ieee9):
    assert derive_variant(ieee9, VariantFlags()) == ieee9


def test_variant_no_shunt_b(ieee9):
    out = derive_variant(ieee9, VariantFlags(no_shunt_b=True))
    assert all(abs(b) == 0.0 for b in out.shunt_susceptance())
    assert all(br.x == pytest.approx(orig.x) for br, orig in zip(out.branches, ieee9.branches))


def test_variant_idempotent(ieee9):
    for flags in (VariantFlags(lossless=True), VariantFlags(no_shunt_b=True)):
        once = derive_variant(ieee9, flags)
        assert derive_variant(once, flags) == once


def test_decoupled_flag_leaves_case_alone(ieee9):
    assert derive_variant(ieee9, VariantFlags(decoupled=True)) == ieee9


def test_bus_index_of_unknown_id(ieee9):
    assert ieee9.bus_index(ieee9.bus_ids[-1]) == ieee9.n_bus - 1
    with pytest.raises(CaseTopologyError, match="unknown bus id 42"):
        ieee9.bus_index(42)
    # The per-case lookups behind the shunt sum and the power flow raise the
    # same error on an unvalidated case.
    stray_branch = replace(ieee9, branches=ieee9.branches + (Branch(4, 42, 0.01, 0.1, 0.2),))
    with pytest.raises(CaseTopologyError, match="unknown bus id 42"):
        stray_branch.shunt_susceptance()
    stray_load = replace(ieee9, injections=ieee9.injections + (Injection(42, "pq", p=-0.1, q=0.0),))
    with pytest.raises(CaseTopologyError, match="unknown bus id 42"):
        solve_powerflow(stray_load)
