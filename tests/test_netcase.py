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


def test_repo_fixture_path_matches_package_data(ieee9):
    from pathlib import Path

    from dqpassivity import ieee9_text

    repo_copy = Path(__file__).parents[1] / "fixtures" / "ieee9.case"
    assert repo_copy.exists(), (
        f"{repo_copy} missing; it must be a byte-identical copy of "
        "src/dqpassivity/fixtures/ieee9.case"
    )
    assert repo_copy.read_text() == ieee9_text()
    assert parse_case(repo_copy.read_text()) == ieee9


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
    ],
)
def test_validate_case_rejects_invalid_case(ieee9, mutate, message):
    with pytest.raises(CaseError, match=re.escape(message)):
        validate_case(mutate(ieee9))


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
