"""Network case data model, case-file parsing and variant derivation.

A case is a balanced positive-sequence transmission network in per-unit:
buses with shunt admittance, series R-X branches with pi-model line
charging and an off-nominal turns ratio, plus slack/PV/PQ injection
specifications. Everything is immutable; variant derivation returns new
cases.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cached_property
from importlib import resources

__all__ = [
    "Bus",
    "Branch",
    "Injection",
    "SystemParams",
    "NetworkCase",
    "VariantFlags",
    "CaseError",
    "CaseParseError",
    "CaseValidationError",
    "CaseTopologyError",
    "validate_case",
    "parse_case",
    "serialize_case",
    "derive_variant",
    "load_ieee9",
    "ieee9_text",
]


class CaseError(ValueError):
    """Base class for case-file and case-validation problems."""


class CaseParseError(CaseError):
    """Malformed case text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CaseValidationError(CaseError):
    """Structurally parseable case that violates a field invariant."""


class CaseTopologyError(CaseError):
    """Branch/injection references or connectivity are broken."""


@dataclass(frozen=True)
class Bus:
    id: int
    vnom: float = 1.0
    g_shunt: float = 0.0
    b_shunt: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_line: float = 0.0
    ratio: float = 1.0


@dataclass(frozen=True)
class Injection:
    bus: int
    kind: str  # "slack" | "pv" | "pq"
    p: float | None = None
    q: float | None = None
    vset: float | None = None


@dataclass(frozen=True)
class SystemParams:
    base_mva: float = 100.0
    omega0: float = 2.0 * math.pi * 60.0


@dataclass(frozen=True)
class NetworkCase:
    system: SystemParams
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    injections: tuple[Injection, ...]
    # Optional per-bus Q-V contribution slots from the [regulation] section.
    regulation: tuple[tuple[int, float], ...] = field(default=())

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    @cached_property
    def _positions(self) -> dict[int, int]:
        # Built once per case; a repeated id keeps its first position.
        positions: dict[int, int] = {}
        for i, bus in enumerate(self.buses):
            positions.setdefault(bus.id, i)
        return positions

    def bus_index(self, bus_id: int) -> int:
        try:
            return self._positions[bus_id]
        except KeyError:
            raise CaseTopologyError(f"unknown bus id {bus_id}") from None

    def shunt_susceptance(self) -> list[float]:
        """Total shunt susceptance per bus: bus shunt plus half line charging."""
        b = [bus.b_shunt for bus in self.buses]
        for br in self.branches:
            b[self.bus_index(br.from_bus)] += br.b_line / 2.0
            b[self.bus_index(br.to_bus)] += br.b_line / 2.0
        return b


@dataclass(frozen=True)
class VariantFlags:
    """Network simplifications; `decoupled` acts only on Jacobian-level artifacts."""

    lossless: bool = False
    no_shunt_b: bool = False
    decoupled: bool = False


def _require_finite(element: object, where: str) -> None:
    """Raise naming the field of a non-finite number and `where.format(element)`,
    a label built only then."""
    for name, value in vars(element).items():
        try:
            finite = math.isfinite(value)
        except TypeError:  # kinds and unset (None) values
            continue
        if not finite:
            raise CaseValidationError(f"{where.format(element)}: {name}={value} must be finite")


def _check_elements(case: NetworkCase) -> None:
    """Raise unless every element of `case` has a place in an element table:
    the rules of `validate_case` and `dqstamp._network_elements`. Finite
    numbers in the system, buses and branches; omega0 > 0; unique bus ids;
    b_shunt >= 0; per branch no self-loop, x >= 0, b_line >= 0, ratio > 0 and
    not r = x = 0 (x = 0 is the conductance 1/r); at least one bus.
    """
    _require_finite(case.system, "system")
    if case.system.omega0 <= 0:
        raise CaseValidationError("system: omega0 must be > 0")
    for i, bus in enumerate(case.buses):
        if case._positions[bus.id] != i:  # a repeat of an earlier id
            raise CaseValidationError(f"duplicate bus id {bus.id}")
        _require_finite(bus, "bus {0.id}")
        if bus.b_shunt < 0:
            raise CaseValidationError(f"bus {bus.id}: negative shunt susceptance is not supported")
    for br in case.branches:
        _require_finite(br, "branch {0.from_bus}-{0.to_bus}")
        if br.from_bus == br.to_bus:
            raise CaseTopologyError(f"branch {br.from_bus}-{br.to_bus} is a self-loop")
        if br.x < 0:
            raise CaseValidationError(f"branch {br.from_bus}-{br.to_bus}: series X must be >= 0")
        if br.b_line < 0:
            raise CaseValidationError(f"branch {br.from_bus}-{br.to_bus}: line charging must be >= 0")
        if br.ratio <= 0:
            raise CaseValidationError(f"branch {br.from_bus}-{br.to_bus}: turns ratio must be > 0")
        if br.x == 0 and br.r == 0:
            raise CaseValidationError(
                f"branch {br.from_bus}-{br.to_bus}: a branch with x = 0 is the static conductance 1/r and needs r != 0"
            )
    if not case.buses:
        raise CaseValidationError("case has no buses")


def _check_injections(case: NetworkCase) -> None:
    """Raise unless the injections give a power flow to solve: one slack,
    at most one injection per bus and each kind with its fields
    (`validate_case` and `powerflow.solve_powerflow`). An unknown bus is
    left to `validate_case`, or to the lookup of `NetworkCase.bus_index`."""
    slacks = [inj for inj in case.injections if inj.kind == "slack"]
    if len(slacks) != 1:
        raise CaseValidationError(f"expected exactly one slack injection, got {len(slacks)}")
    inj_buses = set()
    for inj in case.injections:
        _require_finite(inj, "injection at bus {0.bus}")
        if inj.bus in inj_buses:
            raise CaseValidationError(f"multiple injections at bus {inj.bus}")
        inj_buses.add(inj.bus)
        if inj.kind not in ("slack", "pv", "pq"):
            raise CaseValidationError(f"injection at bus {inj.bus}: unknown kind {inj.kind!r}")
        if inj.kind == "slack" and inj.vset is None:
            raise CaseValidationError(f"slack at bus {inj.bus} needs a |V| setpoint")
        if inj.kind == "pv" and (inj.p is None or inj.vset is None):
            raise CaseValidationError(f"PV injection at bus {inj.bus} needs P and |V| setpoint")
        if inj.kind == "pq" and (inj.p is None or inj.q is None):
            raise CaseValidationError(f"PQ injection at bus {inj.bus} needs P and Q")
        if inj.kind in ("slack", "pv") and inj.vset <= 0:
            raise CaseValidationError(f"injection at bus {inj.bus}: vset={inj.vset} must be > 0")


def validate_case(case: NetworkCase) -> None:
    """Raise if any case invariant fails: the element rules of `_check_elements`,
    the case-file rules x > 0 and r >= 0, vnom > 0, base MVA > 0, the
    injections, the regulation entries, known branch ends and connectivity."""
    # Before _check_elements, so r = x = 0 reads as x <= 0; a NaN passes both tests.
    for br in case.branches:
        if br.r < 0:
            raise CaseValidationError(f"branch {br.from_bus}-{br.to_bus}: series R must be >= 0")
        if br.x <= 0:
            raise CaseValidationError(f"branch {br.from_bus}-{br.to_bus}: series X must be > 0")
    _check_elements(case)
    if case.system.base_mva <= 0:
        raise CaseValidationError("system: base MVA must be > 0")
    for bus in case.buses:
        if bus.vnom <= 0:
            raise CaseValidationError(f"bus {bus.id}: nominal |V| must be > 0")
    ends = [(f"branch {br.from_bus}-{br.to_bus}", end) for br in case.branches for end in (br.from_bus, br.to_bus)]
    for what, bus_id in ends + [("injection", inj.bus) for inj in case.injections]:
        if bus_id not in case._positions:
            raise CaseTopologyError(f"{what} references unknown bus {bus_id}")
    _check_injections(case)
    for bus_id, kqv in case.regulation:
        if bus_id not in case._positions:
            raise CaseTopologyError(f"regulation entry references unknown bus {bus_id}")
        if not (math.isfinite(kqv) and kqv >= 0):
            raise CaseValidationError(f"regulation at bus {bus_id}: k_qv must be finite and >= 0")
    _check_connected(case)


def _check_connected(case: NetworkCase) -> None:
    if case.n_bus <= 1:
        return
    adj: dict[int, set[int]] = {b.id: set() for b in case.buses}
    for br in case.branches:
        adj[br.from_bus].add(br.to_bus)
        adj[br.to_bus].add(br.from_bus)
    start = case.buses[0].id
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != case.n_bus:
        missing = sorted(set(case.bus_ids) - seen)
        raise CaseTopologyError(f"network graph is disconnected; unreachable buses {missing}")


def _num(token: str, what: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise CaseParseError(f"field {what}: expected a finite number, got {token!r}", line)
    return value


def _int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise CaseParseError(f"field {what}: expected an integer, got {token!r}", line) from None


def _opt(token: str, what: str, line: int) -> float | None:
    return None if token == "-" else _num(token, what, line)


# Row sections in file order, each named after its NetworkCase field:
# (row name, row type taking the columns positionally, columns), where a
# column is (header, field name in parse errors, parser).
_ROWS = {
    "buses": ("bus", Bus, (
        ("id", "bus id", _int), ("vnom", "vnom", _num),
        ("g_shunt", "g_shunt", _num), ("b_shunt", "b_shunt", _num),
    )),
    "branches": ("branch", Branch, (
        ("from", "from", _int), ("to", "to", _int), ("r", "r", _num),
        ("x", "x", _num), ("b_line", "b_line", _num), ("ratio", "ratio", _num),
    )),
    "injections": ("injection", Injection, (
        ("bus", "bus", _int), ("kind", "kind", lambda token, what, line: token.lower()),
        ("p", "p", _opt), ("q", "q", _opt), ("vset", "vset", _opt),
    )),
    "regulation": ("regulation", lambda *row: row, (("bus", "bus", _int), ("k_qv", "k_qv", _num))),
}


def parse_case(text: str) -> NetworkCase:
    """Parse case-file text into a validated NetworkCase."""
    system_keys = [f.name for f in fields(SystemParams)]
    section = None
    seen: set[str] = set()
    system: dict[str, float] = {}
    rows: dict[str, list] = {name: [] for name in _ROWS}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip().lower()
            if name != "system" and name not in _ROWS:
                raise CaseParseError(f"unknown section [{name}]", lineno)
            if name in seen:
                raise CaseParseError(f"repeated section [{name}]", lineno)
            section = name
            seen.add(name)
            continue
        if section is None:
            raise CaseParseError("data before any [section] header", lineno)
        if section == "system":
            if "=" not in line:
                raise CaseParseError("system entries must be 'key = value'", lineno)
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in system_keys:
                raise CaseParseError(f"unknown system key {key!r}", lineno)
            if key in system:
                raise CaseParseError(f"repeated system key {key!r}", lineno)
            system[key] = _num(value.strip(), key, lineno)
            continue
        row_name, row_type, columns = _ROWS[section]
        tokens = line.split()
        if len(tokens) != len(columns):
            headers = " ".join(header for header, _, _ in columns)
            raise CaseParseError(f"{row_name} rows need: {headers}", lineno)
        values = [parse(token, what, lineno) for token, (_, what, parse) in zip(tokens, columns)]
        rows[section].append(row_type(*values))

    case = NetworkCase(system=SystemParams(**system), **{name: tuple(r) for name, r in rows.items()})
    validate_case(case)
    return case


def _format(value: object) -> str:
    return "-" if value is None else repr(value) if isinstance(value, float) else str(value)


def serialize_case(case: NetworkCase) -> str:
    """Render a case with the headers and columns that parse_case reads (parse round-trips)."""
    out = ["[system]"]
    out += [f"{f.name} = {getattr(case.system, f.name)!r}" for f in fields(SystemParams)]
    for name, (_, _, columns) in _ROWS.items():
        rows = getattr(case, name)
        if name == "regulation" and not rows:  # the only optional section
            continue
        out += ["", f"[{name}]", "# " + "  ".join(header for header, _, _ in columns)]
        out += ["  ".join(map(_format, row if isinstance(row, tuple) else astuple(row))) for row in rows]
    out.append("")
    return "\n".join(out)


def derive_variant(case: NetworkCase, flags: VariantFlags) -> NetworkCase:
    """Apply lossless / no-shunt-B simplifications, returning a new case.

    The decoupled flag never alters the case; it is consumed when the
    low-frequency Jacobian is assembled.
    """
    branches = case.branches
    buses = case.buses
    if flags.lossless:
        branches = tuple(replace(br, r=0.0) for br in branches)
    if flags.no_shunt_b:
        branches = tuple(replace(br, b_line=0.0) for br in branches)
        buses = tuple(replace(b, b_shunt=0.0) for b in buses)
    return replace(case, buses=buses, branches=branches)


def ieee9_text() -> str:
    """Raw text of the bundled 9-bus fixture."""
    return resources.files("dqpassivity").joinpath("fixtures/ieee9.case").read_text()


def load_ieee9() -> NetworkCase:
    """The bundled Anderson-Fouad three-machine, nine-bus test network."""
    return parse_case(ieee9_text())
