"""Run configuration: strict JSON loading and validation.

A run is described by one JSON document with blocks

    problem   - catalog name or explicit coefficient strings + gamma
    solver    - method (lattice | hjb | both), grid and control sizes
    validate  - oracle tags and tolerance overrides
    simulate  - Monte Carlo scenario parameters
    table     - resolution sweep for convergence tables
    output    - artifact directory and formats
    probes    - list of [t, x] evaluation points

The block dataclasses below are the schema: each field's name is its JSON
key, its default is the key's default and its ``metadata`` holds the rule
the value must obey (kind, choices, bounds).  One walk over those fields
reads and checks every block.

Unknown keys are always rejected, each reported by its dotted key path;
all validation failures are collected and reported together.  Booleans are
never numbers, every number is finite, ``simulate.seed`` must lie in
[0, 2**64), a ``simulate`` block needs a nonempty ``q_profile`` and
``n_paths >= 1000``, every oracle tag must be a known one, and an explicit
problem must name ``T``, ``x_min``, ``x_max``, ``gamma``, ``sigma`` and
``phi``, with ``x_min < x_max``, ``u_min <= u_max``, a ``gamma`` whose
``lo`` and ``hi`` bound a valid volatility interval, and an ``n_u`` when
``u_min < u_max`` unless ``solver.n_u`` is given.  A catalog problem names
nothing but ``catalog``.  Resolving a problem also checks a listed
closed-form oracle tag against the coefficients.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import CLOSED_FORMS, verify_oracle_tag
from .gexp import GammaSet
from .problem import ControlProblem, catalog_entry

__all__ = [
    "ConfigError",
    "RunConfig",
    "SolverBlock",
    "ValidateBlock",
    "SimulateBlock",
    "TableBlock",
    "OutputBlock",
    "load_config",
    "parse_config",
    "resolve_problem",
]

_ORACLE_TAGS = ("auto", "none", "brute-force", *CLOSED_FORMS)


class ConfigError(ValueError):
    """Invalid run configuration; message lists every failure found."""

    def __init__(self, errors: Sequence[str]):
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(errors))
        self.errors = tuple(errors)


def _rule(kind, **rule) -> Dict:
    """A value rule.  ``kind`` is float, int, str, list or a block class.

    Scalars take ``choices``, ``positive``, ``minimum`` and ``maximum``;
    ``required_without`` names a key whose absence makes this one required.
    Lists take ``of`` (the entry rule), ``msg`` (what a failing list is
    told) and ``length``.
    """
    return dict(rule, kind=kind)


def _key(default, kind, **rule):
    return field(default=default, metadata=_rule(kind, **rule))


def _block_key(cls):
    return field(default_factory=cls, metadata=_rule(cls))


_NUMBERS = _rule(float)
_CUSTOM = {"required_without": "catalog"}


@dataclass(frozen=True)
class GammaBlock:
    lo: Optional[float] = _key(None, float, positive=True)
    hi: Optional[float] = _key(None, float, positive=True)


@dataclass(frozen=True)
class ProblemBlock:
    catalog: Optional[str] = _key(None, str)
    T: Optional[float] = _key(None, float, positive=True, **_CUSTOM)
    x_min: Optional[float] = _key(None, float, **_CUSTOM)
    x_max: Optional[float] = _key(None, float, **_CUSTOM)
    u_min: float = _key(0.0, float)
    u_max: float = _key(0.0, float)
    n_u: Optional[int] = _key(None, int, positive=True)
    gamma: Optional[GammaBlock] = _key(None, GammaBlock, **_CUSTOM)
    b: str = _key("0", str)
    h: str = _key("0", str)
    sigma: Optional[str] = _key(None, str, **_CUSTOM)
    f: str = _key("0", str)
    g: str = _key("0", str)
    phi: Optional[str] = _key(None, str, **_CUSTOM)


@dataclass(frozen=True)
class SolverBlock:
    method: str = _key("both", str, choices=("lattice", "hjb", "both"))
    n_x: int = _key(200, int, positive=True)
    K: Optional[int] = _key(None, int, positive=True)
    n_u: Optional[int] = _key(None, int, positive=True)


@dataclass(frozen=True)
class ValidateBlock:
    oracles: Tuple[str, ...] = _key(("auto",), list, of=_rule(str),
                                    msg="must be a list of strings")
    tolerance: float = _key(0.02, float, positive=True)
    agreement: float = _key(0.05, float, positive=True)


@dataclass(frozen=True)
class SimulateBlock:
    # the fewest paths mc_lower_bound runs
    n_paths: int = _key(4000, int, positive=True, minimum=1000)
    # the first key word of the per-step Philox streams
    seed: int = _key(0, int, minimum=0, maximum=int(np.iinfo(np.uint64).max))
    q_profile: Tuple[float, ...] = _key((), list, of=_NUMBERS,
                                        msg="must be a list of numbers")
    u_policy: str = _key("0", str)


@dataclass(frozen=True)
class TableBlock:
    n_x_list: Tuple[int, ...] = _key((), list, of=_rule(int, minimum=3),
                                     msg="must be a list of integers > 2")


@dataclass(frozen=True)
class OutputBlock:
    dir: str = _key("out", str)
    formats: Tuple[str, ...] = _key(
        ("csv", "json"), list, of=_rule(str, choices=("csv", "json")),
        msg="entries must be 'csv' or 'json'")


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemBlock = field(metadata=_rule(ProblemBlock))
    solver: SolverBlock = _block_key(SolverBlock)
    validate: ValidateBlock = _block_key(ValidateBlock)
    simulate: Optional[SimulateBlock] = _key(None, SimulateBlock)
    table: Optional[TableBlock] = _key(None, TableBlock)
    output: OutputBlock = _block_key(OutputBlock)
    probes: Tuple[Tuple[float, float], ...] = _key(
        (), list, msg="must be a list of [t, x] pairs",
        of=_rule(list, msg="must be a [t, x] pair", length=2, of=_NUMBERS))


def _scalar_fault(rule: Dict, v) -> Optional[str]:
    """Why ``v`` breaks the scalar ``rule``, or None when it obeys it."""
    if rule["kind"] is str:
        if not isinstance(v, str):
            return f"must be a string, got {v!r}"
    elif isinstance(v, bool) or not isinstance(v, (int, float)):
        return f"must be a number, got {v!r}"
    elif rule["kind"] is int and not (isinstance(v, int) or v.is_integer()):
        return f"must be an integer, got {v!r}"
    elif not abs(v) <= sys.float_info.max:  # NaN, inf or a huge int
        return f"must be finite, got {v!r}"
    elif rule.get("positive") and not v > 0:
        return f"must be positive, got {v!r}"
    if "choices" in rule and v not in rule["choices"]:
        return f"must be one of {sorted(rule['choices'])}, got {v!r}"
    if "minimum" in rule and v < rule["minimum"]:
        return f"must be >= {rule['minimum']}"
    if "maximum" in rule and v > rule["maximum"]:
        return f"must be <= {rule['maximum']}"
    return None


def _value(rule: Dict, v, path: str, errors: List[str]):
    """``v`` checked and converted by ``rule``, or None after recording
    why it fails."""
    kind = rule["kind"]
    if is_dataclass(kind):
        if not isinstance(v, dict):
            errors.append(f"{path}: must be an object")
            v = {}
        return _block(kind, v, path, errors)
    if kind is not list:
        fault = _scalar_fault(rule, v)
        if fault is not None:
            errors.append(f"{path}: {fault}")
            return None
        return kind(v)
    of = rule["of"]
    if not isinstance(v, list) or len(v) != rule.get("length", len(v)):
        errors.append(f"{path}: {rule['msg']}")
        return None
    if of["kind"] is list:  # nested entries report their own faults
        return tuple(_value(of, x, f"{path}[{i}]", errors)
                     for i, x in enumerate(v))
    if any(_scalar_fault(of, x) is not None for x in v):
        errors.append(f"{path}: {rule['msg']}")
        return None
    return tuple(of["kind"](x) for x in v)


def _block(cls, raw: Dict, path: str, errors: List[str]):
    """Block ``cls`` read from the JSON object ``raw`` by its fields' rules.

    A missing key takes the field's default; so does a key whose value
    fails its rule, after the failure is recorded in ``errors``.
    """
    def where(key):
        return f"{path}.{key}" if path else key

    keys = {f.name for f in fields(cls)}
    errors.extend(f"unknown key {where(k)!r}" for k in raw if k not in keys)
    values: Dict = {}
    for f in fields(cls):
        rule = f.metadata
        if f.default is MISSING and f.default_factory is MISSING:
            # a required block: an absent one is read as empty
            sub = raw.get(f.name)
            if not isinstance(sub, dict):
                errors.append(f"{where(f.name)}: required block")
                sub = {}
            values[f.name] = _block(rule["kind"], sub, where(f.name), errors)
        elif f.name in raw:
            v = _value(rule, raw[f.name], where(f.name), errors)
            if v is not None:
                values[f.name] = v
        elif ("required_without" in rule
              and values.get(rule["required_without"]) is None):
            errors.append(f"{where(f.name)}: required when no "
                          f"{rule['required_without']} name given")
    return cls(**values)


def parse_config(doc: Dict) -> RunConfig:
    """Validate a parsed JSON document into a :class:`RunConfig`."""
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a JSON object"])
    errors: List[str] = []
    cfg = _block(RunConfig, doc, "", errors)
    pb = cfg.problem

    def reported(*keys):
        # a key that failed its own rule is reported once, by that rule
        return any(e.startswith(keys) for e in errors)

    if pb.catalog is not None:
        custom = {f.name for f in fields(ProblemBlock)} - {"catalog"}
        errors.extend(f"problem.{k}: not allowed beside catalog"
                      for k in doc["problem"] if k in custom)
    elif pb.gamma is not None and not reported("problem.gamma"):
        try:
            _gamma_set(pb.gamma)
        except ValueError as exc:
            errors.append(f"problem.gamma: {exc}")
    # an empty box or control interval; a bound that failed its own rule
    # reads None (x) or the default 0 (u)
    if (pb.catalog is None and pb.x_min is not None and pb.x_max is not None
            and not pb.x_min < pb.x_max):
        errors.append(f"problem.x_min: need x_min < x_max, got "
                      f"[{pb.x_min}, {pb.x_max}]")
    if (pb.catalog is None and not pb.u_min <= pb.u_max
            and not reported("problem.u_min", "problem.u_max")):
        errors.append(f"problem.u_min: need u_min <= u_max, got "
                      f"[{pb.u_min}, {pb.u_max}]")
    # one control would sample a wider control interval at u_min only
    if (pb.catalog is None and pb.u_min < pb.u_max and pb.n_u is None
            and cfg.solver.n_u is None
            and not reported("problem.n_u", "solver.n_u")):
        errors.append("problem.n_u: required when u_min < u_max and no "
                      "solver.n_u is given")
    # the default q_profile, (), cannot run
    if (cfg.simulate is not None and not cfg.simulate.q_profile
            and not reported("simulate:", "simulate.q_profile")):
        errors.append("simulate.q_profile: required, a nonempty list of "
                      "scenario levels")
    # unlike a non-string entry, an unknown tag is named in its message
    errors.extend(f"validate.oracles: unknown tag {tag!r}, expected one of "
                  f"{list(_ORACLE_TAGS)}"
                  for tag in cfg.validate.oracles if tag not in _ORACLE_TAGS)
    # a repeated resolution gives the table no rate between its two rows
    n_x_list = cfg.table.n_x_list if cfg.table is not None else ()
    if len(set(n_x_list)) != len(n_x_list):
        errors.append(f"table.n_x_list: resolutions must be distinct, got "
                      f"{list(n_x_list)}")
    if errors:
        raise ConfigError(errors)
    return cfg


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                [f"JSON parse error at line {exc.lineno}, column {exc.colno}: "
                 f"{exc.msg}"]) from exc
    return parse_config(doc)


def _gamma_set(gb: GammaBlock) -> GammaSet:
    """The volatility set of a gamma block; ValueError says what is wrong."""
    if gb.lo is None or gb.hi is None:
        raise ValueError("needs lo and hi")
    return GammaSet.interval(gb.lo, gb.hi)


def resolve_problem(cfg: RunConfig) -> Tuple[ControlProblem, str, str]:
    """(problem, name, oracle tag); the tag is the last closed-form tag in
    ``validate.oracles`` (it must fit the problem), else "none" if listed,
    else the catalog entry's own tag ("none" for an explicit problem)."""
    pb = cfg.problem
    if pb.catalog is not None:
        entry = catalog_entry(pb.catalog)
        problem, name, own = entry.problem, entry.name, entry.oracle
    else:
        problem, name, own = ControlProblem(
            horizon=pb.T, x_min=pb.x_min, x_max=pb.x_max,
            u_min=pb.u_min, u_max=pb.u_max, n_u=pb.n_u or 1,
            gamma=_gamma_set(pb.gamma), b=pb.b, h=pb.h, sigma=pb.sigma,
            f=pb.f, g=pb.g, phi=pb.phi), "custom", "none"
    tags = cfg.validate.oracles
    closed = [tag for tag in tags if tag in CLOSED_FORMS]
    oracle = closed[-1] if closed else ("none" if "none" in tags else own)
    # a catalog entry's own tag fits it by construction
    if oracle != own and not verify_oracle_tag(problem, oracle):
        raise ConfigError([f"validate.oracles: the closed form {oracle!r} "
                           "does not fit the problem"])
    return problem, name, oracle
