"""The sweep skeleton: each sweep is a declaration, one code path runs it.

Every sweep in this repo has the same shape — a list of *scenarios*
(one fault rate, one load multiplier, one replication factor), each
fully determined by a parameter dict and a seed, whose outcomes are
merged in a fixed order into a result the CLI prints and serializes.
A sweep module therefore writes only what is particular to it:

* a module-level ``scenario(params, seed) -> point dict`` — the pickling
  contract: it is what crosses the process-pool boundary of
  :func:`repro.sweep.run_sweep`;
* a frozen ``Point`` dataclass describing one scenario's outcome;
* a :class:`Sweep` declaration: the ordered :class:`Param` list (default,
  optional CLI flag, validation), the axis the sweep walks
  (:func:`walk`, or a hook for plans that are not a single axis), the
  meta keys, and the report's title, columns and footer.

From the declaration, :class:`Sweep` derives ``plan()`` (validated
parameters → :class:`SweepPlan` with every scenario's seed fixed in the
parent), ``assemble()`` (point dicts → :class:`SweepResult`, in plan
order, rendered by ``format_report()``) and ``run_serial()`` (the
``jobs=1`` path, which the modules export as ``run``); :mod:`repro.cli`
derives the
``repro <sweep>`` subcommand from the same parameter list.  Adding a
sweep::

    @dataclass(frozen=True)
    class EchoPoint:
        label: str
        rate: float

    def scenario(params, seed):
        return asdict(EchoPoint(label=f"rate-{params['rate']:g}",
                                rate=params["rate"]))

    SWEEP = register_sweep(Sweep(
        name="echo", description="echo each rate back", scenario=scenario,
        point=EchoPoint, axis=walk("rates", "rate", "rate-{:g}"),
        params=(Param("rates", (0.0, 8.0), "--rates", "fault rates"),),
        title="Echo", columns=(("rate", "{p.rate:g}"),)))
    run = SWEEP.run_serial
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..analysis.tables import render_table

__all__ = [
    "Param",
    "ScenarioSpec",
    "SweepPlan",
    "SweepResult",
    "Sweep",
    "walk",
    "register_sweep",
    "get_sweep",
    "registered_sweeps",
]

#: A scenario function: ``(params, seed) -> point dict``.
Scenario = Callable[[Dict[str, Any], int], Dict[str, Any]]

#: An axis hook: resolved parameters (a private copy it may consume) ->
#: ``(label, scenario params)`` per scenario, in canonical order.
Axis = Callable[[Dict[str, Any]], Iterable[Tuple[str, Dict[str, Any]]]]


@dataclass(frozen=True)
class ScenarioSpec:
    """One unit of sweep work: ``fn(params, seed) -> point dict``.

    ``fn`` must be a module-level callable and ``params`` a dict of
    picklable values — the spec is what crosses the process-pool
    boundary, so closures and locally-defined functions are rejected by
    the ``sweeps`` lint (``tools/check_sweeps.py``).  ``label`` names
    the scenario in reports and error messages.
    """

    fn: Scenario
    params: Dict[str, Any]
    seed: int
    label: str

    def execute(self) -> Dict[str, Any]:
        """Run the scenario in this process; returns its point dict."""
        return self.fn(self.params, self.seed)


@dataclass(frozen=True)
class SweepPlan:
    """The canonical scenario order plus run-level assembler metadata."""

    scenarios: Tuple[ScenarioSpec, ...]
    meta: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.scenarios)


@dataclass(frozen=True)
class Param:
    """One sweep parameter: its default, CLI flag and validation.

    ``flag`` (e.g. ``"--window"``) exposes the parameter on the sweep's
    ``repro`` subcommand; the flag's type follows the default (a tuple
    parses comma-separated items, a bool becomes a switch that flips
    it) unless ``parse`` converts the text.  ``positive`` demands a
    value (or every item) > 0, ``choices`` a member; parameters sharing
    a ``group`` are mutually exclusive on the command line.
    """

    name: str
    default: Any
    flag: Optional[str] = None
    help: str = ""
    metavar: Optional[str] = None
    choices: Optional[Tuple[Any, ...]] = None
    parse: Optional[Callable[[str], Any]] = None
    positive: bool = False
    group: Optional[str] = None

    def coerce(self, value: Any) -> Any:
        """``value`` (a Python literal) in the type the flag would parse.

        A float accepts an int and a tuple's items follow its default's
        first item (a scalar becomes a one-item tuple), so ``4`` and
        ``(0,)`` land as ``4.0`` and ``(0.0,)`` exactly as ``--window 4``
        and ``--rates 0`` do; ``parse`` converts text.  Raises ValueError
        for a value of another type.
        """
        default = self.default
        if self.parse is not None and isinstance(value, str):
            return self.parse(value)
        if isinstance(default, tuple):
            items = value if isinstance(value, (tuple, list)) else (value,)
            return tuple(self._as(type(default[0]), item) for item in items)
        if default is None:
            return value
        return self._as(type(default), value)

    def _as(self, kind: type, value: Any) -> Any:
        if kind is float and type(value) is int:
            return float(value)
        if type(value) is not kind:
            raise ValueError(f"{self.name} expects {kind.__name__}, got {value!r}")
        return value

    def _check(self, value: Any) -> None:
        items = value if isinstance(value, (tuple, list)) else (value,)
        if self.positive and not all(item > 0 for item in items):
            raise ValueError(f"{self.name} must be positive, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"{self.name} must be one of "
                             f"{', '.join(map(repr, self.choices))}, got {value!r}")


def walk(over: str, key: str, label: str,
         convert: Optional[Callable[[Any], Any]] = None) -> Axis:
    """The single-axis plan: one scenario per item of list param ``over``.

    Each item (after ``convert``) becomes scenario param ``key`` and is
    formatted into ``label``; every other parameter is shared.
    """
    def axis(params: Dict[str, Any]):
        for value in params.pop(over):
            value = value if convert is None else convert(value)
            yield label.format(value), {**params, key: value}
    return axis


class SweepResult:
    """A sweep's assembled result: ``points`` plus its run-level meta.

    Meta keys read as attributes (``result.window_s``); ``to_dict()`` is
    ``{**meta, "points": [...]}`` and ``to_json()`` the repo-wide sweep
    JSON convention (sorted keys, 2-space indent).
    """

    def __init__(self, sweep: Sweep, points: List[Any], meta: Mapping[str, Any]):
        self.sweep = sweep
        self.points = points
        self.meta = dict(meta)

    def __getattr__(self, name: str) -> Any:
        meta = self.__dict__.get("meta", {})
        if name in meta:
            return meta[name]
        raise AttributeError(name)

    def to_dict(self) -> dict:
        return {**self.meta, "points": [asdict(p) for p in self.points]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def format_report(self) -> str:
        """The sweep's title, one table row per point, then its footer."""
        sweep = self.sweep
        rows = [[cell.format(p=p) for _, cell in sweep.columns]
                for p in self.points]
        table = render_table([header for header, _ in sweep.columns], rows,
                             title=sweep.title.format(**self.meta))
        return f"{table}\n{sweep.footer}"


@dataclass(frozen=True)
class Sweep:
    """A sweep declaration; ``plan``/``assemble``/report derive from it.

    ``axis`` turns the resolved parameters into scenarios (see
    :func:`walk`); ``meta`` names the parameters recorded on the result
    (``seed`` always is).  ``title`` is formatted with the meta,
    ``columns`` are ``(header, template)`` pairs formatted with ``p=``
    each point, and ``footer`` follows the table.  ``command`` is the
    ``repro`` subcommand when it differs from ``name``.
    """

    name: str
    description: str
    scenario: Scenario
    point: type
    axis: Axis
    params: Tuple[Param, ...] = ()
    meta: Tuple[str, ...] = ()
    title: str = ""
    columns: Tuple[Tuple[str, str], ...] = ()
    footer: str = ""
    command: Optional[str] = None

    def plan(self, seed: int = 0, **overrides: Any) -> SweepPlan:
        """Validate the parameters and fix the canonical scenario order."""
        known = {param.name for param in self.params}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValueError(f"sweep {self.name!r} has no parameter "
                             f"{', '.join(unknown)} (known: {', '.join(sorted(known))})")
        params = {}
        for param in self.params:
            params[param.name] = overrides.get(param.name, param.default)
            param._check(params[param.name])
        scenarios = tuple(
            ScenarioSpec(fn=self.scenario, params=point, seed=seed, label=label)
            for label, point in self.axis(dict(params))
        )
        meta = {key: params[key] for key in self.meta}
        return SweepPlan(scenarios=scenarios, meta={**meta, "seed": seed})

    def assemble(self, points: List[Dict[str, Any]],
                 meta: Mapping[str, Any]) -> SweepResult:
        """Rebuild the typed result from point dicts, in plan order."""
        return SweepResult(self, [self.point(**point) for point in points], meta)

    def run_serial(self, **kwargs: Any) -> SweepResult:
        """Plan + execute in-process + assemble — the ``jobs=1`` path."""
        plan = self.plan(**kwargs)
        return self.assemble([spec.execute() for spec in plan.scenarios], plan.meta)


#: name -> Sweep, populated by each sweep module at import time.
_REGISTRY: Dict[str, Sweep] = {}


def register_sweep(sweep: Sweep) -> Sweep:
    """Register ``sweep`` (idempotent per name; returns it for assignment)."""
    existing = _REGISTRY.get(sweep.name)
    if existing is not None and existing is not sweep:
        raise ValueError(f"sweep {sweep.name!r} is already registered")
    _REGISTRY[sweep.name] = sweep
    return sweep


def get_sweep(name: str) -> Sweep:
    """The registered sweep, or a KeyError naming what *is* registered."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r} (registered: {', '.join(sorted(_REGISTRY))})"
        ) from None


def registered_sweeps() -> Dict[str, Sweep]:
    """A snapshot of the registry (name -> Sweep), insertion-ordered."""
    return dict(_REGISTRY)
