"""One catalog shape for everything an experiment names by string.

An experiment names a scheduling policy (paper Sect. IV), a workload
scenario (Sect. V) and, on a fleet (Sect. VIII), a load balancer.  Each of
the three catalogs is a :class:`Registry` of :class:`Spec` entries:

* :class:`Param` — one declared, documented parameter (name, default,
  units in its doc line);
* :class:`Spec` — a registered entry: its builder plus catalog metadata,
  and :meth:`Spec.validate_params`, which merges parameters over the
  declared defaults and rejects unknown or missing ones;
* :class:`Registry` — a name → spec map that rejects duplicates, lists
  what *is* available when a name is unknown, optionally folds case, and
  imports the modules that register the built-in entries on first use.

Every kind words its failures the same way, with the kind's name filled
in (``policy``, ``scenario``, ``balancer``): an unknown name, an unknown
or missing parameter, a duplicate registration, a wrong value type.

:func:`freeze_pairs` builds the canonical ``(name, value)`` pair form in
which configs store parameters, so they stay hashable and their JSON form
(the cache fingerprint) is one-to-one with their content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

__all__ = [
    "REQUIRED",
    "RUNTIME",
    "Param",
    "Spec",
    "Registry",
    "Pairs",
    "freeze_pairs",
    "require_number",
]


class _Sentinel:
    """A parameter default that is not a value."""

    def __init__(self, label: str) -> None:
        self._label = label

    def __repr__(self) -> str:
        return self._label


#: Default of a parameter the caller must supply.
REQUIRED = _Sentinel("<required>")

#: Default of a parameter filled in at run time when the caller gives
#: none (power-of-d's ``seed`` comes from the experiment's root seed): the
#: parameter is declared and accepted, but not merged into the defaults.
RUNTIME = _Sentinel("<run time>")


@dataclass(frozen=True)
class Param:
    """One declared parameter.

    Attributes
    ----------
    name:
        Keyword-argument name passed to the builder.
    default:
        Default value, or :data:`REQUIRED` / :data:`RUNTIME`.
    doc:
        One-line description **including units** (seconds, calls per
        core, ...), rendered by the CLI listings and the docs catalogs.
    """

    name: str
    default: Any
    doc: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED


@dataclass(frozen=True)
class Spec:
    """A registered entry: builder plus catalog metadata."""

    #: What an entry is: the word in error messages and in the
    #: ``--<kind>-param`` hint.
    kind: ClassVar[str] = "entry"

    name: str
    builder: Callable[..., Any]
    description: str
    #: Paper section the entry reproduces (e.g. ``"IV"``), or
    #: ``"extension"`` for entries beyond the paper.
    paper_section: str = "extension"
    params: Tuple[Param, ...] = ()
    #: Optional validator, called with the merged parameters by
    #: :meth:`validate_params`.  It raises :class:`ValueError` on bad
    #: values or combinations; running here (not in the builder) makes an
    #: invalid config fail at construction, before any simulation time.
    validator: Optional[Callable[[Dict[str, Any]], None]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))

    def param_names(self) -> List[str]:
        return [p.name for p in self.params]

    def defaults(self) -> Dict[str, Any]:
        """Declared defaults (required and run-time parameters omitted)."""
        return {
            p.name: p.default
            for p in self.params
            if p.default is not REQUIRED and p.default is not RUNTIME
        }

    def traits(self) -> List[str]:
        """The bracketed tags of the entry's CLI listing line."""
        return [self.paper_section]

    def validate_params(self, params: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        """Merge *params* over the declared defaults, rejecting unknown
        names and missing required parameters with actionable messages,
        then run the :attr:`validator`."""
        params = dict(params) if params else {}
        declared = self.param_names()
        unknown = sorted(set(params) - set(declared))
        if unknown:
            valid = ", ".join(sorted(declared)) or "(none)"
            raise ValueError(
                f"unknown parameter(s) {unknown} for {self.kind} {self.name!r}; "
                f"valid parameters: {valid}"
            )
        merged = self.defaults()
        merged.update(params)
        missing = sorted(p.name for p in self.params if p.required and p.name not in merged)
        if missing:
            raise ValueError(
                f"{self.kind} {self.name!r} requires parameter(s) {missing} "
                f"(e.g. --{self.kind}-param {missing[0]}=...)"
            )
        if self.validator is not None:
            self.validator(merged)
        return merged


S = TypeVar("S", bound=Spec)


class Registry(Generic[S]):
    """Name → spec map with registration helpers.

    ``fold_case`` makes lookups case-insensitive (``"sept"`` finds
    ``SEPT``); registered names keep their spelling.  ``load`` imports
    the modules whose decorators register the built-in entries.  It runs
    once, at the first lookup, so a registry module has no import cycle
    with the modules that register into it.
    """

    def __init__(
        self,
        spec_type: Type[S],
        plural: str,
        *,
        fold_case: bool = False,
        load: Optional[Callable[[], None]] = None,
    ) -> None:
        self.spec_type = spec_type
        self.plural = plural
        self._fold_case = fold_case
        self._load = load
        self._specs: Dict[str, S] = {}

    def _key(self, name: str) -> str:
        return str(name).upper() if self._fold_case else name

    def _loaded(self) -> Dict[str, S]:
        if self._load is not None:
            load, self._load = self._load, None
            load()
        return self._specs

    def register(self, name: str, **metadata: Any) -> Callable[[Any], Any]:
        """Decorator registering its target as the builder of a new spec
        named *name* (further spec fields as keywords); the target is
        returned unchanged."""

        def decorate(target: Any) -> Any:
            self.add(self.spec_type(name=name, builder=target, **metadata))
            return target

        return decorate

    def add(self, spec: S, *, replace: bool = False) -> S:
        """Register *spec*.  A taken name raises :class:`ValueError` unless
        ``replace`` is set: silent replacement would let two modules fight
        over a name and make results depend on import order."""
        key = self._key(spec.name)
        if key in self._specs and not replace:
            raise ValueError(
                f"{spec.kind} {spec.name!r} is already registered "
                f"(by {self._specs[key].builder.__module__})"
            )
        self._specs[key] = spec
        return spec

    def get(self, name: str) -> S:
        """The spec for *name*; :class:`ValueError` listing the available
        names otherwise."""
        spec = self._loaded().get(self._key(name))
        if spec is None:
            available = ", ".join(self.names()) or "(none registered)"
            raise ValueError(
                f"unknown {self.spec_type.kind} {name!r}; available {self.plural}: {available}"
            )
        return spec

    def names(self) -> List[str]:
        """Sorted names of every registered entry."""
        return sorted(self._loaded())

    def __contains__(self, name: str) -> bool:
        return self._key(name) in self._loaded()

    def __iter__(self) -> Iterator[S]:
        specs = self._loaded()
        return (specs[name] for name in sorted(specs))

    def __len__(self) -> int:
        return len(self._loaded())


def require_number(kind: str, owner: str, name: str, value: Any) -> float:
    """Validator helper: *value* as a float, :class:`ValueError` naming
    parameter *name* of *kind* *owner* otherwise (bools are rejected too:
    ``True`` is not a weight)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{kind} {owner!r} parameter {name!r} must be a number, got {value!r}")
    return float(value)


#: Canonical form of a parameter field: name-sorted ``(name, value)`` pairs.
Pairs = Tuple[Tuple[str, Any], ...]


def freeze_pairs(
    params: Union[Mapping[str, Any], Sequence[Sequence[Any]], None], what: str
) -> Pairs:
    """Normalise a mapping or pair sequence to name-sorted, hashable
    ``(name, value)`` tuples: one canonical form per content.

    Duplicate names resolve last-wins (like repeated CLI flags) before
    sorting, and sorting compares names only, never values.  Lists become
    tuples, so the lists-of-lists of a JSON round trip freeze back to the
    stored form.  Values other than JSON scalars and lists raise
    :class:`ValueError` naming the *what* parameter.
    """
    if not params:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    frozen = {str(name): _freeze(value, what, str(name)) for name, value in items}
    return tuple(sorted(frozen.items()))


def _freeze(value: Any, what: str, name: str) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item, what, name) for item in value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ValueError(
        f"{what} parameter {name!r} has unsupported value type "
        f"{type(value).__name__}; use JSON scalars or lists"
    )
