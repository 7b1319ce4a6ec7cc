"""The base of every workload scenario and the field group rpc and
pipeline share.

A scenario is pure data: one frozen dataclass per workload kind, declaring
only the fields that kind reads (``repro.workloads.runner.KINDS`` names the
module and class of each kind, imported when :meth:`Scenario.from_dict`
parses a spec of that kind).  What the kinds share lives here, below both the
runner and :mod:`repro.dataflow.engine`, so each kind's class sits beside
its mechanism.  A field a kind's class lacks is a ``TypeError`` from the
constructor (and ``dataclasses.replace``) and a ``ValueError`` naming the
field and the kind from :meth:`Scenario.from_dict`; every other mistake a
scenario can hold is a ``ValueError`` from ``__post_init__``, never a
failure inside a built cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Optional, get_type_hints

from repro.configs import PPRO_FM2, SPARC_FM1

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.slo import SloSpec

MACHINES = {"sparc": SPARC_FM1, "ppro": PPRO_FM2}

#: Field type -> (the JSON values it takes, what to call them).
_JSON_TYPES = {int: ((int,), "an int"), float: ((int, float), "a number"),
               bool: ((bool,), "true or false"), str: ((str,), "a string"),
               tuple: ((list, tuple), "a list")}


def _json_types(hint) -> tuple[tuple, str]:
    """The JSON values a field annotated ``hint`` takes (``Optional`` adds
    ``null``), and what an error calls them."""
    args = getattr(hint, "__args__", ())
    if type(None) not in args:
        return _JSON_TYPES[hint]
    (inner,) = (arg for arg in args if arg is not type(None))
    types, what = _JSON_TYPES[inner]
    return types + (type(None),), f"{what} or null"


@dataclass(frozen=True)
class Scenario:
    """Everything every workload run depends on, as pure data.  Build a
    kind's own class (``RpcScenario(...)``), or let :meth:`from_dict` pick
    it from a spec's ``"kind"``."""

    name: str
    kind: str
    seed: int = 1
    n_nodes: int = 4
    fm_version: int = 2
    machine: str = "ppro"
    # Run length: records/requests per source or client, or rounds.  A
    # harness scales both on every kind without asking which it reads.
    n_requests: int = 100
    iterations: int = 50
    until_ns: Optional[int] = None   # run guard: TimeoutError past it

    #: The modules this kind's runs import that its own module does not
    #: (numpy's, which only a draw or an array imports): see :meth:`preload`.
    preloads = ()

    def __post_init__(self) -> None:
        own = type(self).__dataclass_fields__["kind"].default
        if self.kind != own:
            raise ValueError(
                f"kind={self.kind!r} does not build a {type(self).__name__}: "
                "construct the kind's own class or use Scenario.from_dict")
        self._choose(machine=tuple(MACHINES), fm_version=(1, 2))
        self._at_least(n_nodes=2, until_ns=1)

    def _choose(self, **choices: tuple) -> None:
        for name, legal in choices.items():
            if getattr(self, name) not in legal:
                raise ValueError(f"{name} must be one of {legal}, "
                                 f"got {getattr(self, name)!r}")

    def _at_least(self, **minimums: int) -> None:
        """Each named field is ``None`` ("off") or at least its minimum."""
        for name, low in minimums.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")

    def machine_params(self):
        """The ``MachineParams`` to build the cluster with."""
        return MACHINES[self.machine]

    def topology(self, machine):
        """The ``(topology, trunk LinkParams)`` to build the cluster with;
        ``(None, None)`` is the single crossbar."""
        return None, None

    def slo_specs(self, n_shards: int) -> tuple[SloSpec, ...]:
        """The SLOs this run's report evaluates: none unless the kind
        keeps time series."""
        return ()

    @classmethod
    def from_dict(cls, spec: dict) -> "Scenario":
        """The scenario a parsed JSON spec describes, as the class of its
        ``"kind"`` (default ``"rpc"``).  Whatever a spec file can get wrong
        before validation proper — not an object, a field its kind lacks,
        no ``name``, a value of the wrong type — is a ``ValueError`` that
        names it."""
        from repro.workloads.runner import kind_class  # kinds subclass this

        if not isinstance(spec, dict):
            raise ValueError("a scenario spec is a JSON object of Scenario "
                             f"fields, got a {type(spec).__name__}")
        kind = spec.get("kind", "rpc")
        cls = kind_class(kind)
        hints = get_type_hints(cls)
        unknown = set(spec) - set(hints)
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)} "
                             f"(kind {kind!r} has no such field)")
        if "name" not in spec:
            raise ValueError("a scenario spec needs a 'name'")
        for key, value in spec.items():
            types, what = _json_types(hints[key])
            if (not isinstance(value, types)
                    or (isinstance(value, bool) and bool not in types)):
                raise ValueError(f"{key} must be {what}, got {value!r}")
        scenario = cls(**spec)
        scenario.preload()
        return scenario

    def preload(self) -> None:
        """Import everything this kind's runs import, now: otherwise an
        import lands on the run's first draw, and a caller that times
        set-up and run apart (``perfbench``, ``*.runinfo.json``) would book
        it to the run."""
        for module in self.preloads:
            import_module(module)


@dataclass(frozen=True)
class ArrivalFields(Scenario):
    """The traffic fields rpc and pipeline share: each client or source
    issues ``n_requests`` of ``req_bytes`` under the ``arrival`` process,
    each carrying ``work_ns`` of demand into a ``queue_capacity``-deep
    queue."""

    arrival: str = "open"
    rate_rps: float = 20_000.0       # open / bursty offered load
    burst_on_ns: int = 200_000       # bursty on/off window
    burst_off_ns: int = 300_000
    req_bytes: int = 64
    work_ns: int = 2_000             # service demand carried per request
    n_keys: int = 512                # request key universe per client
    queue_capacity: int = 16

    #: Arrival gaps and request / record keys are numpy streams.
    preloads = ("numpy.random",)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._choose(arrival=("open", "open-fixed", "closed", "bursty"))

    def arrival_spec(self):
        """The arrival-process spec named by ``self.arrival``."""
        from repro.workloads.arrivals import Bursty, OpenLoop

        if self.arrival == "open":
            return OpenLoop(self.rate_rps)
        if self.arrival == "open-fixed":
            return OpenLoop(self.rate_rps, poisson=False)
        return Bursty(self.rate_rps, self.burst_on_ns, self.burst_off_ns)
