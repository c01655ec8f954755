"""Action-container lifecycle.

States::

    CREATING ──▶ HOT ⟷ PAUSED        (warm: HOT or PAUSED)
                  │        │
                  ▼        ▼
                DEAD     DEAD         (evicted / removed)

A *hot* container has recently run a call and can accept another one
immediately; after :attr:`~repro.node.config.NodeConfig.pause_grace_s` of
idleness it is paused (freeing its CPU cgroup but keeping memory).  A
paused container needs a daemon ``unpause`` before running again.
"""

from __future__ import annotations

import enum
from itertools import count
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.functions import FunctionSpec

__all__ = ["Container", "ContainerState"]

_ids = count(1)


class ContainerState(enum.Enum):
    CREATING = "creating"
    HOT = "hot"
    PAUSING = "pausing"
    PAUSED = "paused"
    DEAD = "dead"


class Container:
    """One action container bound to a function (or a prewarm shell)."""

    __slots__ = (
        "cid",
        "function",
        "memory_mb",
        "state",
        "busy",
        "created_at",
        "last_used",
        "calls_served",
        "pause_version",
        "stamp",
    )

    def __init__(
        self,
        function: Optional["FunctionSpec"],
        memory_mb: int,
        created_at: float,
    ) -> None:
        self.cid = next(_ids)
        #: None for an unspecialised prewarm container.
        self.function = function
        self.memory_mb = memory_mb
        self.state = ContainerState.CREATING
        #: True while executing a call.
        self.busy = False
        self.created_at = created_at
        self.last_used = created_at
        self.calls_served = 0
        #: Monotone counter invalidating superseded pause timers.
        self.pause_version = 0
        #: Pool-local join counter: stamps rise in the order containers
        #: join their pool's container list (set by the pool; a prewarm
        #: shell joins when it is specialised).
        self.stamp = 0

    @property
    def is_warm(self) -> bool:
        """Initialized and idle (HOT, PAUSING or PAUSED), i.e. reusable."""
        return not self.busy and self.state in (
            ContainerState.HOT,
            ContainerState.PAUSING,
            ContainerState.PAUSED,
        )

    @property
    def is_prewarm(self) -> bool:
        return self.function is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fname = self.function.name if self.function else "<prewarm>"
        return f"<Container #{self.cid} {fname} {self.state.value}{' busy' if self.busy else ''}>"
