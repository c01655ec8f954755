"""Worker-node substrate: containers, memory, docker daemon, invokers.

This package models a single OpenWhisk worker node (an *invoker* plus its
action containers) at the level of detail the paper's evaluation depends
on:

* :mod:`repro.node.config` — all calibration knobs (:class:`NodeConfig`);
* :mod:`repro.node.docker` — the Docker daemon as a serialized priority
  server for container operations (create/unpause/pause/remove), the
  node-wide bottleneck that makes container management dominate under
  load;
* :mod:`repro.node.container` / :mod:`repro.node.memory` /
  :mod:`repro.node.pool` — container lifecycle (cold → warm → hot → paused
  → evicted), memory-pool accounting, and the warm/prewarm pools with LRU
  eviction;
* :mod:`repro.node.invoker` — the node lifecycle both invokers share, and
  the paper's invoker: priority queue + at most ``cores`` busy
  containers, each pinned to one core;
* :mod:`repro.node.baseline` — the stock OpenWhisk invoker: FIFO with
  greedy container creation, memory-bounded concurrency and
  memory-proportional CPU shares (OS-level preemption).
"""

from repro.node.config import NodeConfig
from repro.node.container import Container, ContainerState
from repro.node.docker import DockerDaemon
from repro.node.invoker import Invoker
from repro.node.baseline import BaselineInvoker
from repro.node.memory import MemoryPool
from repro.node.pool import ContainerPool

__all__ = [
    "BaselineInvoker",
    "Container",
    "ContainerPool",
    "ContainerState",
    "DockerDaemon",
    "Invoker",
    "MemoryPool",
    "NodeConfig",
]
