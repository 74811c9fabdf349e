"""The fleet resource model: 8-GPU servers with shaped placement.

A :class:`Fleet` tracks per-server free-GPU counts for a homogeneous
cluster of multi-GPU servers (PAI's production fleet is built from
8-GPU machines).  Placement is *architecture shaped*, mirroring the
Table II deployment taxonomy:

* local architectures (1w1g, 1wng, AllReduce-Local) are gang-scheduled
  onto **one** server (first-fit over per-server free counts);
* PS/Worker spreads one worker GPU per server, so a wide PS job needs
  at least as many servers as workers;
* packed cluster architectures (AllReduce-Cluster, PEARL) fill servers
  greedily up to their GPU count.

Because local gangs need *contiguous* per-server capacity, a fleet can
hold many free GPUs yet be unable to start a job -- the fragmentation
the telemetry in :mod:`repro.sched.outcomes` tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from ..core.architectures import Architecture
from ..trace.schema import JobRecord

__all__ = ["Fleet", "Placement", "shape_fits"]


def shape_fits(
    architecture: Architecture, num_gpus: int, caps: Tuple[int, int, int]
) -> bool:
    """Whether a job of this shape fits capacity summarized by ``caps``.

    ``caps`` is ``(largest_free_block, servers_with_free, free_gpus)``
    (see :meth:`Fleet.feasibility_caps`).  The placement shapes reduce
    exactly to these: a local gang needs one server block at least as
    wide, a PS/Worker job one partially free server per worker, and a
    packed cluster shape only the free pool.  This is the fleet's one
    feasibility predicate: :meth:`Fleet.fits`, :meth:`Fleet.can_ever_place`
    and the engine's queue screen all ask it.
    """
    largest_block, servers_with_free, free_gpus = caps
    if architecture.is_local:
        return num_gpus <= largest_block
    if architecture is Architecture.PS_WORKER:
        return num_gpus <= servers_with_free
    return num_gpus <= free_gpus


@dataclass(frozen=True)
class Placement:
    """GPUs held by one running job, as per-server counts."""

    gpus_by_server: Tuple[int, ...]

    @property
    def total_gpus(self) -> int:
        """GPUs held across all servers."""
        return sum(self.gpus_by_server)

    @property
    def servers_used(self) -> int:
        """Servers holding at least one of the job's GPUs."""
        return sum(1 for count in self.gpus_by_server if count > 0)


class Fleet:
    """Per-server free-GPU accounting for a homogeneous cluster.

    Free counts live in one ``int64`` array, so the placement scans --
    first-fit for local gangs, greedy left-to-right fill for cluster
    shapes -- are single NumPy operations rather than per-server Python
    loops.  On the multi-thousand-server fleets the scheduler
    experiments sweep, the scan is the scheduler's hot path.
    """

    def __init__(self, num_servers: int, gpus_per_server: int = 8) -> None:
        if num_servers < 1 or gpus_per_server < 1:
            raise ValueError("cluster dimensions must be positive")
        self.num_servers = num_servers
        self.gpus_per_server = gpus_per_server
        self._free: np.ndarray = np.full(
            num_servers, gpus_per_server, dtype=np.int64
        )

    # ---- capacity accounting -----------------------------------------

    @property
    def total_gpus(self) -> int:
        """GPUs in the fleet."""
        return self.num_servers * self.gpus_per_server

    @property
    def free_gpus(self) -> int:
        """Currently unallocated GPUs."""
        return int(self._free.sum())

    @property
    def busy_gpus(self) -> int:
        """Currently allocated GPUs."""
        return self.total_gpus - self.free_gpus

    @property
    def free_by_server(self) -> Tuple[int, ...]:
        """Free GPU count per server."""
        return tuple(int(free) for free in self._free)

    @property
    def largest_free_block(self) -> int:
        """Largest single-server free block (bounds local gang size)."""
        return int(self._free.max())

    def utilization(self) -> float:
        """Fraction of GPUs currently allocated."""
        return self.busy_gpus / self.total_gpus

    def fragmentation(self) -> float:
        """How scattered the free capacity is, in [0, 1].

        Zero when every free GPU sits in one server block (a local gang
        as large as the free pool could start); approaches one when the
        free GPUs are spread one per server.  Zero on a fully busy
        fleet, where the notion is vacuous.
        """
        free = self.free_gpus
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_block / free

    def clone(self) -> "Fleet":
        """An independent copy, for trial placements."""
        copy = Fleet(self.num_servers, self.gpus_per_server)
        copy._free = self._free.copy()
        return copy

    def feasibility_caps(self) -> Tuple[int, int, int]:
        """``(largest_free_block, servers_with_free, free_gpus)`` now:
        the input of :func:`shape_fits`."""
        free = self._free
        return (
            int(free.max()),
            int(np.count_nonzero(free)),
            int(free.sum()),
        )

    # ---- placement ---------------------------------------------------

    def _shape(
        self, architecture: Architecture, num_gpus: int
    ) -> Optional[np.ndarray]:
        """Per-server counts for a placement, or ``None`` if it does
        not fit right now.  Does not mutate the fleet.

        Both shapes reproduce the greedy left-to-right scan exactly:
        first-fit picks the lowest-indexed server with room, and the
        cluster fill takes ``min(free, cap)`` per server until the
        running total (a cumulative sum) reaches the request.
        """
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        if architecture.is_local:
            fits_here = self._free >= num_gpus
            if not fits_here.any():
                return None
            taken = np.zeros(self.num_servers, dtype=np.int64)
            taken[int(fits_here.argmax())] = num_gpus
            return taken
        per_server_cap = (
            1 if architecture is Architecture.PS_WORKER else self.gpus_per_server
        )
        grab_cap = np.minimum(self._free, per_server_cap)
        cumulative = np.cumsum(grab_cap)
        if cumulative[-1] < num_gpus:
            return None
        stop = int(np.searchsorted(cumulative, num_gpus))
        taken = np.zeros(self.num_servers, dtype=np.int64)
        taken[: stop + 1] = grab_cap[: stop + 1]
        taken[stop] -= int(cumulative[stop]) - num_gpus
        return taken

    def fits(self, architecture: Architecture, num_gpus: int) -> bool:
        """Whether the job could be placed on the fleet right now."""
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        return shape_fits(architecture, num_gpus, self.feasibility_caps())

    def any_fits(self, jobs: Iterable[JobRecord]) -> bool:
        """Whether any of ``jobs`` could be placed right now.

        The caps are taken once, however many jobs are asked about.
        """
        caps = self.feasibility_caps()
        return any(
            shape_fits(job.workload_type, job.num_cnodes, caps) for job in jobs
        )

    def can_ever_place(self, architecture: Architecture, num_gpus: int) -> bool:
        """Whether the job fits an *empty* fleet of this geometry."""
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        empty = (self.gpus_per_server, self.num_servers, self.total_gpus)
        return shape_fits(architecture, num_gpus, empty)

    def try_place(
        self, architecture: Architecture, num_gpus: int
    ) -> Optional[Placement]:
        """Allocate GPUs in the architecture's shape, or return ``None``."""
        taken = self._shape(architecture, num_gpus)
        if taken is None:
            return None
        self._free -= taken
        return Placement(gpus_by_server=tuple(int(grab) for grab in taken))

    def release(self, placement: Placement) -> None:
        """Return a placement's GPUs to the free pool."""
        if len(placement.gpus_by_server) != self.num_servers:
            raise ValueError("placement does not match this fleet's geometry")
        released = self._free + np.asarray(
            placement.gpus_by_server, dtype=np.int64
        )
        if bool((released > self.gpus_per_server).any()):
            raise ValueError("release would exceed server capacity")
        self._free = released
