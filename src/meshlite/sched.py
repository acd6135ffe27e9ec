"""Deterministic cooperative scheduler for the simulated processes.

Each logical process is a generator. It yields scheduling instructions:

    PAUSE               voluntary switch point
    ("wait", what)      wait on what, a Barrier or a ChannelSlot, which
                        parked the process (unless the wait is over) and wakes it

The scheduler picks the next process among those not parked with a seeded
RNG, so different seeds explore different interleavings while a fixed seed
replays exactly; once all are parked, the run faults where they wait.
Pending asynchronous transfers make progress at seeded switch points and
are all drained by an explicit sync, and by the end of the run.
"""

import random
from bisect import bisect_left, insort
from typing import NamedTuple

from .errors import DeadlockError, RuntimeFault

PAUSE = ("pause",)
ASYNC_PROGRESS = 0.25  # chance that a step also delivers the oldest pending transfer


class Collective(NamedTuple):
    """What a rank arrives at a barrier for.

    `node` (the statement) and `operands` (the arrays) compare by
    identity; `label` is how the collective is named in errors.
    """

    kind: str
    label: str
    node: object = None
    operands: tuple = ()

    def same_as(self, other) -> bool:
        return (self.kind == other.kind and self.node is other.node
                and len(self.operands) == len(other.operands)
                and all(a is b for a, b in zip(self.operands, other.operands)))

    def where(self) -> str:
        return self.label + _at(self.node)


class Barrier:
    """Barrier for all simulated processes, where every arrival but the last
    is parked. Each names its collective; the last checks that all named the
    same one, runs the optional action on behalf of all, then wakes the rest.
    """

    def __init__(self, n, scheduler):
        self.n = n
        self.scheduler = scheduler
        self.arrivals = []  # (rank, Collective)

    def wait(self, rank, collective, action=None):
        self.arrivals.append((rank, collective))
        if len(self.arrivals) < self.n:
            self.scheduler.park(rank, self, collective.node)
            yield ("wait", self)
            return
        arrivals, self.arrivals = self.arrivals, []
        if any(not c.same_as(collective) for _, c in arrivals):
            raise _mismatch(arrivals, rank, collective)
        if action is not None:
            action()
        for r, _ in arrivals[:-1]:
            self.scheduler.wake(r)

    def waits(self, rank):
        return f"waits at {dict(self.arrivals)[rank].label}"


def _at(node):
    line = getattr(node, "line", None)
    return "" if line is None else f" ({line}:{node.column})"


def _ranks(ranks):
    return f"rank{'s' if len(ranks) > 1 else ''} {', '.join(map(str, sorted(ranks)))}"


def _fault(cls, message, rank, node):
    return cls(message, rank=rank, line=getattr(node, "line", None),
               column=getattr(node, "column", None))


def _mismatch(arrivals, rank, collective):
    """The fault on rank at collective: the arrivals name different ones."""
    groups = []  # (Collective, ranks) in order of first arrival
    for r, c in arrivals:
        for g, ranks in groups:
            if g.same_as(c):
                ranks.append(r)
                break
        else:
            groups.append((c, [r]))
    sides = "; ".join(f"{_ranks(ranks)} reached {c.where()}" for c, ranks in groups)
    return _fault(RuntimeFault, f"collective mismatch: {sides}", rank, collective.node)


class ChannelSlot:
    """Rendezvous cell for the link src -> dst of the channel array `name`."""

    def __init__(self, scheduler, name, src, dst):
        self.scheduler = scheduler
        self.name = name
        self.src = src
        self.dst = dst
        self.full = False
        self.value = None

    def send(self, value, node):
        """Fill the slot (empty, as the link's one sender waited for its last
        value), wake a receiver parked here and wait parked until it is taken."""
        self.value = value
        self.full = True
        if self.scheduler.waiting.get(self.dst, (None,))[0] is self:
            self.scheduler.wake(self.dst)
        self.scheduler.park(self.src, self, node)
        yield ("wait", self)

    def recv(self, node):
        """The value sent, parked until there is one; yields once even if it is there."""
        if not self.full:
            self.scheduler.park(self.dst, self, node)
        yield ("wait", self)
        value = self.value
        self.value = None
        self.full = False
        self.scheduler.wake(self.src)
        return value

    def waits(self, rank):
        verb = "sends" if rank == self.src else "receives"
        return f"{verb} {self.name!r} over channel {self.src}->{self.dst}"


class PendingTransfer:
    """An asynchronous channel payload not yet visible at its target."""

    def __init__(self, tag, deliver):
        self.tag = tag
        self.deliver = deliver  # callable applying the write + recv event


class Scheduler:
    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        self.pending = []
        self.waiting = {}  # parked rank -> (what it waits for, statement)
        self.runnable = None  # while `run` drives them, the ranks not parked, in order

    def park(self, rank, what, node):
        self.waiting[rank] = (what, node)
        if self.runnable is not None:
            del self.runnable[bisect_left(self.runnable, rank)]

    def wake(self, rank):
        del self.waiting[rank]
        if self.runnable is not None:
            insort(self.runnable, rank)

    def post_async(self, transfer: PendingTransfer):
        self.pending.append(transfer)

    def drain_async(self, tag=None):
        """Complete pending transfers; with tag, only those so tagged."""
        keep = []
        for t in self.pending:
            if tag is None or t.tag == tag:
                t.deliver()
            else:
                keep.append(t)
        self.pending = keep

    def run(self, generators):
        """Drive process generators to completion, resuming one seeded choice
        of the live ones not parked, in rank order, per step; what a step
        yields is ignored. Once all have finished, delivers what is still
        pending. Raises the first process failure as-is."""
        runnable = self.runnable = list(range(len(generators)))
        rng = self.rng
        while runnable:
            rank = rng.choice(runnable)
            try:
                next(generators[rank])
            except StopIteration:
                runnable.remove(rank)
                continue
            if self.pending and rng.random() < ASYNC_PROGRESS:
                self.pending.pop(0).deliver()
        if self.waiting:  # the live ranks, all parked
            raise self.deadlock(len(generators))
        self.drain_async()

    def deadlock(self, nprocs):
        """The fault when every live rank is parked, located at the first
        parked on a channel, or else the first parked."""
        parked = sorted(self.waiting.items())
        sides = [f"rank {r} {what.waits(r)}{_at(node)}" for r, (what, node) in parked]
        finished = [r for r in range(nprocs) if r not in self.waiting]
        if finished:
            sides.append(f"{_ranks(finished)} finished the program")
        rank, (_, node) = next((p for p in parked if isinstance(p[1][0], ChannelSlot)),
                               parked[0])
        return _fault(DeadlockError, "all processes blocked: " + "; ".join(sides), rank, node)
