"""Deterministic cooperative scheduler for the simulated processes.

Each logical process is a generator. It yields scheduling instructions:

    PAUSE               voluntary switch point
    ("wait", predicate) block until predicate() becomes true

The scheduler picks the next runnable process with a seeded RNG, so
different seeds explore different interleavings while a fixed seed
replays exactly. Pending asynchronous transfers make progress at seeded
switch points and are all drained by an explicit sync.
"""

import random
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
        line = getattr(self.node, "line", None)
        if line is None:
            return self.label
        return f"{self.label} ({line}:{self.node.column})"


class Barrier:
    """Generation-counting barrier for all simulated processes.

    Each arrival names its collective. The last rank to arrive checks
    that every rank named the same one, runs the optional action on
    behalf of all of them, and only then releases the others. Once a
    rank has finished the program no barrier can complete: an arrival
    then faults, on the first rank waiting, at its collective.
    """

    def __init__(self, n):
        self.n = n
        self.arrivals = []  # (rank, Collective)
        self.generation = 0
        self.finished = []  # ranks that ran the whole program

    def wait(self, rank, collective, action=None):
        gen = self.generation
        self.arrivals.append((rank, collective))
        if self.finished:
            self.stranded()
        if len(self.arrivals) == self.n:
            arrivals, self.arrivals = self.arrivals, []
            if any(not c.same_as(collective) for _, c in arrivals):
                raise _mismatch(arrivals, rank, collective)
            if action is not None:
                action()
            self.generation += 1
            return
        yield ("wait", lambda: self.generation != gen)

    def finish(self, rank):
        """Rank ran the whole program."""
        self.finished.append(rank)
        if self.arrivals:
            self.stranded()

    def stranded(self):
        """Fault: ranks wait here, but others finished the program."""
        rank, collective = self.arrivals[0]
        raise _mismatch(self.arrivals, rank, collective,
                        f"; {_ranks(self.finished)} finished the program")


def _ranks(ranks):
    return f"rank{'s' if len(ranks) > 1 else ''} {', '.join(map(str, sorted(ranks)))}"


def _mismatch(arrivals, rank, collective, also=""):
    """The fault on rank at collective: the arrivals name different
    collectives, or `also` says what keeps them from completing."""
    groups = []  # (Collective, ranks) in order of first arrival
    for r, c in arrivals:
        for g, ranks in groups:
            if g.same_as(c):
                ranks.append(r)
                break
        else:
            groups.append((c, [r]))
    sides = "; ".join(f"{_ranks(ranks)} reached {c.where()}" for c, ranks in groups)
    node = collective.node
    return RuntimeFault(f"collective mismatch: {sides}{also}", rank=rank,
                        line=getattr(node, "line", None),
                        column=getattr(node, "column", None))


class ChannelSlot:
    """Rendezvous cell for one point-to-point link."""

    def __init__(self):
        self.full = False
        self.value = None

    def send(self, value):
        """Fill the slot and wait until the value is taken. The slot is
        empty here: the link's one sender waited for its last value."""
        self.value = value
        self.full = True
        yield ("wait", lambda: not self.full)

    def recv(self):
        yield ("wait", lambda: self.full)
        value = self.value
        self.value = None
        self.full = False
        return value


class PendingTransfer:
    """An asynchronous channel payload not yet visible at its target."""

    def __init__(self, tag, deliver):
        self.tag = tag
        self.deliver = deliver  # callable applying the write + recv event


class Scheduler:
    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        self.pending = []

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
        """Drive process generators to completion.

        Raises the first process failure as-is and reports a deadlock if
        every unfinished process is blocked with nothing left to deliver.
        The live processes stay in rank order; while none is blocked they
        are the runnable list as they stand, otherwise every waiting
        predicate is polled once per step, in rank order.
        """
        live = [_Process(r, g) for r, g in enumerate(generators)]
        blocked = 0  # live processes holding a wait predicate
        rng = self.rng
        while live:
            if blocked:
                runnable = [p for p in live if p.waiting is None or p.waiting()]
                if not runnable:
                    if self.pending:
                        self.drain_async()
                        continue
                    ranks = ", ".join(str(p.rank) for p in live)
                    raise DeadlockError(f"all processes blocked (ranks {ranks})")
            else:
                runnable = live
            proc = rng.choice(runnable)
            if proc.waiting is not None:
                proc.waiting = None
                blocked -= 1
            try:
                instr = next(proc.gen)
            except StopIteration:
                live.remove(proc)
                continue
            if instr is not None and instr[0] == "wait":
                proc.waiting = instr[1]
                blocked += 1
            if self.pending and rng.random() < ASYNC_PROGRESS:
                self.pending.pop(0).deliver()


class _Process:
    """One process generator as Scheduler.run tracks it."""

    __slots__ = ("rank", "gen", "waiting")

    def __init__(self, rank, gen):
        self.rank = rank
        self.gen = gen
        self.waiting = None  # predicate the process is blocked on
