"""Scheduler.run against the reference scheduler loop in conftest.

Both drive the same programs from the same seed. Every process generator
is wrapped so that each resume logs its rank; each park and each wake
logs the rank, and each asynchronous delivery logs its tag. The logs,
the final state and any fault must be equal.
"""

import pytest

from conftest import buffers_of, checked_corpus, reference_schedule
from meshlite import check_program, interp, parse
from meshlite.errors import MeshError
from meshlite.fixtures import generate_image
from meshlite.sched import PendingTransfer, Scheduler
from test_compiler import communicating_program

PROCS = (1, 2, 3, 4, 16, 64)
SEEDS = (0, 7919, 1, 42, 65537)

# An async transfer posted before the ranks block for good: some schedules
# leave it pending when the run faults.
ASYNC_THEN_DEADLOCK = """
var a : Int :: allocated[single[on[0]]] :: channel[2,0] :: async;
var c : Int :: allocated[single[on[0]]] :: channel[1,0];
var b : Int :: allocated[single[on[2]]];
var d : Int :: allocated[single[on[1]]];
proc 2 { b := 3 };
a := b;
proc 0 { c := d };
"""

# Two async links, the first synced by name; the crossed assignments after
# them do not match either link and fall back to one-sided gets, and the
# closing `sync` drains whatever is still pending.
ASYNC_SYNCS = """
var a : Int :: allocated[single[on[0]]] :: channel[1,0] :: async;
var e : Int :: allocated[single[on[0]]] :: channel[2,0] :: async;
var b : Int :: allocated[single[on[1]]];
var f : Int :: allocated[single[on[2]]];
var x;
proc 1 { b := 5 };
proc 2 { f := 6 };
a := b;
e := f;
sync a;
x := a;
e := b;
a := f;
sync;
x := x + a + e;
"""

# An async transfer still pending when every rank has finished: the end of
# the run delivers it.
ASYNC_AT_END = """
var a : Int :: allocated[single[on[0]]] :: channel[1,0] :: async;
var b : Int :: allocated[single[on[1]]];
proc 1 { b := 5 };
a := b;
"""

HALF_GUARDED = """
var a : Int :: allocated[single[on[0]]] :: channel[2,0];
var b : Int :: allocated[single[on[2]]];
proc 0 { a := b };
"""

PROGRAMS = {
    **{name: None for name in ("fft2d.mesh", "fft2d_arraydist.mesh", "onesided.mesh",
                               "channel.mesh", "channel_async.mesh")},
    "async-then-deadlock": ASYNC_THEN_DEADLOCK,
    "async-syncs": ASYNC_SYNCS,
    "async-at-end": ASYNC_AT_END,
    "half-guarded": HALF_GUARDED,
    **{f"communicating-{seed}": communicating_program(seed, 2) for seed in range(4)},
}


def _logged(log, rank, gen):
    """gen as the scheduler sees it, logging each resume."""
    while True:
        log.append(("step", rank))
        try:
            instr = next(gen)
        except StopIteration:
            return
        yield instr


def schedule(checked, nprocs, seed, workdir, drive):
    """(log, outcome) of one run with `drive` in place of Scheduler.run."""
    log = []

    def run(scheduler, generators):
        post = scheduler.post_async

        def post_logged(transfer):
            def deliver():
                log.append(("deliver", transfer.tag))
                transfer.deliver()
            post(PendingTransfer(transfer.tag, deliver))

        scheduler.post_async = post_logged
        return drive(scheduler, [_logged(log, r, g) for r, g in enumerate(generators)])

    out = workdir / "image.out.dat"
    if out.exists():
        out.unlink()
    park, wake = Scheduler.park, Scheduler.wake

    def park_logged(scheduler, rank, what, node):
        log.append(("park", rank))
        park(scheduler, rank, what, node)

    def wake_logged(scheduler, rank):
        log.append(("wake", rank))
        wake(scheduler, rank)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scheduler, "run", run)
        patch.setattr(Scheduler, "park", park_logged)
        patch.setattr(Scheduler, "wake", wake_logged)
        try:
            result = interp.run(checked, nprocs, seed=seed, workdir=str(workdir))
        except MeshError as err:
            return log, ("fault", type(err).__name__, str(err))
    return log, ("done", result.trace.render(), final_state(result),
                 out.read_bytes() if out.exists() else None)


def final_state(result):
    """Every array's buffers and every local's per-rank values, by name."""
    state = {}
    for name in result.names():
        try:
            state[name] = buffers_of(result.array(name))
        except KeyError:
            state[name] = result.local(name)
    return state


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sched")
    generate_image(16, 1, path / "image.dat")
    return path


@pytest.mark.parametrize("name", PROGRAMS)
def test_scheduler_replays_the_reference_loop(name, workdir):
    source = PROGRAMS[name]
    checked = checked_corpus(name) if source is None else check_program(parse(source))
    for nprocs in PROCS:
        for seed in SEEDS:
            expected = schedule(checked, nprocs, seed, workdir, reference_schedule)
            got = schedule(checked, nprocs, seed, workdir, Scheduler.run)
            assert got[1] == expected[1], (nprocs, seed)
            assert got[0] == expected[0], (nprocs, seed)


def test_reference_programs_block_wake_drain_and_deadlock(workdir):
    """The programs above reach every path of the scheduler loop."""
    seen = set()
    for name in ("channel_async.mesh", "async-then-deadlock", "async-syncs", "half-guarded"):
        source = PROGRAMS[name]
        checked = checked_corpus(name) if source is None else check_program(parse(source))
        for nprocs in (3, 4):
            for seed in SEEDS:
                log, outcome = schedule(checked, nprocs, seed, workdir, Scheduler.run)
                seen.update(entry[0] for entry in log)
                if outcome[0] == "fault":
                    seen.add(outcome[1])
    assert {"park", "wake", "deliver", "DeadlockError"} <= seen
