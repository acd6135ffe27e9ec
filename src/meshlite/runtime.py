"""Simulated PGAS storage: blocks, ownership, redistribution and tracing.

Layout model
------------
A 2D array's ordering names its major dimension: `row` makes dimension 0
major, `col` makes dimension 1 major. `horizontal[p]` partitions the major
dimension into p slabs, `vertical[p]` partitions the minor one. Every
block stores whole *lines*: full cross-sections of the non-partitioned
dimension, concatenated in ascending partition index. Block slice t is the
line with global index low+t, contiguous in the buffer.

With that model the `col :: horizontal[p]` arrays hold whole columns
contiguously, so an assignment from a `row :: horizontal[p]` array is the
distributed transpose-and-shuffle, and a `row :: vertical[p]` view sharing
such an array's storage addresses the very same column lines block for
block.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional

from .chains import ELEMENT_SIZES, Layout, partitioned_dim
from .errors import (
    BadDistribution,
    IndexOutOfBounds,
    InvalidPartition,
    ShapeMismatch,
    ShareFootprintMismatch,
)

ZEROES = {"int": 0, "char": 0, "real": 0.0, "complex": 0j}


def partition_bounds(n: int, p: int, k: int) -> tuple:
    """Inclusive (low, high) of block k when n indices split into p parts.

    The first n mod p blocks get ceil(n/p) indices, the rest floor(n/p).
    """
    if p <= 0 or p > n:
        raise InvalidPartition(f"cannot split {n} indices into {p} blocks")
    if not 0 <= k < p:
        raise InvalidPartition(f"block index {k} outside [0, {p})")
    q, r = divmod(n, p)
    if k < r:
        low = k * (q + 1)
        high = low + q
    else:
        low = r * (q + 1) + (k - r) * q
        high = low + q - 1
    return low, high


def owner_of(dist: tuple, block_id: int, nprocs: int) -> int:
    """Owning rank for one block under a distribution scheme."""
    kind = dist[0]
    if kind == "even":
        return block_id % nprocs
    if kind == "on":
        rank = dist[1]
        if not 0 <= rank < nprocs:
            raise BadDistribution(f"placement rank {rank} outside [0, {nprocs})")
        return rank
    if kind == "arraydist":
        mapping = dist[1]
        if block_id >= len(mapping):
            raise BadDistribution(f"distribution array has no entry for block {block_id}")
        rank = mapping[block_id]
        if not 0 <= rank < nprocs:
            raise BadDistribution(f"distribution array maps block {block_id} to rank {rank}, outside [0, {nprocs})")
        return rank
    raise BadDistribution(f"no single owner under {kind} distribution")


@dataclass(frozen=True)
class ArrayDescriptor:
    shape: tuple  # () scalar, (n,) or (d0, d1)
    elem: str
    ordering: str  # row | col
    partition: Optional[tuple]  # ("horizontal"|"vertical", p)
    distribution: tuple  # ("on", r) | ("even",) | ("arraydist", (ranks...)) | ("multiple",)
    nprocs: int
    comm: Optional[tuple] = None  # ("channel", src, dst, is_async), or None for one-sided

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def replicated(self) -> bool:
        return self.distribution[0] == "multiple"

    @cached_property
    def part_dim(self) -> int:
        return partitioned_dim(self.ndim, self.ordering, self.partition)

    @cached_property
    def part_extent(self) -> int:
        if self.ndim == 0:
            return 1
        return self.shape[self.part_dim]

    @cached_property
    def line_len(self) -> int:
        if self.ndim <= 1:
            return 1
        return self.shape[1 - self.part_dim]

    @cached_property
    def _geometry(self) -> tuple:
        """(wide, split, r, q), computed once.

        With n indices in p blocks and q, r = divmod(n, p), blocks 0..r-1
        hold `wide` = q + 1 indices and the first `split` = r * wide
        indices; each later block holds q. An unpartitioned array is one
        block.
        """
        q, r = divmod(self.part_extent, self.block_count)
        return q + 1, r * (q + 1), r, q

    @property
    def block_count(self) -> int:
        return self.partition[1] if self.partition is not None else 1

    def bounds(self, block_id: int) -> tuple:
        if self.partition is None:
            if block_id != 0:
                raise IndexOutOfBounds(f"block {block_id} of an unpartitioned array")
            return 0, self.part_extent - 1
        return partition_bounds(self.part_extent, self.partition[1], block_id)

    def element_count(self) -> int:
        total = 1
        for d in self.shape:
            total *= d
        return total

    def locate(self, index: tuple) -> tuple:
        """(block_id, offset) of a logical index within block storage."""
        shape = self.shape
        if len(index) != len(shape):
            raise IndexOutOfBounds(f"index {index} into shape {shape}")
        if not shape:
            return 0, 0
        if not all(0 <= i < n for i, n in zip(index, shape)):
            raise IndexOutOfBounds(f"index {index} outside shape {shape}")
        part_dim = self.part_dim
        k, t = self.element(index[part_dim])
        if len(shape) == 1:
            return k, t
        return k, t * self.line_len + index[1 - part_dim]

    def element(self, i: int) -> tuple:
        """(block_id, offset) of index i of a 1D array: what locate((i,))
        gives, by one interval-arithmetic step on the geometry. Of a 2D
        array, the block and line holding index i of the partitioned
        dimension."""
        wide, split, r, q = self._geometry
        if not 0 <= i < self.part_extent:
            raise IndexOutOfBounds(f"index {(i,)} outside shape {self.shape}")
        if i < split:
            return divmod(i, wide)
        k, t = divmod(i - split, q)
        return k + r, t


@dataclass
class Block:
    block_id: int
    owner: int
    low: int
    high: int
    buffer: list


class DistributedArray:
    """Descriptor plus per-block buffers (or per-rank replicas)."""

    def __init__(self, name, descriptor, blocks=None, replicas=None, alias_of=None):
        self.name = name
        self.descriptor = descriptor
        self.blocks = blocks or []
        self.replicas = replicas or []
        self.alias_of = alias_of
        self.esize = ELEMENT_SIZES[descriptor.elem]  # bytes per element

    @property
    def replicated(self):
        return self.descriptor.replicated

    def block(self, block_id) -> Block:
        if not 0 <= block_id < len(self.blocks):
            raise IndexOutOfBounds(
                f"{self.name} has no block {block_id} (blocks: {len(self.blocks)})")
        return self.blocks[block_id]

    def logical_get(self, index, rank=0):
        """The element at a logical index; a replica is laid out as block 0."""
        k, off = self.descriptor.locate(index)
        if self.replicated:
            return self.replicas[rank][off]
        return self.blocks[k].buffer[off]


def descriptor_from_plan(plan: Layout, nprocs: int, dist_map=None) -> ArrayDescriptor:
    """The descriptor of a plan, its channel mode included; an arraydist
    plan takes its map's values."""
    dist = plan.distribution
    if dist[0] == "arraydist":
        dist = ("arraydist", tuple(int(v) for v in dist_map))
    return ArrayDescriptor(shape=plan.shape, elem=plan.elem, ordering=plan.ordering,
                           partition=plan.partition, distribution=dist, nprocs=nprocs,
                           comm=plan.comm)


def allocate(name: str, descriptor: ArrayDescriptor, base: Optional[DistributedArray] = None) -> DistributedArray:
    """Create storage for a descriptor; with base, alias its blocks.

    The split, then every block's owner, then the length of an arraydist
    map are checked before any storage is made. Aliased views add no
    element storage: block k of the view IS block k of the base. Buffer
    lengths must match block for block.
    """
    zero = ZEROES[descriptor.elem]
    if descriptor.replicated:
        count = descriptor.element_count()
        replicas = [[zero] * count for _ in range(descriptor.nprocs)]
        return DistributedArray(name, descriptor, replicas=replicas)

    dist, count = descriptor.distribution, descriptor.block_count
    bounds = [descriptor.bounds(k) for k in range(count)]
    owners = [owner_of(dist, k, descriptor.nprocs) for k in range(count)]
    if dist[0] == "arraydist" and len(dist[1]) != count:
        raise BadDistribution(f"distribution array has {len(dist[1])} entries for {count} blocks")
    if base is not None and (base.replicated or len(base.blocks) != count):
        raise ShareFootprintMismatch(f"{name} and its base have different block structure")
    blocks = []
    for k, ((low, high), owner) in enumerate(zip(bounds, owners)):
        length = (high - low + 1) * descriptor.line_len
        if base is None:
            blocks.append(Block(k, owner, low, high, [zero] * length))
            continue
        src = base.blocks[k]
        if len(src.buffer) != length:
            raise ShareFootprintMismatch(
                f"block {k}: view needs {length} elements, base holds {len(src.buffer)}")
        if src.owner != owner:
            raise ShareFootprintMismatch(
                f"block {k}: view owner {owner} differs from base owner {src.owner}")
        blocks.append(Block(k, owner, low, high, src.buffer))
    return DistributedArray(name, descriptor, blocks=blocks,
                            alias_of=base.name if base is not None else None)


# --- trace ---


# A get or a receive is stamped by its destination, any other event by its source.
STAMPED_BY_DST = ("onesided-get", "channel-recv")


@dataclass(slots=True)
class TraceEvent:
    """One trace record: `repeat` events that differ only in `seq`, which
    counts up from `seq` on the initiating process."""

    kind: str  # onesided-get | onesided-put | channel-send | channel-recv | block-transfer
    src: int
    dst: int
    bytes: int
    seq: int  # per-process sequence on the initiating process
    tag: str
    repeat: int = 1


# Rows numbered below this render from one list of seq strings per render.
SEQ_STRINGS = 4000

_DIGITS = [f"{d:02d}" for d in range(100)]


def _hundreds(head, tail, lo, hi):
    """Rows lo..hi-1 of one record, 100 <= lo < hi, as one string per
    hundred: rows 100g to 100g+99 are str(g) followed by two digits, so
    str(g) is the separator of one join over pieces built once."""
    pieces = [head, *[d + tail + head for d in _DIGITS[:99]], _DIGITS[99] + tail]
    out = []
    for g in range(lo // 100, (hi - 1) // 100 + 1):
        d0, d1 = max(lo - 100 * g, 0), min(hi - 100 * g, 100)
        out.append(str(g).join(pieces if d1 - d0 == 100
                               else [head, *pieces[d0 + 1:d1], _DIGITS[d1 - 1] + tail]))
    return out


class TraceLog:
    """Per-rank sequenced event log with a canonical rendering.

    Each initiating rank keeps its own list of records, numbered in order,
    so the canonical order, by (initiating rank, sequence), is the lists
    one after another. Blocking programs therefore produce byte-identical
    traces under any schedule. Field order: kind, src, dst, bytes, seq,
    tag, tab-separated.
    """

    def __init__(self, nprocs):
        self._by_rank = [[] for _ in range(nprocs)]

    def record(self, kind, src, dst, nbytes, tag, repeat=1):
        """Log `repeat` events on the initiating rank and return their
        record: the rank's last record, extended, when only seq differs."""
        log = self._by_rank[dst if kind in STAMPED_BY_DST else src]
        seq = 0
        if log:
            last = log[-1]
            if last.kind == kind and last.src == src and last.dst == dst \
                    and last.bytes == nbytes and last.tag == tag:
                last.repeat += repeat
                return last
            seq = last.seq + last.repeat
        ev = TraceEvent(kind, src, dst, nbytes, seq, tag, repeat)
        log.append(ev)
        return ev

    def record_plan(self, plan, esize, tag):
        """Each non-local segment of a collective's plan as its run of
        block-transfers, stamped by the source owner, in plan order."""
        for seg in plan:
            if not seg.local:
                length, repeat = seg.runs()
                self.record("block-transfer", seg.src_owner, seg.dst_owner, length * esize,
                            tag, repeat)

    def render(self) -> str:
        """Every rank numbers its rows 0, 1, 2, ... with no gaps, so one list
        of seq strings, made once, serves every record; rows past it are
        joined a hundred at a time (`_hundreds`)."""
        rows = max((log[-1].seq + log[-1].repeat for log in self._by_rank if log), default=0)
        seqs = list(map(str, range(min(rows, SEQ_STRINGS))))
        cap = len(seqs)
        parts = []
        for log in self._by_rank:
            for e in log:
                head, tail = f"{e.kind}\t{e.src}\t{e.dst}\t{e.bytes}\t", f"\t{e.tag}\n"
                seq, end = e.seq, e.seq + e.repeat
                if seq < cap:
                    parts += (head, (tail + head).join(seqs[seq:end]), tail)
                if end > cap:
                    parts += _hundreds(head, tail, max(seq, cap), end)
        del seqs  # not held while the join builds the text
        return "".join(parts)

    def count(self, kind) -> int:
        return sum(e.repeat for log in self._by_rank for e in log if e.kind == kind)


# --- redistribution ---


@dataclass(slots=True)
class Segment:
    """A rectangle of elements copied from one block to another.

    The rectangle has `lines` lines of `count // lines` elements, listed in
    destination buffer order. On each side the elements of a line lie
    `stride` apart and line t starts at `offset + t * line_stride`. A
    contiguous run has one line and stride 1 on both sides.
    """

    src_owner: int
    dst_owner: int
    src_block: int
    src_offset: int
    dst_block: int
    dst_offset: int
    count: int
    nbytes: int
    local: bool  # same owning rank
    identity: bool  # every element maps onto itself in shared storage
    dst_replica: Optional[int] = None  # set when dst is replicated
    lines: int = 1
    src_stride: int = 1
    dst_stride: int = 1
    src_line_stride: int = 0
    dst_line_stride: int = 0

    def runs(self) -> tuple:
        """Maximal contiguous runs as one (length, repeat) pair, in
        destination order: whole lines when both strides are 1, else
        single elements.

        Holds for the segments plan_redistribution makes: lines abutting on
        both sides are merged into one line, and a line strided on either
        side never ends next to where the next one starts.
        """
        n = self.lines
        w = self.count // n
        if w == 1 or (self.src_stride == 1 and self.dst_stride == 1):
            return w, n
        return 1, n * w


def _as_2d(desc):
    """(extents, part_dim, line_len) with 0D and 1D arrays seen as n x 1."""
    if desc.ndim == 2:
        return desc.shape, desc.part_dim, desc.line_len
    return (desc.part_extent, 1), 0, 1


def _targets(desc):
    """(block_id, owner, replica, low, high) for every buffer of desc.

    A replicated array has one dense ordering-major buffer per rank, laid
    out like block 0 of the unpartitioned array; its owner is the rank.
    """
    if desc.replicated:
        high = desc.part_extent - 1
        return [(0, rank, rank, 0, high) for rank in range(desc.nprocs)]
    return [(k, owner_of(desc.distribution, k, desc.nprocs), None) + desc.bounds(k)
            for k in range(desc.block_count)]


def plan_redistribution(src: ArrayDescriptor, dst: ArrayDescriptor, same_storage=False):
    """Segments that make dst logically equal to src.

    Every block is a rectangle in logical index space: its index range
    along the partitioned dimension by the whole other dimension. Each
    (dst block, src block) pair that overlaps gives one segment, in dst
    block order and then src block order. Segments whose endpoints share a
    rank are marked local; local segments mapping every element onto
    itself in shared storage are marked identity so executors can skip
    them. A replicated source is read from the replica co-located with
    the destination.
    """
    if src.shape != dst.shape or src.elem != dst.elem:
        raise ShapeMismatch(
            f"cannot assign {dst.elem}{dst.shape} from {src.elem}{src.shape}")
    esize = ELEMENT_SIZES[src.elem]
    extents, dd, dline = _as_2d(dst)
    _, sd, sline = _as_2d(src)
    # destination order walks dd line by line; elements step along the other
    # dimension, which the source lays out contiguously only when sd == dd
    src_stride, src_line_stride = (1, sline) if sd == dd else (sline, 1)
    src_blocks = None if src.replicated else _targets(src)
    segments = []
    for dst_block, dst_owner, replica, dlow, dhigh in _targets(dst):
        box = [[0, extents[0] - 1], [0, extents[1] - 1]]
        box[dd] = [dlow, dhigh]
        lo, hi = box[sd]
        if src_blocks is None:
            overlapping = [(0, dst_owner, None, 0, extents[sd] - 1)]
        else:
            overlapping = src_blocks[src.element(lo)[0] : src.element(hi)[0] + 1]
        for src_block, src_owner, _, slow, shigh in overlapping:
            start = [box[0][0], box[1][0]]
            end = [box[0][1], box[1][1]]
            start[sd], end[sd] = max(lo, slow), min(hi, shigh)
            segments.append(_segment(
                src_owner, dst_owner, src_block, dst_block, replica,
                (start[sd] - slow) * sline + start[1 - sd],
                (start[dd] - dlow) * dline + start[1 - dd],
                end[dd] - start[dd] + 1, end[1 - dd] - start[1 - dd] + 1,
                src_stride, src_line_stride, 1, dline, esize, same_storage))
    return segments


def _segment(src_owner, dst_owner, src_block, dst_block, replica, src_offset,
             dst_offset, lines, width, ss, sl, ds, dl, esize, same_storage):
    """Segment in canonical form: a rectangle that is one contiguous run
    becomes a single line, and a single column a single strided line."""
    if width == 1:
        lines, width, ss, ds = 1, lines, sl, dl
    elif ss == ds == 1 and sl == dl == width:
        lines, width = 1, lines * width
    if width == 1:
        ss = ds = 1
    if lines == 1:
        sl = dl = 0
    local = src_owner == dst_owner
    count = lines * width
    identity = (same_storage and local and src_block == dst_block
                and src_offset == dst_offset and ss == ds and sl == dl)
    return Segment(src_owner, dst_owner, src_block, src_offset, dst_block, dst_offset,
                   count, count * esize, local, identity, replica, lines, ss, ds, sl, dl)


def copy_array(plan, src: DistributedArray, dst: DistributedArray) -> None:
    """Make dst logically equal to src from the two layouts; a plan whose
    segments are all identities copies nothing.

    Every block stores whole lines along its partitioned dimension, so
    src's blocks in block order are one list with that dimension major,
    built before any buffer is written, because views sharing storage can
    overlap. A replicated source is instead the replica of the rank that
    owns the destination buffer. Each destination buffer is then one slice
    of that list when both arrays partition the same dimension, else each
    of its lines is one strided slice.
    """
    if all(seg.identity for seg in plan):
        return
    _, dd, line = _as_2d(dst.descriptor)
    _, sd, src_line = _as_2d(src.descriptor)
    if dst.replicated:
        high = dst.descriptor.part_extent - 1
        targets = [(buf, rank, 0, high) for rank, buf in enumerate(dst.replicas)]
    else:
        targets = [(b.buffer, b.owner, b.low, b.high) for b in dst.blocks]
    if not src.replicated:
        flat = list(chain.from_iterable(b.buffer for b in src.blocks))
    for buf, owner, low, high in targets:
        if src.replicated:
            flat = src.replicas[owner]
        if sd == dd:
            buf[:] = flat[low * line : (high + 1) * line]
        else:
            for t, j in enumerate(range(low, high + 1)):
                buf[t * line : (t + 1) * line] = flat[j::src_line]
