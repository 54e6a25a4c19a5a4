"""The shared directory level of the hierarchy fabric (the paper's banked
NUCA L2) plus the chain of deeper shared levels behind it.

All cores share the fabric's first ``global`` level (Table 5.1: 4 MB, 16
banks).  Banks are distributed one per mesh node, so the access latency
seen by a core is the bank's fixed access time plus the XY-routed round
trip -- that distance spread is the source of the paper's 29-61 cycle L2
hit range.  Geometry, latencies and bank count come from the level's
:class:`~repro.mem.hierarchy.CacheLevelSpec`; with no explicit hierarchy
the spec is derived from the flat ``SystemConfig`` fields, elaborating to
exactly the old machine.

The directory side implements what both protocols need from the shared
point of coherence (Section 6.1.1):

* GPU coherence: writes arrive as write-through ``PUT_WT`` data; loads are
  serviced from the L2 (or below on a miss).
* DeNovo: ``GETO`` registers the requester as the owner of a line.  A later
  ``GETS`` from another core is *forwarded* to the owner, which responds
  directly to the requester -- the extra hop behind the "remote L1" data
  stall sub-class.  ``WB_OWNED`` returns ownership on eviction.
* Atomics execute at the directory bank (Chapter 5), one per bank per
  cycle, which naturally serializes lock traffic.

Deeper ``global`` levels (a shared L3, ...) sit on the backside: a
directory miss walks the chain
(:class:`~repro.mem.hierarchy.SharedCacheLevel`), paying each level's NoC
round trip, bank serialization and access latency, and only reaches DRAM
when the whole chain misses.  Chain hits report ``ServiceLocation.L2``
(serviced within the shared cache hierarchy); only true DRAM fills report
``MEMORY``.
"""

from __future__ import annotations

from functools import partial

from repro.core.component import Component
from repro.core.stall_types import ServiceLocation
from repro.mem.cache import LineState
from repro.mem.hierarchy import BankedTagArray, CacheLevelSpec, SharedCacheLevel
from repro.mem.main_memory import Dram, GlobalMemory
from repro.noc.mesh import Mesh
from repro.noc.message import Message, MsgType, alloc_message, recycle_message
from repro.sim.config import SystemConfig


class L2Cache(Component):
    """The shared directory level: tag banks, directory, and backside."""

    def __init__(
        self,
        config: SystemConfig,
        mesh: Mesh,
        memory: GlobalMemory,
        dram: Dram,
        spec: CacheLevelSpec | None = None,
        next_levels: "list[SharedCacheLevel] | None" = None,
    ) -> None:
        if spec is None:
            spec = config.effective_hierarchy().directory_level
        Component.__init__(self, spec.name)
        self.config = config
        self.spec = spec
        self.mesh = mesh
        self.engine = mesh.engine
        self.memory = memory
        self.dram = dram
        self.num_banks = spec.banks
        self.tags = BankedTagArray(
            self,
            spec.sets(config.line_size),
            spec.assoc,
            spec.banks,
        )
        self._dir_latency = spec.effective_dir_latency
        #: data-array portion of an access beyond the directory lookup
        self._data_array_delay = max(0, spec.hit_latency - self._dir_latency)
        #: home mesh node per bank, precomputed: ``node_of_line`` sits on
        #: the request path of every L1 and response path of every bank.
        self._bank_node = mesh.distribute_banks(spec.banks)
        #: deeper shared levels, walked on a directory miss (usually empty)
        self._next_levels = list(next_levels or [])
        #: line -> owning core's node id (DeNovo registration)
        self.owner: dict[int, int] = {}
        #: observer for :meth:`warm_lines` (the trace recorder captures the
        #: workload's pre-run warming so replay can reproduce it)
        self.warm_tap = None
        # statistics
        self.loads = self.stat_counter("loads")
        self.stores = self.stat_counter("stores")
        self.atomics = self.stat_counter("atomics")
        self.remote_forwards = self.stat_counter("remote_forwards")
        self.ownership_grants = self.stat_counter("ownership_grants")
        self.ownership_recalls = self.stat_counter("ownership_recalls")
        self.dram_fills = self.stat_counter("dram_fills")
        # Hot-path aliases + per-type dispatch, bound once (none of these
        # callees is ever rebound): the service path runs once per request
        # message, the rmw path once per atomic.
        self._send = mesh.send
        self._mem_words = memory._words
        self._tag_banks = self.tags.banks
        self._bank_free = self.tags._free
        self._schedule_call = mesh.engine.schedule_call
        self._service_table = {
            MsgType.GETS: self._service_gets,
            MsgType.PUT_WT: self._service_put_wt,
            MsgType.GETO: self._service_geto,
            MsgType.ATOMIC: self._service_atomic,
            MsgType.WB_OWNED: self._service_wb_owned,
        }

    # ------------------------------------------------------------------
    def bank_of(self, line: int) -> int:
        return line % self.num_banks

    def node_of_line(self, line: int) -> int:
        """Mesh node hosting the home bank of ``line``."""
        return self._bank_node[line % self.num_banks]

    def _bank_service_delay(self, bank: int) -> int:
        """Serialize bank access (one request per bank per cycle).

        The base delay is the directory/tag lookup; requests that must read
        the data array (loads served from the L2, atomics) pay the remaining
        ``hit_latency - dir_latency`` before responding.  Forwards and write
        acknowledgements leave after the directory alone, which is what
        keeps the paper's remote-L1 latency range (35-83) overlapping the
        L2 hit range (29-61).
        """
        return self.tags.serialize(bank, self.engine.now) + self._dir_latency

    def warm_lines(self, lines) -> None:
        """Pre-install lines in the shared levels (data produced by a prior
        kernel).

        The case-study arrays are initialized before the measured kernel
        runs; warming keeps the first measured access a shared-cache hit
        instead of a cold DRAM miss, as it would be on the paper's testbed."""
        lines = list(lines)
        if self.warm_tap is not None:
            self.warm_tap(lines)
        for line in lines:
            self._fill(self.bank_of(line), line)
        for level in self._next_levels:
            level.warm(lines)

    # ------------------------------------------------------------------
    def handle_message(self, msg: Message) -> None:
        """Entry point for request messages delivered by the mesh.

        Dispatched through the engine's one-argument ``schedule_call``
        lane: the bank is recomputed from the line at service time (it is
        a pure function of the address), so no closure or partial is built
        per message -- and every request maturing on one cycle shares a
        single calendar bucket.
        """
        # _bank_service_delay inlined (one request per bank per cycle):
        # this runs once per delivered request message.
        free = self._bank_free
        bank = msg.line % self.num_banks
        now = self.engine.now
        start = free[bank]
        if start < now:
            start = now
        free[bank] = start + 1
        self._schedule_call(start - now + self._dir_latency, self._service, msg)

    def _service(self, msg: Message) -> None:
        handler = self._service_table.get(msg.mtype)
        if handler is None:
            raise ValueError("L2 cannot handle %s" % msg.mtype)
        handler(msg, msg.line % self.num_banks)

    # ------------------------------------------------------------------
    def _service_gets(self, msg: Message, bank: int) -> None:
        self.loads.value += 1
        line = msg.line
        owner = self.owner.get(line)
        if owner is not None and owner != msg.src:
            # Owned at a remote L1: forward; the owner responds directly to
            # the requester (DeNovo's extra hop).
            self.remote_forwards.value += 1
            self.mesh.send(
                Message(
                    mtype=MsgType.FWD_GETS,
                    src=self.node_of_line(line),
                    dst=owner,
                    line=line,
                    req_id=msg.req_id,
                    requester=msg.src,
                    bypass_l1=msg.bypass_l1,
                    meta=msg.meta,
                )
            )
            return
        if self.tags.banks[bank].lookup(line) is not None:
            self._respond_data(msg, ServiceLocation.L2, extra_delay=self._data_array_delay)
        else:
            extra, loc = self._fetch_below(line)
            self._fill(bank, line)
            self._respond_data(
                msg, loc, extra_delay=extra + self._data_array_delay
            )

    def _fetch_below(self, line: int) -> tuple[int, ServiceLocation]:
        """Service a directory miss from the backside: walk the deeper
        shared levels, then DRAM.  Returns ``(extra_delay, service_loc)``
        relative to now."""
        now = self.engine.now
        chain = self._next_levels
        if not chain:
            # Default machine: DRAM sits directly behind the directory.
            done = self.dram.access_done(now, line)
            self.dram_fills.value += 1
            return done - now, ServiceLocation.MEMORY
        home = self.node_of_line(line)
        src = home
        start = now
        for level in chain:
            delay, hit = level.probe(line, src, home, start, now)
            if hit:
                return delay, ServiceLocation.L2
            start = now + delay
            src = level.node_of_line(line)
        done = self.dram.access_done(start, line)
        self.dram_fills.value += 1
        # The fill rides directly back from the last level's home bank.
        back = self.mesh.hops(src, home) * self.mesh.hop_latency
        return (done - now) + back, ServiceLocation.MEMORY

    def _respond_data(self, req: Message, loc: ServiceLocation, extra_delay: int) -> None:
        if extra_delay > 0:
            self.engine.schedule(extra_delay, partial(self._send_data, req, loc))
        else:
            self._send_data(req, loc)

    def _send_data(self, req: Message, loc: ServiceLocation) -> None:
        # Pooled: the requesting L1 recycles every DATA response it
        # handles, so the fill response must come out of the same pool.
        self.mesh.send(
            alloc_message(
                MsgType.DATA,
                self.node_of_line(req.line),
                req.src,
                req.line,
                req.req_id,
                None,
                None,
                loc,
                None,
                None,
                req.bypass_l1,
                req.meta,
            )
        )

    def _fill(self, bank: int, line: int) -> None:
        self.tags.banks[bank].insert(line, LineState.VALID)

    # ------------------------------------------------------------------
    def _service_put_wt(self, msg: Message, bank: int) -> None:
        self.stores.value += 1
        line = msg.line
        # A write-through from a non-owner squashes any stale registration
        # (does not occur in race-free workloads, but keeps the directory
        # consistent under stress tests).
        if self.owner.get(line) is not None and self.owner[line] != msg.src:
            self.ownership_recalls.value += 1
            self._recall(line)
        self._fill(bank, line)
        self._ack(msg)

    def _service_geto(self, msg: Message, bank: int) -> None:
        line = msg.line
        prev = self.owner.get(line)
        extra = 0
        if prev is not None and prev != msg.src:
            # Transfer: invalidate the previous owner; the grant is delayed
            # by the forward distance, modelling the extra hop the paper
            # attributes to ownership-request redirection.
            self.ownership_recalls.value += 1
            self.mesh.send(
                Message(
                    mtype=MsgType.FWD_GETO,
                    src=self.node_of_line(line),
                    dst=prev,
                    line=line,
                    requester=msg.src,
                )
            )
            extra = self.mesh.hops(self.node_of_line(line), prev) * self.mesh.hop_latency
        self.owner[line] = msg.src
        self.ownership_grants.value += 1
        if extra > 0:
            self.engine.schedule_call(extra, self._ack, msg)
        else:
            self._ack(msg)

    def _recall(self, line: int) -> None:
        prev = self.owner.pop(line, None)
        if prev is not None:
            self.mesh.send(
                Message(
                    mtype=MsgType.FWD_GETO,
                    src=self.node_of_line(line),
                    dst=prev,
                    line=line,
                    requester=None,
                )
            )

    # ------------------------------------------------------------------
    def _service_atomic(self, msg: Message, bank: int) -> None:
        self.atomics.value += 1
        line = msg.line
        prev = self.owner.get(line)
        extra = self._data_array_delay  # atomics read-modify-write the data array
        if prev is not None and prev != msg.src:
            # Atomics execute at the L2; a remotely owned line must first be
            # recalled (rare: synchronization variables are only accessed
            # atomically in the workloads studied).
            extra += self.mesh.hops(self.node_of_line(line), prev) * self.mesh.hop_latency
            self.ownership_recalls.value += 1
            self._recall(line)
        assert msg.atomic_fn is not None and msg.word_addr is not None

        if extra > 0:
            self._schedule_call(extra, self._do_rmw, msg)
        else:
            self._do_rmw(msg)

    def _do_rmw(self, msg: Message) -> None:
        line = msg.line
        bank = line % self.num_banks
        # GlobalMemory.atomic_rmw, inlined on the aliased word store (the
        # functional RMW runs once per atomic, by far the hottest memory op).
        words = self._mem_words
        addr = msg.word_addr & ~0x3
        _new, result = msg.atomic_fn(words.get(addr, 0))
        words[addr] = _new
        self._tag_banks[bank].insert(line, LineState.VALID)  # _fill, inlined
        # Pooled positional construction (field order: mtype, src, dst,
        # line, req_id, requester, value, service_loc, atomic_fn,
        # word_addr, bypass_l1, meta): the hottest response-allocation
        # site.  The request retires here -- it is held by no table or
        # bucket once this call runs.
        self._send(
            alloc_message(
                MsgType.DATA,
                self._bank_node[bank],
                msg.src,
                line,
                msg.req_id,
                None,
                result,
                ServiceLocation.L2,
                None,
                None,
                False,
                msg.meta,
            )
        )
        recycle_message(msg)

    def _service_wb_owned(self, msg: Message, bank: int) -> None:
        line = msg.line
        if self.owner.get(line) == msg.src:
            del self.owner[line]
        self._fill(bank, line)
        self._ack(msg)

    def _ack(self, req: Message) -> None:
        self.mesh.send(
            Message(
                mtype=MsgType.ACK,
                src=self.node_of_line(req.line),
                dst=req.src,
                line=req.line,
                req_id=req.req_id,
                meta=req.meta,
            )
        )
