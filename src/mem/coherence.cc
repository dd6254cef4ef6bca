#include "mem/coherence.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <deque>

#include "obs/trace.hh"

namespace ccn::mem {

using sim::Tick;

/**
 * Coherence-profiler hook: one predictable branch when the profiler
 * is disabled. Hooks never touch protocol state or timing — profiling
 * leaves simulation results bit-identical.
 */
#define CCN_PROF(call)                                                 \
    do {                                                               \
        if (prof_.enabled())                                           \
            prof_.call;                                                \
    } while (0)

CoherentSystem::CoherentSystem(sim::Simulator &sim,
                               const PlatformConfig &config)
    : sim_(sim), cfg_(config)
{
    prof_.enable(obs::CoherenceProfiler::defaultEnabled());
    for (int s = 0; s < cfg_.sockets; ++s) {
        llc_.emplace_back(cfg_.llcLines, cfg_.llcWays);
        upiInto_.emplace_back(sim_, cfg_.upiRawBw);
        dram_.emplace_back(sim_, cfg_.dramBw);
        prefetchOn_.push_back(true);
        allocNext_.push_back(socketBase(s) + 0x10000);
    }
    dir_.reserve(1 << 20);
}

AgentId
CoherentSystem::addAgent(int socket)
{
    assert(socket >= 0 && socket < cfg_.sockets);
    AgentId id = static_cast<AgentId>(agents_.size());
    assert(id < 128 && "SharerSet supports up to 128 L2 caches");
    agents_.push_back(Agent{socket, {}, 0, 0, {}, 0});
    l2_.emplace_back(cfg_.l2Lines, cfg_.l2Ways);
    return id;
}

Addr
CoherentSystem::alloc(int home_socket, std::uint64_t bytes,
                      std::uint64_t align)
{
    assert(align >= 1 && (align & (align - 1)) == 0);
    Addr &next = allocNext_[home_socket];
    next = (next + align - 1) & ~(align - 1);
    Addr base = next;
    next += bytes;
    return base;
}

sim::Gate &
CoherentSystem::gateFor(Addr line)
{
    auto it = gates_.find(line);
    if (it == gates_.end()) {
        it = gates_.emplace(line, std::make_unique<sim::Gate>(sim_))
                 .first;
    }
    return *it->second;
}

void
CoherentSystem::noteWriter(LineDir &d, AgentId a)
{
    if (d.lastWriter >= 0 && d.lastWriter != a)
        d.migratory = true;
    d.lastWriter = static_cast<std::int16_t>(a);
}

void
CoherentSystem::bumpVersion(LineDir &d, Addr line, Tick when)
{
    d.version++;
    if (faultsArmed_) {
        // A stuck invalidation defers the waiter wakeup past the
        // fault window; pollers meanwhile still observe the held
        // (stale) version via lineVersion().
        auto st = stuck_.find(line);
        if (st != stuck_.end()) {
            if (st->second.until > when)
                when = st->second.until;
            else
                stuck_.erase(st);
        }
    }
    auto it = gates_.find(line);
    if (it != gates_.end() && it->second->hasWaiters()) {
        sim::Gate *g = it->second.get();
        sim_.scheduleCallback(when, [g] { g->notifyAll(); });
    }
}

Tick
CoherentSystem::linkXfer(int to_socket, std::uint32_t bytes, Tick t)
{
    return upiInto_[to_socket].reserveAt(t, bytes) + cfg_.upiHop;
}

Tick
CoherentSystem::dramAccess(int socket, std::uint32_t bytes, Tick t)
{
    return dram_[socket].reserveAt(t, bytes) + cfg_.dramLat;
}

void
CoherentSystem::insertLlc(int socket, Addr line, bool dirty)
{
    if (CacheEntry *le = llc_[socket].touch(line)) {
        le->dirty |= dirty;
        if (dirty)
            dir_[line].llcDirty |= std::uint8_t(1) << socket;
        return;
    }
    Eviction ev;
    llc_[socket].insert(line, LineState::Shared, dirty, &ev);
    LineDir &d = dir_[line];
    d.llcMask |= std::uint8_t(1) << socket;
    if (dirty)
        d.llcDirty |= std::uint8_t(1) << socket;

    if (ev.valid) {
        LineDir &vd = dir_[ev.line];
        vd.llcMask &= ~(std::uint8_t(1) << socket);
        vd.llcDirty &= ~(std::uint8_t(1) << socket);
        if (ev.dirty) {
            // Dirty victim writes back to its home memory; bandwidth
            // cost only, off any requester's critical path.
            const int h = homeSocket(ev.line);
            Tick t = sim_.now();
            if (h != socket)
                t = linkXfer(h, cfg_.dataMsgBytes, t);
            dram_[h].reserveAt(t, kLineBytes);
        }
    }
}

void
CoherentSystem::handleL2Eviction(AgentId a, const Eviction &ev)
{
    LineDir &d = dir_[ev.line];
    const int s = agents_[a].socket;
    switch (ev.state) {
      case LineState::Modified:
        if (d.owner == a)
            d.owner = -1;
        insertLlc(s, ev.line, true);
        break;
      case LineState::Exclusive:
        if (d.owner == a)
            d.owner = -1;
        insertLlc(s, ev.line, ev.dirty);
        break;
      case LineState::Shared:
        d.sharers.clear(a);
        break;
      case LineState::Invalid:
        break;
    }
}

void
CoherentSystem::installL2(AgentId a, Addr line, LineState state,
                          bool dirty, Tick ready_at)
{
    Eviction ev;
    CacheEntry *e = l2_[a].insert(line, state, dirty, &ev);
    e->readyAt = ready_at;
    if (ev.valid)
        handleL2Eviction(a, ev);
}

CoherentSystem::InvalResult
CoherentSystem::invalidateCopies(LineDir &d, Addr line, int req_socket,
                                 AgentId except_agent)
{
    InvalResult r;
    if (d.owner >= 0 && d.owner != except_agent) {
        if (CacheEntry *oe = l2_[d.owner].find(line)) {
            r.dirtyFound = (oe->state == LineState::Modified);
            r.dirtyOwner = d.owner;
            const int os = agents_[d.owner].socket;
            (os == req_socket ? r.anyLocal : r.anyRemote) = true;
            l2_[d.owner].erase(line);
            telem_.invalidations++;
            CCN_PROF(noteInvalidation(line, sim_.now()));
        }
        d.owner = -1;
    }
    if (d.sharers.any()) {
        for (int w = 0; w < 2; ++w) {
            std::uint64_t bits = d.sharers.w[w];
            while (bits) {
                const int i = w * 64 + std::countr_zero(bits);
                bits &= bits - 1;
                if (i == except_agent)
                    continue;
                if (i < static_cast<int>(l2_.size()) &&
                    l2_[i].erase(line)) {
                    const int is = agents_[i].socket;
                    (is == req_socket ? r.anyLocal : r.anyRemote) = true;
                    telem_.invalidations++;
                    CCN_PROF(noteInvalidation(line, sim_.now()));
                }
            }
        }
        const bool keep = except_agent >= 0 &&
                          d.sharers.test(except_agent);
        d.sharers.reset();
        if (keep)
            d.sharers.set(except_agent);
    }
    for (int k = 0; k < cfg_.sockets; ++k) {
        if (d.llcMask & (std::uint8_t(1) << k)) {
            llc_[k].erase(line);
            if (d.llcDirty & (std::uint8_t(1) << k))
                r.dirtyFound = true;
            if (k == req_socket)
                r.llcLocal = true;
            else
                r.llcRemote = true;
        }
    }
    d.llcMask = 0;
    d.llcDirty = 0;
    return r;
}

void
CoherentSystem::maybePrefetch(AgentId a, Addr miss_line, Tick start)
{
    Agent &ag = agents_[a];
    if (miss_line == ag.lastMissLine + kLineBytes) {
        ag.missStreak++;
    } else if (miss_line != ag.lastMissLine) {
        ag.missStreak = 1;
    }
    ag.lastMissLine = miss_line;
    if (!prefetchOn_[ag.socket] || ag.missStreak < cfg_.prefetchTrigger)
        return;
    for (int i = 1; i <= cfg_.prefetchDepth; ++i) {
        const Addr p = miss_line + static_cast<Addr>(i) * kLineBytes;
        if (l2_[a].find(p))
            continue;
        ag.counters.prefetchIssued++;
        walkLine(a, p, false, start, /*prefetch=*/true);
        if (CacheEntry *pe = l2_[a].find(p))
            pe->wasPrefetch = true;
    }
}

Tick
CoherentSystem::walkLine(AgentId a, Addr line, bool write, Tick start,
                         bool prefetch)
{
    if (faultsArmed_) {
        auto it = brownouts_.find(a);
        if (it != brownouts_.end()) {
            if (start >= it->second.until) {
                brownouts_.erase(it);
            } else {
                const double factor = it->second.factor;
                Tick t = walkLineProtocol(a, line, write, start,
                                          prefetch);
                if (t > start && factor > 1.0) {
                    t = start + static_cast<Tick>(
                                    static_cast<double>(t - start) *
                                    factor);
                    if (!prefetch)
                        telem_.brownoutStretchedOps++;
                }
                return t;
            }
        }
    }
    return walkLineProtocol(a, line, write, start, prefetch);
}

Tick
CoherentSystem::walkLineProtocol(AgentId a, Addr line, bool write,
                                 Tick start, bool prefetch)
{
    Agent &ag = agents_[a];
    const int s = ag.socket;
    SetAssocCache &l2 = l2_[a];

    if (CacheEntry *e = l2.touch(line)) {
        const Tick hit_done =
            std::max(start + cfg_.l2HitLat, e->readyAt);
        if (!write) {
            if (!prefetch) {
                ag.counters.l2Hits++;
                if (e->wasPrefetch) {
                    // Demand hit on a prefetched line sustains the
                    // stream (prefetch-hit feedback).
                    e->wasPrefetch = false;
                    ag.missStreak++;
                    ag.lastMissLine = line;
                    maybePrefetch(a, line, start);
                }
            }
            return hit_done;
        }
        if (e->state == LineState::Modified ||
            e->state == LineState::Exclusive) {
            e->state = LineState::Modified;
            e->dirty = true;
            LineDir &d = dir_[line];
            d.owner = static_cast<std::int16_t>(a);
            if (!prefetch) {
                ag.counters.l2Hits++;
                noteWriter(d, a);
                d.writeBusyUntil = std::max(d.writeBusyUntil, hit_done);
                bumpVersion(d, line, hit_done);
            }
            return hit_done;
        }
        // Ownership upgrade from a Shared copy: invalidate all other
        // copies; no data transfer needed.
        if (!prefetch)
            ag.counters.l2Misses++;
        LineDir &d = dir_[line];
        start = std::max(start, d.busyUntil);
        Tick t = start + cfg_.chaLookupLat;
        InvalResult inv = invalidateCopies(d, line, s, a);
        if (inv.anyLocal || inv.llcLocal)
            t += cfg_.invalidateLat;
        if (inv.anyRemote || inv.llcRemote) {
            t = linkXfer(1 - s, cfg_.ctrlMsgBytes, t);
            t = linkXfer(s, cfg_.ctrlMsgBytes, t);
            if (!prefetch) {
                ag.counters.remoteRfos++;
                telem_.remoteRfos++;
                obs::tracepoint(obs::EventKind::CoherenceRemoteRfo,
                                "rfo.upgrade", t, line);
                // Upgrade: invalidation + ack control messages only.
                CCN_PROF(noteRemoteRfo(line, a, inv.dirtyOwner,
                                       2 * cfg_.ctrlMsgBytes, t));
            } else {
                ag.counters.prefetchRemote++;
            }
        }
        e->state = LineState::Modified;
        e->dirty = true;
        d.owner = static_cast<std::int16_t>(a);
        d.sharers.reset();
        d.busyUntil = t;
        if (!prefetch) {
            noteWriter(d, a);
            d.writeBusyUntil = std::max(d.writeBusyUntil, t);
            bumpVersion(d, line, t);
        }
        return t;
    }

    // L2 miss.
    if (!prefetch)
        ag.counters.l2Misses++;

    LineDir &d = dir_[line];
    start = std::max(start, d.busyUntil);
    const int home = homeSocket(line);
    Tick t = start + cfg_.chaLookupLat;
    bool crossed = false;

    if (write) {
        InvalResult inv = invalidateCopies(d, line, s, a);
        if (inv.anyLocal || inv.llcLocal)
            t += cfg_.invalidateLat;
        if (inv.dirtyOwner >= 0) {
            // Fetch the line from the previous owner's L2.
            const int os = agents_[inv.dirtyOwner].socket;
            if (os == s) {
                t += cfg_.snoopFwdLocal;
            } else {
                crossed = true;
                t = linkXfer(os, cfg_.ctrlMsgBytes, t);
                t += cfg_.remoteChaLat + cfg_.snoopFwdRemote;
                t = linkXfer(s, cfg_.dataMsgBytes, t);
                if (home == s) {
                    t += cfg_.specReadPenalty;
                    dram_[s].reserveAt(start, kLineBytes);
                }
            }
        } else if (inv.llcLocal) {
            t += cfg_.llcDataLat;
        } else if (inv.llcRemote) {
            crossed = true;
            t = linkXfer(1 - s, cfg_.ctrlMsgBytes, t);
            t += cfg_.remoteChaLat + cfg_.llcDataLat;
            t = linkXfer(s, cfg_.dataMsgBytes, t);
        } else {
            // Data from home memory.
            if (home == s) {
                t = dramAccess(s, kLineBytes, t);
                if (!prefetch) {
                    ag.counters.dramReads++;
                    telem_.dramReads++;
                }
            } else {
                crossed = true;
                t = linkXfer(home, cfg_.ctrlMsgBytes, t);
                t += cfg_.remoteChaLat;
                t = dramAccess(home, kLineBytes, t);
                t = linkXfer(s, cfg_.dataMsgBytes, t);
                if (!prefetch) {
                    ag.counters.dramReads++;
                    telem_.dramReads++;
                }
            }
        }
        if (inv.anyRemote && !crossed) {
            // Invalidation/ack roundtrip to the other socket.
            crossed = true;
            t = linkXfer(1 - s, cfg_.ctrlMsgBytes, t);
            t = linkXfer(s, cfg_.ctrlMsgBytes, t);
        }
        if (crossed) {
            if (!prefetch) {
                ag.counters.remoteRfos++;
                telem_.remoteRfos++;
                obs::tracepoint(obs::EventKind::CoherenceRemoteRfo,
                                "rfo.miss", t, line);
                CCN_PROF(noteRemoteRfo(
                    line, a, inv.dirtyOwner,
                    cfg_.ctrlMsgBytes + cfg_.dataMsgBytes, t));
            } else {
                ag.counters.prefetchRemote++;
            }
        }
        installL2(a, line, LineState::Modified, true, t);
        d.owner = static_cast<std::int16_t>(a);
        d.sharers.reset();
        d.busyUntil = t;
        if (!prefetch) {
            noteWriter(d, a);
            d.writeBusyUntil = std::max(d.writeBusyUntil, t);
            bumpVersion(d, line, t);
            maybePrefetch(a, line, start);
        }
        return t;
    }

    // Read miss.
    CacheEntry *oe = nullptr;
    int supplier = -1; ///< Forwarding L2 agent; -1 = home/LLC supply.
    if (d.owner >= 0 && d.owner != a)
        oe = l2_[d.owner].find(line);

    // A read that arrives while (or just after) a write transaction
    // held the line had its request already queued at the home agent;
    // it skips the local-lookup and request-link legs and is serviced
    // as a forward right after the write completes. This is what makes
    // coherence-based signaling cheaper than two independent misses.
    const bool queued =
        !write && d.busyUntil + cfg_.upiHop >= start &&
        d.busyUntil > 0;

    if (oe) {
        const AgentId owner = d.owner;
        const int os = agents_[owner].socket;
        supplier = owner;
        if (os == s) {
            t += cfg_.snoopFwdLocal;
        } else if (queued) {
            crossed = true;
            t = start + cfg_.remoteChaLat + cfg_.snoopFwdRemote;
            t = linkXfer(s, cfg_.dataMsgBytes, t);
        } else {
            crossed = true;
            t = linkXfer(os, cfg_.ctrlMsgBytes, t);
            t += cfg_.remoteChaLat + cfg_.snoopFwdRemote;
            t = linkXfer(s, cfg_.dataMsgBytes, t);
        }
        if (os != s && home == s) {
            // Reader-homed: the local CHA issues a speculative
            // memory read in parallel (wasted bandwidth + small
            // latency penalty; §3.2).
            t += cfg_.specReadPenalty;
            dram_[s].reserveAt(start, kLineBytes);
        }
        if (oe->state == LineState::Modified && d.migratory &&
            !prefetch) {
            // Migratory handoff: grant dirty ownership to the reader
            // so its expected follow-up write hits locally. The old
            // owner's copy is invalidated in the same transaction.
            l2_[owner].erase(line);
            d.owner = -1;
            telem_.migratoryHandoffs++;
            obs::tracepoint(obs::EventKind::CoherenceMigratory,
                            "migratory.handoff", t, line);
            CCN_PROF(noteMigratory(line, a, owner, t));
            if (crossed) {
                ag.counters.remoteReads++;
                telem_.remoteReads++;
                CCN_PROF(noteRemoteRead(
                    line, a, owner,
                    cfg_.ctrlMsgBytes + cfg_.dataMsgBytes, t));
            }
            installL2(a, line, LineState::Exclusive, true, t);
            d.owner = static_cast<std::int16_t>(a);
            d.busyUntil = t;
            if (CacheEntry *ge = l2.find(line))
                ge->wasPrefetch = false;
            maybePrefetch(a, line, start);
            return t;
        }
        if (oe->state != LineState::Modified) {
            // An earlier migratory grant was never written: the
            // pattern is not migratory after all. Fall back to plain
            // producer-consumer sharing.
            d.migratory = false;
        }
        if (oe->dirty) {
            // Dirty data implicitly writes back to home memory on the
            // downgrade (bandwidth only).
            dram_[home].reserveAt(t, kLineBytes);
        }
        oe->state = LineState::Shared;
        oe->dirty = false;
        d.sharers.set(owner);
        d.owner = -1;
    } else if (d.llcMask & (std::uint8_t(1) << s)) {
        t += cfg_.llcDataLat;
        llc_[s].touch(line);
        if (!prefetch) {
            ag.counters.llcHits++;
            telem_.llcHits++;
        }
    } else if (d.llcMask) {
        const int r = (d.llcMask & 1) ? 0 : 1;
        crossed = true;
        t = linkXfer(r, cfg_.ctrlMsgBytes, t);
        t += cfg_.remoteChaLat + cfg_.llcDataLat;
        t = linkXfer(s, cfg_.dataMsgBytes, t);
        llc_[r].touch(line);
    } else {
        if (home == s) {
            t = dramAccess(s, kLineBytes, t);
        } else {
            crossed = true;
            t = linkXfer(home, cfg_.ctrlMsgBytes, t);
            t += cfg_.remoteChaLat;
            t = dramAccess(home, kLineBytes, t);
            t = linkXfer(s, cfg_.dataMsgBytes, t);
        }
        if (!prefetch) {
            ag.counters.dramReads++;
            telem_.dramReads++;
        }
    }

    if (crossed) {
        if (!prefetch) {
            ag.counters.remoteReads++;
            telem_.remoteReads++;
            obs::tracepoint(obs::EventKind::CoherenceRemoteRead,
                            "read.miss", t, line);
            CCN_PROF(noteRemoteRead(
                line, a, supplier,
                cfg_.ctrlMsgBytes + cfg_.dataMsgBytes, t));
        } else {
            ag.counters.prefetchRemote++;
        }
    }

    d.busyUntil = t;
    const bool exclusive =
        d.owner < 0 && !d.sharers.any() && d.llcMask == 0;
    installL2(a, line,
              exclusive ? LineState::Exclusive : LineState::Shared,
              false, t);
    if (exclusive)
        d.owner = static_cast<std::int16_t>(a);
    else
        d.sharers.set(a);

    if (!prefetch)
        maybePrefetch(a, line, start);
    return t;
}

sim::Coro<void>
CoherentSystem::load(AgentId a, Addr addr, std::uint32_t bytes)
{
    agents_[a].counters.loads++;
    const Tick start = sim_.now();
    Tick done = start;
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    for (Addr l = first; l <= last; l += kLineBytes)
        done = std::max(done, walkLine(a, l, false, start, false));
    if (done > sim_.now())
        co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::store(AgentId a, Addr addr, std::uint32_t bytes)
{
    agents_[a].counters.stores++;
    const Tick start = sim_.now();
    Tick done = start;
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    for (Addr l = first; l <= last; l += kLineBytes)
        done = std::max(done, walkLine(a, l, true, start, false));
    if (done > sim_.now())
        co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::atomicRmw(AgentId a, Addr addr)
{
    agents_[a].counters.stores++;
    const Tick start = sim_.now();
    const Tick done =
        walkLine(a, lineOf(addr), true, start, false) +
        cfg_.atomicExtraLat;
    co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::flush(AgentId a, Addr addr, std::uint32_t bytes)
{
    const Tick start = sim_.now();
    Tick t = start;
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    const int s = agents_[a].socket;
    for (Addr l = first; l <= last; l += kLineBytes) {
        // CLFLUSHOPT: serialized per-line issue cost (§3.3 notes it is
        // expensive and per-line); dirty data writes back to home.
        t += cfg_.flushLat;
        LineDir &d = dir_[l];
        InvalResult inv = invalidateCopies(d, l, s, -1);
        if (inv.dirtyFound) {
            const int h = homeSocket(l);
            Tick wb = t;
            if (h != s)
                wb = linkXfer(h, cfg_.dataMsgBytes, wb);
            dram_[h].reserveAt(wb, kLineBytes);
        }
    }
    co_await sim_.delayUntil(t);
    co_return;
}

sim::Coro<void>
CoherentSystem::loadRange(AgentId a, Addr addr, std::uint64_t bytes)
{
    agents_[a].counters.loads++;
    const Tick start = sim_.now();
    const std::size_t window =
        static_cast<std::size_t>(cfg_.mshrsPerCore);
    std::deque<Tick> inflight;
    Tick done = start;
    Tick t = start;
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    for (Addr l = first; l <= last; l += kLineBytes) {
        Tick issue = t;
        if (inflight.size() == window) {
            issue = std::max(t, inflight.front());
            inflight.pop_front();
        }
        const Tick c = walkLine(a, l, false, issue, false);
        inflight.push_back(c);
        done = std::max(done, c);
        t = issue;
    }
    if (done > sim_.now())
        co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::storeRange(AgentId a, Addr addr, std::uint64_t bytes)
{
    agents_[a].counters.stores++;
    const Tick start = sim_.now();
    const std::size_t window =
        static_cast<std::size_t>(cfg_.mshrsPerCore);
    std::deque<Tick> inflight;
    Tick done = start;
    Tick t = start;
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    for (Addr l = first; l <= last; l += kLineBytes) {
        Tick issue = t;
        if (inflight.size() == window) {
            issue = std::max(t, inflight.front());
            inflight.pop_front();
        }
        const Tick c = walkLine(a, l, true, issue, false);
        inflight.push_back(c);
        done = std::max(done, c);
        t = issue;
    }
    // Logical state is published when the whole range completes;
    // extend each line's pending-write horizon so pollers woken by an
    // individual line's completion re-wait until the publish.
    for (Addr l = first; l <= last; l += kLineBytes) {
        LineDir &d = dir_[l];
        d.writeBusyUntil = std::max(d.writeBusyUntil, done);
    }
    if (done > sim_.now())
        co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::ntStoreRange(AgentId a, Addr addr, std::uint64_t bytes)
{
    const Tick start = sim_.now();
    const int s = agents_[a].socket;
    // NT stores drain through the line-fill/WC buffers: concurrency is
    // LFB-limited, well below the regular store-buffer depth.
    const std::size_t window = static_cast<std::size_t>(
        std::max(4, cfg_.wcBuffers / 3));
    std::deque<Tick> inflight;
    Tick done = start;
    Tick t = start;
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    for (Addr l = first; l <= last; l += kLineBytes) {
        agents_[a].counters.stores++;
        Tick issue = t;
        if (inflight.size() == window) {
            issue = std::max(t, inflight.front());
            inflight.pop_front();
        }
        LineDir &d = dir_[l];
        invalidateCopies(d, l, s, -1);
        l2_[a].erase(l); // NT stores never allocate locally.
        d.lastWriter = static_cast<std::int16_t>(a);
        d.migratory = false; // Streaming, not migratory.
        const int home = homeSocket(l);
        Tick c = std::max(issue, d.busyUntil) + cfg_.cycles(1.0);
        if (home != s) {
            // Remote NT write: ownership handshake over the link.
            c = upiInto_[home].reserveAt(c, cfg_.ntMsgBytes) +
                cfg_.upiHop;
        }
        c = dram_[home].reserveAt(c, kLineBytes) + cfg_.dramLat / 2;
        d.busyUntil = c;
        d.writeBusyUntil = std::max(d.writeBusyUntil, c);
        bumpVersion(d, l, c);
        inflight.push_back(c);
        done = std::max(done, c);
        t = issue;
    }
    if (done > sim_.now())
        co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::accessMulti(AgentId a, const std::vector<Span> &spans,
                            bool write)
{
    if (write)
        agents_[a].counters.stores++;
    else
        agents_[a].counters.loads++;
    const Tick start = sim_.now();
    const std::size_t window =
        static_cast<std::size_t>(cfg_.mshrsPerCore);
    std::deque<Tick> inflight;
    Tick done = start;
    Tick t = start;
    for (const Span &sp : spans) {
        if (sp.bytes == 0)
            continue;
        const Addr first = lineOf(sp.addr);
        const Addr last = lineOf(sp.addr + sp.bytes - 1);
        for (Addr l = first; l <= last; l += kLineBytes) {
            Tick issue = t;
            if (inflight.size() == window) {
                issue = std::max(t, inflight.front());
                inflight.pop_front();
            }
            const Tick c = walkLine(a, l, write, issue, false);
            inflight.push_back(c);
            done = std::max(done, c);
            t = issue;
        }
    }
    if (write) {
        // Publish-at-end semantics: see storeRange().
        for (const Span &sp : spans) {
            if (sp.bytes == 0)
                continue;
            const Addr first = lineOf(sp.addr);
            const Addr last = lineOf(sp.addr + sp.bytes - 1);
            for (Addr l = first; l <= last; l += kLineBytes) {
                LineDir &d = dir_[l];
                d.writeBusyUntil = std::max(d.writeBusyUntil, done);
            }
        }
    }
    if (done > sim_.now())
        co_await sim_.delayUntil(done);
    co_return;
}

sim::Coro<void>
CoherentSystem::postMulti(AgentId a, const std::vector<Span> &spans,
                          std::function<void()> on_complete)
{
    Agent &ag = agents_[a];
    ag.counters.stores++;

    // Store-buffer admission: wait until there is room for the new
    // lines among the outstanding posted stores.
    std::uint64_t lines = 0;
    for (const Span &sp : spans)
        lines += linesCovered(sp.addr, sp.bytes);
    const std::size_t depth =
        static_cast<std::size_t>(cfg_.storeBufDepth);
    while (!ag.posted.empty() && ag.posted.front() <= sim_.now())
        ag.posted.pop_front();
    if (ag.posted.size() + lines > depth &&
        ag.posted.size() >= lines) {
        const Tick wait_for =
            ag.posted[ag.posted.size() - std::min(ag.posted.size(),
                                                  static_cast<std::size_t>(
                                                      lines))];
        co_await sim_.delayUntil(wait_for);
        while (!ag.posted.empty() && ag.posted.front() <= sim_.now())
            ag.posted.pop_front();
    }

    const Tick start = sim_.now();
    const std::size_t window =
        static_cast<std::size_t>(cfg_.mshrsPerCore);
    std::deque<Tick> inflight;
    Tick done = start;
    Tick t = start;
    for (const Span &sp : spans) {
        if (sp.bytes == 0)
            continue;
        const Addr first = lineOf(sp.addr);
        const Addr last = lineOf(sp.addr + sp.bytes - 1);
        for (Addr l = first; l <= last; l += kLineBytes) {
            Tick issue = t;
            if (inflight.size() == window) {
                issue = std::max(t, inflight.front());
                inflight.pop_front();
            }
            const Tick c = walkLine(a, l, true, issue, false);
            inflight.push_back(c);
            done = std::max(done, c);
            t = issue;
            ag.posted.push_back(c);
        }
    }
    std::sort(ag.posted.begin(), ag.posted.end());

    // TSO: a later posted write never becomes visible before an
    // earlier one from the same core.
    done = std::max(done, ag.lastPostedPublish);
    ag.lastPostedPublish = done;
    for (const Span &sp : spans) {
        if (sp.bytes == 0)
            continue;
        const Addr first = lineOf(sp.addr);
        const Addr last = lineOf(sp.addr + sp.bytes - 1);
        for (Addr l = first; l <= last; l += kLineBytes) {
            LineDir &d = dir_[l];
            d.writeBusyUntil = std::max(d.writeBusyUntil, done);
        }
    }
    if (on_complete) {
        if (done > sim_.now())
            sim_.scheduleCallback(done, std::move(on_complete));
        else
            on_complete();
    }
    // The issuing core only pays a small retire cost.
    co_await sim_.delay(cfg_.cycles(1.0 + 0.5 * static_cast<double>(
                                              lines)));
    co_return;
}

sim::Coro<void>
CoherentSystem::waitLineChangeUntil(Addr line,
                                    std::uint32_t seen_version,
                                    sim::Tick deadline)
{
    if (faultsArmed_) {
        auto st = stuck_.find(lineOf(line));
        if (st != stuck_.end() && st->second.until > sim_.now()) {
            // Invalidation stuck: the poller's cached copy never
            // changes, so it sleeps out the window (or its deadline).
            co_await sim_.delayUntil(
                std::min(deadline, st->second.until));
            co_return;
        }
    }
    LineDir &d = dir_[lineOf(line)];
    if (d.version != seen_version || deadline <= sim_.now())
        co_return;
    if (d.writeBusyUntil > sim_.now()) {
        co_await sim_.delayUntil(
            std::min(deadline, d.writeBusyUntil));
        co_return;
    }
    co_await gateFor(lineOf(line)).waitUntil(deadline);
    co_return;
}

void
CoherentSystem::touchLine(AgentId a, Addr line)
{
    line = lineOf(line);
    if (l2_[a].find(line))
        return;
    agents_[a].counters.loads++;
    walkLine(a, line, false, sim_.now(), false);
}

std::uint32_t
CoherentSystem::lineVersion(Addr line)
{
    if (faultsArmed_) {
        auto st = stuck_.find(lineOf(line));
        if (st != stuck_.end()) {
            if (st->second.until > sim_.now())
                return st->second.heldVersion;
            stuck_.erase(st);
        }
    }
    return dir_[lineOf(line)].version;
}

sim::Coro<void>
CoherentSystem::waitLineChange(Addr line, std::uint32_t seen_version)
{
    if (faultsArmed_) {
        auto st = stuck_.find(lineOf(line));
        if (st != stuck_.end() && st->second.until > sim_.now()) {
            co_await sim_.delayUntil(st->second.until);
            co_return;
        }
    }
    LineDir &d = dir_[lineOf(line)];
    if (d.version != seen_version)
        co_return;
    if (d.writeBusyUntil > sim_.now()) {
        // A write on this line is still in flight; its completion is
        // the wakeup (this closes the lost-wakeup window for waiters
        // arriving after the write's walk but before its completion).
        // Read transfers deliberately do not wake pollers.
        co_await sim_.delayUntil(d.writeBusyUntil);
        co_return;
    }
    co_await gateFor(lineOf(line)).wait();
    co_return;
}

Tick
CoherentSystem::ddioWrite(int socket, Addr addr, std::uint32_t bytes,
                          Tick start)
{
    Tick t = start + cfg_.chaLookupLat;
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    for (Addr l = first; l <= last; l += kLineBytes) {
        LineDir &d = dir_[l];
        invalidateCopies(d, l, socket, -1);
        insertLlc(socket, l, true);
        d.lastWriter = -1;
        d.migratory = false;
        d.writeBusyUntil = std::max(d.writeBusyUntil, t);
        bumpVersion(d, l, t);
        telem_.ddioWrites++;
    }
    return t;
}

Tick
CoherentSystem::dmaRead(int socket, Addr addr, std::uint32_t bytes,
                        Tick start)
{
    Tick done = start;
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    for (Addr l = first; l <= last; l += kLineBytes) {
        LineDir &d = dir_[l];
        Tick t = start + cfg_.chaLookupLat;
        CacheEntry *oe = nullptr;
        if (d.owner >= 0)
            oe = l2_[d.owner].find(l);
        if (oe) {
            const int os = agents_[d.owner].socket;
            t += (os == socket) ? cfg_.snoopFwdLocal
                                : (2 * cfg_.upiHop + cfg_.remoteChaLat +
                                   cfg_.snoopFwdRemote);
        } else if (d.llcMask & (std::uint8_t(1) << socket)) {
            t += cfg_.llcDataLat;
            llc_[socket].touch(l);
        } else {
            t = dramAccess(homeSocket(l), kLineBytes, t);
        }
        done = std::max(done, t);
    }
    return done;
}

void
CoherentSystem::injectPoison(Addr line, Tick hold)
{
    faultsArmed_ = true;
    line = lineOf(line);
    Tick &until = poisoned_[line];
    until = std::max(until, sim_.now() + hold);
    telem_.poisonInjected++;
    obs::tracepoint(obs::EventKind::Custom, "mem.fault.poison",
                    sim_.now(), line);
}

void
CoherentSystem::injectTorn(Addr line, Tick hold)
{
    faultsArmed_ = true;
    line = lineOf(line);
    Tick &until = torn_[line];
    until = std::max(until, sim_.now() + hold);
    telem_.tornInjected++;
    obs::tracepoint(obs::EventKind::Custom, "mem.fault.torn",
                    sim_.now(), line);
}

void
CoherentSystem::injectStuck(Addr line, Tick hold)
{
    faultsArmed_ = true;
    line = lineOf(line);
    StuckFault &f = stuck_[line];
    f.until = std::max(f.until, sim_.now() + hold);
    f.heldVersion = dir_[line].version;
    telem_.stuckInjected++;
    obs::tracepoint(obs::EventKind::Custom, "mem.fault.stuck",
                    sim_.now(), line);
}

void
CoherentSystem::injectBrownout(AgentId a, double factor, Tick hold)
{
    faultsArmed_ = true;
    BrownoutFault &f = brownouts_[a];
    f.factor = std::max(f.factor, factor);
    f.until = std::max(f.until, sim_.now() + hold);
    telem_.brownouts++;
    obs::tracepoint(obs::EventKind::Custom, "mem.fault.brownout",
                    sim_.now(), static_cast<Addr>(a));
}

bool
CoherentSystem::rangePoisoned(Addr addr, std::uint32_t bytes)
{
    if (!faultsArmed_ || poisoned_.empty())
        return false;
    const Tick now = sim_.now();
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    bool hit = false;
    for (Addr l = first; l <= last; l += kLineBytes) {
        auto it = poisoned_.find(l);
        if (it == poisoned_.end())
            continue;
        if (it->second > now) {
            hit = true;
        } else {
            poisoned_.erase(it);
        }
    }
    if (hit)
        telem_.poisonReads++;
    return hit;
}

bool
CoherentSystem::rangeStale(Addr addr, std::uint32_t bytes)
{
    if (!faultsArmed_ || (torn_.empty() && stuck_.empty()))
        return false;
    const Tick now = sim_.now();
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    bool stale = false;
    for (Addr l = first; l <= last; l += kLineBytes) {
        auto it = torn_.find(l);
        if (it != torn_.end()) {
            if (it->second > now) {
                stale = true;
                telem_.tornStaleReads++;
            } else {
                torn_.erase(it);
            }
        }
        auto st = stuck_.find(l);
        if (st != stuck_.end()) {
            if (st->second.until > now)
                stale = true;
            else
                stuck_.erase(st);
        }
    }
    return stale;
}

void
CoherentSystem::setPrefetch(int socket, bool enabled)
{
    prefetchOn_[socket] = enabled;
}

void
CoherentSystem::scaleRemotePerf(double lat_factor, double bw_factor)
{
    auto scale = [lat_factor](Tick &t) {
        t = static_cast<Tick>(static_cast<double>(t) * lat_factor + 0.5);
    };
    scale(cfg_.upiHop);
    scale(cfg_.remoteChaLat);
    scale(cfg_.snoopFwdRemote);
    for (auto &link : upiInto_)
        link.setRate(link.rate() * bw_factor);
}

std::uint64_t
CoherentSystem::upiBytesInto(int socket) const
{
    return upiInto_[socket].bytesServed();
}

void
CoherentSystem::resetStats()
{
    for (auto &ag : agents_)
        ag.counters.reset();
    for (auto &link : upiInto_)
        link.resetStats();
    for (auto &d : dram_)
        d.resetStats();
}

void
CoherentSystem::dropCaches()
{
    for (auto &c : l2_)
        c.clear();
    for (auto &c : llc_)
        c.clear();
    for (auto &[line, d] : dir_) {
        d.owner = -1;
        d.sharers.reset();
        d.llcMask = 0;
        d.llcDirty = 0;
    }
    for (auto &ag : agents_) {
        ag.lastMissLine = 0;
        ag.missStreak = 0;
    }
}

} // namespace ccn::mem
