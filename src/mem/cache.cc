#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ccn::mem {

namespace {

/** Largest power of two not exceeding @p v (v >= 1). */
std::uint32_t
floorPow2(std::uint32_t v)
{
    return std::uint32_t{1} << (31 - std::countl_zero(v));
}

} // namespace

SetAssocCache::SetAssocCache(std::uint32_t total_lines, std::uint32_t ways)
    : numSets_(floorPow2(std::max<std::uint32_t>(1, total_lines / ways))),
      ways_(ways)
{
    const std::size_t n = static_cast<std::size_t>(numSets_) * ways_;
    tags_.assign(n, kNoLine);
    entries_.resize(n);
}

std::size_t
SetAssocCache::setBase(Addr line) const
{
    // Hash the line number over the sets. Using the raw line index
    // modulo sets preserves the real stride-conflict behaviour that the
    // paper's small-buffer optimization depends on (4KB-strided buffers
    // landing in a fraction of the sets).
    return static_cast<std::size_t>((line / kLineBytes) & (numSets_ - 1)) *
           ways_;
}

std::ptrdiff_t
SetAssocCache::wayOf(Addr line) const
{
    assert(line != kNoLine);
    const std::size_t base = setBase(line);
    const Addr *tags = &tags_[base];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (tags[w] == line)
            return static_cast<std::ptrdiff_t>(base + w);
    }
    return -1;
}

CacheEntry *
SetAssocCache::find(Addr line)
{
    const std::ptrdiff_t i = wayOf(line);
    return i < 0 ? nullptr : &entries_[static_cast<std::size_t>(i)];
}

const CacheEntry *
SetAssocCache::find(Addr line) const
{
    const std::ptrdiff_t i = wayOf(line);
    return i < 0 ? nullptr : &entries_[static_cast<std::size_t>(i)];
}

CacheEntry *
SetAssocCache::touch(Addr line)
{
    CacheEntry *e = find(line);
    if (e)
        e->lruStamp = ++stamp_;
    return e;
}

CacheEntry *
SetAssocCache::insert(Addr line, LineState state, bool dirty,
                      Eviction *evicted)
{
    assert(find(line) == nullptr && "line already present");
    if (evicted)
        evicted->valid = false;

    // The first invalid way, else the least recently used one.
    const std::size_t base = setBase(line);
    std::size_t v = base;
    for (std::size_t i = base; i < base + ways_; ++i) {
        if (tags_[i] == kNoLine) {
            v = i;
            break;
        }
        if (entries_[i].lruStamp < entries_[v].lruStamp)
            v = i;
    }

    CacheEntry *victim = &entries_[v];
    if (tags_[v] != kNoLine && evicted) {
        evicted->valid = true;
        evicted->line = tags_[v];
        evicted->state = victim->state;
        evicted->dirty = victim->dirty;
    }

    tags_[v] = line;
    victim->state = state;
    victim->dirty = dirty;
    victim->readyAt = 0;
    victim->wasPrefetch = false;
    victim->lruStamp = ++stamp_;
    return victim;
}

bool
SetAssocCache::erase(Addr line)
{
    const std::ptrdiff_t i = wayOf(line);
    if (i < 0)
        return false;
    tags_[static_cast<std::size_t>(i)] = kNoLine;
    CacheEntry &e = entries_[static_cast<std::size_t>(i)];
    e.state = LineState::Invalid;
    e.dirty = false;
    return true;
}

void
SetAssocCache::clear()
{
    std::fill(tags_.begin(), tags_.end(), kNoLine);
    for (auto &e : entries_) {
        e.state = LineState::Invalid;
        e.dirty = false;
    }
}

std::uint64_t
SetAssocCache::countValid() const
{
    std::uint64_t n = 0;
    for (const auto &e : entries_) {
        if (e.valid())
            ++n;
    }
    return n;
}

} // namespace ccn::mem
