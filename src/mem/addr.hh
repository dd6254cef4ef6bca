/**
 * @file
 * Simulated physical address helpers.
 *
 * The simulated address space is partitioned by home socket: bit 44
 * selects the socket whose memory controller homes the line. Cache
 * lines are 64B throughout, matching the UPI transfer granularity the
 * paper's design decisions revolve around.
 */

#ifndef CCN_MEM_ADDR_HH
#define CCN_MEM_ADDR_HH

#include <cstdint>

namespace ccn::mem {

/** Simulated physical address. */
using Addr = std::uint64_t;

/** Cache line size in bytes (§3.2: "the 64B cache line"). */
inline constexpr std::uint32_t kLineBytes = 64;

/** Bit selecting the home socket of an address. */
inline constexpr int kSocketBit = 44;

/** Align an address down to its cache line. */
constexpr Addr
lineOf(Addr a)
{
    return a & ~static_cast<Addr>(kLineBytes - 1);
}

/** Offset of an address within its cache line. */
constexpr std::uint32_t
lineOffset(Addr a)
{
    return static_cast<std::uint32_t>(a & (kLineBytes - 1));
}

/** Home socket of an address. */
constexpr int
homeSocket(Addr a)
{
    return static_cast<int>((a >> kSocketBit) & 1);
}

/** Base address of a socket's memory. */
constexpr Addr
socketBase(int socket)
{
    return static_cast<Addr>(socket) << kSocketBit;
}

/**
 * Call @p fn(line) for each cache line of [addr, addr+bytes). A
 * zero-byte range covers @p addr's line.
 */
template <typename Fn>
constexpr void
forEachLine(Addr addr, std::uint64_t bytes, Fn &&fn)
{
    const Addr last = lineOf(addr + (bytes ? bytes - 1 : 0));
    for (Addr l = lineOf(addr); l <= last; l += kLineBytes)
        fn(l);
}

/** Number of cache lines covered by [addr, addr+bytes). */
constexpr std::uint64_t
linesCovered(Addr addr, std::uint64_t bytes)
{
    if (bytes == 0)
        return 0;
    const Addr first = lineOf(addr);
    const Addr last = lineOf(addr + bytes - 1);
    return (last - first) / kLineBytes + 1;
}

} // namespace ccn::mem

#endif // CCN_MEM_ADDR_HH
