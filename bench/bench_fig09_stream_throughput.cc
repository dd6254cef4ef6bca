/**
 * @file
 * Figure 9 reproduction: cross-UPI stream transfer throughput with
 * caching vs nontemporal stores, as a function of core-pair count.
 */

#include "bench/common.hh"
#include "stats/json.hh"

using namespace ccn;

namespace {

struct StreamState
{
    sim::Tick measureEnd = 0;
    std::uint64_t bytesRead = 0;
};

/** Writer: streams chunks into a shared region; reader copies out. */
sim::Task
writerTask(mem::CoherentSystem &m, sim::Simulator &simv, mem::AgentId a,
           mem::Addr base, std::uint64_t region, bool caching,
           std::uint64_t *chunks_done, StreamState *st)
{
    const std::uint32_t chunk = 32 * 1024;
    std::uint64_t off = 0;
    while (simv.now() < st->measureEnd) {
        if (caching) {
            const std::vector<mem::CoherentSystem::Span> range{
                {base + off, chunk}};
            co_await m.accessMulti(a, range, true);
        } else {
            co_await m.ntStoreRange(a, base + off, chunk);
        }
        off = (off + chunk) % region;
        (*chunks_done)++;
    }
}

sim::Task
readerTask(mem::CoherentSystem &m, sim::Simulator &simv, mem::AgentId a,
           mem::Addr base, std::uint64_t region,
           std::uint64_t *writer_chunks, StreamState *st)
{
    const std::uint32_t chunk = 32 * 1024;
    std::uint64_t off = 0;
    std::uint64_t consumed = 0;
    while (simv.now() < st->measureEnd) {
        if (consumed >= *writer_chunks) {
            co_await simv.delay(sim::fromNs(500.0));
            continue;
        }
        const std::vector<mem::CoherentSystem::Span> range{
            {base + off, chunk}};
        co_await m.accessMulti(a, range, false);
        off = (off + chunk) % region;
        consumed++;
        st->bytesRead += chunk;
    }
}

double
streamGbps(const mem::PlatformConfig &plat, int pairs, bool caching)
{
    sim::Simulator simv;
    mem::CoherentSystem m(simv, plat);
    StreamState st;
    st.measureEnd = sim::fromUs(150.0);
    // Total shared footprint capped so directory state stays bounded.
    const std::uint64_t region =
        std::max<std::uint64_t>(1, 32 / pairs) * 1024 * 1024;
    std::vector<std::uint64_t> chunks(pairs, 0);
    for (int p = 0; p < pairs; ++p) {
        const mem::AgentId w = m.addAgent(0);
        const mem::AgentId r = m.addAgent(1);
        // Caching case homes the stream on the writer socket; the NT
        // case targets reader-socket DRAM (the MMIO-like path).
        mem::Addr base = m.alloc(caching ? 0 : 1, region, 4096);
        simv.spawn(writerTask(m, simv, w, base, region, caching,
                              &chunks[p], &st));
        simv.spawn(readerTask(m, simv, r, base, region, &chunks[p],
                              &st));
    }
    simv.run(st.measureEnd + sim::fromUs(5.0));
    return sim::bytesOverTicksToGbps(
        static_cast<double>(st.bytesRead), st.measureEnd);
}

} // namespace

int
main()
{
    stats::JsonReport json("fig09_stream_throughput");
    stats::banner("Figure 9: stream throughput, caching vs NT [Gbps]");
    stats::Table t({"platform", "pairs", "caching", "nontemporal",
                    "paper_anchor"});
    auto icx = mem::icxConfig();
    auto spr = mem::sprConfig();
    for (int pairs : {1, 2, 4, 8, 16}) {
        t.row()
            .cell("ICX")
            .cell(pairs)
            .cell(streamGbps(icx, pairs, true), 1)
            .cell(streamGbps(icx, pairs, false), 1)
            .cell(pairs == 16 ? "caching ~1.8x NT; sat ~443Gbps" : "-");
    }
    for (int pairs : {1, 4, 8, 16, 24, 32}) {
        t.row()
            .cell("SPR")
            .cell(pairs)
            .cell(streamGbps(spr, pairs, true), 1)
            .cell(streamGbps(spr, pairs, false), 1)
            .cell(pairs == 32 ? "caching ~1.6x NT; sat ~1020Gbps" : "-");
    }
    t.print();
    json.add("stream_throughput", t);
    ccn::bench::addObsSections(json);
    json.write();
    return 0;
}
