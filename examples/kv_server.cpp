/**
 * @file
 * Example: a key-value store served over CC-NIC (the paper's §5.7
 * application study in miniature). Clients on the far side of a
 * CX6-capped wire issue 95% GET / 5% SET requests against 64K objects
 * drawn from the Ads size distribution; the server uses zero-copy
 * multi-segment GET responses.
 */

#include <cstdio>

#include "apps/kvstore.hh"
#include "ccnic/ccnic.hh"
#include "mem/platform.hh"

using namespace ccn;

int
main()
{
    auto plat = mem::icxConfig();
    sim::Simulator simv;
    mem::CoherentSystem system(simv, plat);
    sim::Rng rng(5);

    const int threads = 4;
    auto cfg = ccnic::optimizedConfig(threads, 0, plat);
    cfg.loopback = false;
    ccnic::CcNic nic(simv, system, cfg, 0, 1, rng);
    nic.start();

    apps::WireModel wire(simv, 76e6, 25e9);
    apps::KvConfig kv;
    kv.serverThreads = threads;
    kv.numObjects = 1u << 16;
    kv.sizes = workload::SizeDist::ads();
    kv.window = sim::fromUs(200.0);

    auto r = apps::runKvStore(simv, system, nic, wire, kv);

    std::printf("KV store over CC-NIC: %d server threads served "
                "%.1f Mops/s (%.0f Gbps of responses)\n",
                threads, r.mopsPerSec, r.gbpsOut);
    return 0;
}
