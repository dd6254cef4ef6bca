/**
 * @file
 * Figure 16 reproduction: 64B packet rate relative to maximum as a
 * function of TX and RX batch size, CC-NIC vs E810 vs PIO on ICX. The
 * paper's anchors: unbatched TX gives 27% of peak on CC-NIC vs 12% on
 * E810; RX batching matters little (>=93% vs >=63%). The PIO column
 * extends the comparison to the third interface family: with no
 * descriptor ring to amortize, batching buys PIO mostly software-loop
 * amortization, so its unbatched fraction sits above the ring
 * interfaces'.
 *
 * Figure 16c extends the sweep to *signal* coalescing (BatchPolicy):
 * the application submits one packet per burst (txBatch=1, the
 * anti-amortized worst case above) and the driver coalesces signal
 * publication across bursts — CC-NIC batches descriptor publishes
 * into one posted-store flush, the E810 defers its MMIO doorbell, and
 * PIO coalesces credit returns. Reported per point: peak msgs/s plus
 * the DescPublish->NicObserve span distribution, the stage pair the
 * coalescing attacks (the hold time itself lands in
 * HostEnqueue->BatchFlush and so cannot hide in this pair).
 */

#include "bench/common.hh"
#include "obs/span.hh"
#include "stats/json.hh"

#include <limits>
#include <string>

using namespace ccn;
using namespace ccn::bench;

namespace {

double
peakAt(const std::function<std::unique_ptr<World>()> &mk, int tx_b,
       int rx_b, double guess)
{
    workload::LoopbackConfig cfg;
    cfg.threads = 8;
    cfg.txBatch = tx_b;
    cfg.rxBatch = rx_b;
    return findPeak(mk, cfg, guess).achievedMpps;
}

} // namespace

int
main()
{
    stats::JsonReport json("fig16_batching");
    auto icx = mem::icxConfig();
    auto mkCc = worldFactory("ccnic", icx, 8);
    auto mkE810 = worldFactory("pcie_e810", icx, 8);
    auto mkPio = worldFactory("pio", icx, 8);

    const double cc_max = peakAt(mkCc, 32, 32, 190e6);
    const double e_max = peakAt(mkE810, 32, 32, 100e6);
    const double p_max = peakAt(mkPio, 32, 32, 100e6);

    stats::banner("Figure 16a: TX batch sweep (RX fixed 32), 64B");
    stats::Table a({"tx_batch", "CC-NIC_frac", "E810_frac", "PIO_frac",
                    "paper"});
    for (int b : {1, 2, 4, 8, 16, 32}) {
        a.row().cell(b)
            .cell(peakAt(mkCc, b, 32, cc_max * 1e6 * 1.1) / cc_max, 2)
            .cell(peakAt(mkE810, b, 32, e_max * 1e6 * 1.1) / e_max, 2)
            .cell(peakAt(mkPio, b, 32, p_max * 1e6 * 1.1) / p_max, 2)
            .cell(b == 1 ? "paper: 0.27 vs 0.12" : "-");
    }
    a.print();
    json.add("tx_batch_sweep", a);

    stats::banner("Figure 16b: RX batch sweep (TX fixed 32), 64B");
    stats::Table r({"rx_batch", "CC-NIC_frac", "E810_frac", "PIO_frac",
                    "paper"});
    for (int b : {1, 2, 4, 8, 16, 32}) {
        r.row().cell(b)
            .cell(peakAt(mkCc, 32, b, cc_max * 1e6 * 1.1) / cc_max, 2)
            .cell(peakAt(mkE810, 32, b, e_max * 1e6 * 1.1) / e_max, 2)
            .cell(peakAt(mkPio, 32, b, p_max * 1e6 * 1.1) / p_max, 2)
            .cell(b == 1 ? "paper: >=0.93 vs >=0.63" : "-");
    }
    r.print();
    json.add("rx_batch_sweep", r);

    stats::banner("Figure 16c: publish-batch sweep (signal "
                  "coalescing, TX batch 1), 64B");
    struct Family
    {
        const char *key;       ///< worldFactory key.
        const char *spanPath;  ///< SpanTable path the NIC commits to.
        double guessPps;
    };
    const Family fams[] = {
        {"ccnic", "ccnic", 60e6},
        {"pcie_e810", "E810", 20e6},
        {"pio", "pio", 60e6},
    };
    stats::Table p({"family", "batch", "mpps", "pub_obs_mean_ns",
                    "pub_obs_p0_ns", "pub_obs_p50_ns",
                    "pub_obs_p99_ns", "pub_obs_p100_ns"});
    // CC-NIC's unbatched and batch=4 points, for the summary verdict
    // (a point without DescPublish samples keeps an infinite mean).
    struct Point
    {
        double mpps = 0.0;
        double pubObsMeanNs = std::numeric_limits<double>::infinity();
    };
    Point cc_off, cc_b4;
    for (const Family &f : fams) {
        for (const char *spec :
             {"off", "2", "4", "8", "16", "adaptive"}) {
            // Per-point span isolation: each (family, batch) cell
            // gets its own DescPublish->NicObserve distribution.
            obs::SpanTable::global().reset();
            auto mk = worldFactory(f.key, icx, 8, true, spec);
            workload::LoopbackConfig cfg;
            cfg.threads = 8;
            cfg.txBatch = 1; // One packet per burst: coalescing does
                             // all the amortization or none happens.
            cfg.rxBatch = 32;
            const auto res = findPeak(mk, cfg, f.guessPps);
            const stats::Histogram *h =
                obs::SpanTable::global().stageHist(
                    f.spanPath,
                    static_cast<std::size_t>(
                        obs::SpanStage::DescPublish));
            auto ns = [](double ticks) {
                return sim::toNs(static_cast<sim::Tick>(ticks));
            };
            auto &row = p.row()
                            .cell(familyLabel(f.key))
                            .cell(spec)
                            .cell(res.achievedMpps, 2);
            Point pt{res.achievedMpps};
            if (h != nullptr && h->count() > 0) {
                pt.pubObsMeanNs = ns(h->mean());
                row.cell(ns(h->mean()), 1)
                    .cell(ns(static_cast<double>(h->min())), 1)
                    .cell(ns(h->percentile(50.0)), 1)
                    .cell(ns(h->percentile(99.0)), 1)
                    .cell(ns(static_cast<double>(h->max())), 1);
            } else {
                row.cell("-").cell("-").cell("-").cell("-").cell("-");
            }
            if (std::string(f.key) == "ccnic") {
                if (std::string(spec) == "off")
                    cc_off = pt;
                else if (std::string(spec) == "4")
                    cc_b4 = pt;
            }
        }
    }
    p.print();
    json.add("publish_batch_sweep", p);

    // The coalescing acceptance check: on the coherent path, batch=4
    // must raise the rate *and* shorten DescPublish->NicObserve.
    stats::Table s({"metric", "value"});
    s.row()
        .cell("CC-NIC batch=4 beats off")
        .cell(cc_b4.mpps > cc_off.mpps &&
                      cc_b4.pubObsMeanNs < cc_off.pubObsMeanNs
                  ? "yes"
                  : "no");
    s.print();
    json.add("summary", s);

    ccn::bench::addObsSections(json);
    json.write();
    return 0;
}
