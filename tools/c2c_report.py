#!/usr/bin/env python3
"""perf-c2c-style report over the coherence-profiler JSON sections.

Reads a bench/scenario report (BENCH_*.json) carrying the profiler's
"coherence" / "coherence_hotlines" / "coherence_matrix" sections and
renders the cache-to-cache contention view perf c2c gives on real
hardware: per-region traffic totals with attribution, the top
contended lines with their ping-pong classification, and the
requester/supplier traffic matrix.

Line classes (assigned by the in-simulator detector):
  two_way        intended two-way handoff line (head/tail signal
                 words, PIO slots) — flipping owner is the design.
  thrash         an owner-intent line whose ownership alternates
                 faster than the flip threshold: accidental
                 contention (e.g. packed descriptor+signal lines).
  false_sharing  a flipping line spanning two or more distinct
                 regions: disjoint data sharing one 64B line.
  -              below the flip threshold (no verdict).

Modes:
  c2c_report.py REPORT                      render the report
  c2c_report.py REPORT --diff OLD           diff two runs per region
  c2c_report.py --selftest

CI checks over these sections live in the bench baselines and run
through tools/counters_gate.py.
"""

import argparse
import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return profiler_sections(json.load(f), path)


def profiler_sections(doc: dict, path: str) -> dict:
    sections = doc.get("sections", {})
    missing = [s for s in ("coherence", "coherence_hotlines",
                           "coherence_matrix") if s not in sections]
    if missing:
        raise SystemExit(
            f"FAIL: {path} lacks profiler section(s): "
            + ", ".join(missing)
            + " (run the bench with --profile-coherence)")
    return sections


def rows_of(sections: dict, name: str) -> list:
    return sections[name]["rows"]


def fmt_table(header: list, rows: list) -> str:
    widths = [len(h) for h in header]
    srows = []
    for r in rows:
        sr = [str(c) for c in r]
        srows.append(sr)
        for i, c in enumerate(sr):
            widths[i] = max(widths[i], len(c))
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    out.append("-" * len(out[0]))
    for sr in srows:
        out.append("  ".join(c.ljust(w) for c, w in zip(sr, widths)))
    return "\n".join(out)


def attribution(regions: list):
    """(attributed_fraction, attributed, total) over reads+RFOs."""
    total = attributed = 0
    for r in regions:
        t = r["remote_reads"] + r["remote_rfos"]
        total += t
        if r["region"] != "unknown":
            attributed += t
    frac = attributed / total if total else 1.0
    return frac, attributed, total


def render(sections: dict) -> None:
    regions = rows_of(sections, "coherence")
    frac, attributed, total = attribution(regions)
    print("=== Shared cache-line contention (perf-c2c style) ===\n")
    print(f"remote reads+RFOs: {total}  attributed to named regions: "
          f"{attributed} ({100.0 * frac:.1f}%)\n")

    print("--- per-region traffic ---")
    hdr = ["region", "intent", "lines", "rmt_reads", "rmt_RFOs",
           "invals", "migratory", "bytes", "pingpong"]
    body = []
    for r in sorted(regions, key=lambda r: -(r["remote_reads"]
                                             + r["remote_rfos"])):
        if r["region"] == "unknown" and r["remote_reads"] \
                + r["remote_rfos"] == 0:
            continue
        body.append([r["region"], r["intent"], r["lines"],
                     r["remote_reads"], r["remote_rfos"],
                     r["invalidations"], r["migratory"], r["bytes"],
                     r["pingpong_lines"]])
    print(fmt_table(hdr, body))

    hot = rows_of(sections, "coherence_hotlines")
    print("\n--- top contended lines ---")
    hdr = ["#", "region", "off", "rmt_reads", "rmt_RFOs", "flips",
           "peak_window_flips", "class"]
    body = [[r["rank"], r["region"], r["offset"], r["remote_reads"],
             r["remote_rfos"], r["flips"], r["peak_window_flips"],
             r["class"]] for r in hot]
    print(fmt_table(hdr, body))

    mat = rows_of(sections, "coherence_matrix")
    print("\n--- requester/supplier traffic (top 20 by bytes) ---")
    hdr = ["region", "requester", "supplier", "reads", "rfos",
           "bytes"]
    body = [[r["region"], r["requester"], r["supplier"], r["reads"],
             r["rfos"], r["bytes"]]
            for r in sorted(mat, key=lambda r: -r["bytes"])[:20]]
    print(fmt_table(hdr, body))


def diff(sections: dict, old_sections: dict) -> None:
    """Per-region traffic delta between two runs."""
    def keyed(secs):
        return {r["region"]: r for r in rows_of(secs, "coherence")}

    new, old = keyed(sections), keyed(old_sections)
    print("=== per-region coherence diff (new - old) ===")
    hdr = ["region", "rmt_reads", "rmt_RFOs", "migratory", "bytes",
           "pingpong"]
    body = []
    for name in sorted(set(new) | set(old)):
        n = new.get(name)
        o = old.get(name)
        z = {"remote_reads": 0, "remote_rfos": 0, "migratory": 0,
             "bytes": 0, "pingpong_lines": 0}
        n = n or z
        o = o or z

        def d(k):
            delta = n[k] - o[k]
            return f"{delta:+d}" if delta else "0"

        if all(n[k] == o[k] for k in z):
            continue
        body.append([name, d("remote_reads"), d("remote_rfos"),
                     d("migratory"), d("bytes"), d("pingpong_lines")])
    if body:
        print(fmt_table(hdr, body))
    else:
        print("no per-region differences")


# ---------------------------------------------------------------------------
# Self-test (registered as a ctest entry).

def _region(name, intent="two_way", rr=0, rfo=0, inv=0, mig=0,
            byts=0, pp=0, lines=1):
    return {"region": name, "intent": intent, "lines": lines,
            "remote_reads": rr, "remote_rfos": rfo,
            "invalidations": inv, "migratory": mig, "bytes": byts,
            "pingpong_lines": pp}


def _report(regions, hot=None, matrix=None) -> dict:
    return {
        "bench": "selftest",
        "sections": {
            "coherence": {"columns": [], "rows": regions},
            "coherence_hotlines": {"columns": [], "rows": hot or []},
            "coherence_matrix": {"columns": [],
                                 "rows": matrix or []},
        },
    }


def selftest() -> int:
    good = _report([
        _region("ccnic.tx_ring[q0]", "two_way", rr=1000, rfo=500),
        _region("pack16.tx_ring[q0]", "owned", rr=900, rfo=700,
                pp=12),
        _region("unknown", "-", rr=10, rfo=5),
    ], hot=[{"rank": 1, "region": "pack16.tx_ring[q0]", "offset": 64,
             "remote_reads": 90, "remote_rfos": 70,
             "invalidations": 70, "migratory": 0, "bytes": 9600,
             "flips": 120, "peak_window_flips": 15,
             "class": "thrash"}],
       matrix=[{"region": "ccnic.tx_ring[q0]", "requester": 0,
                "supplier": 1, "reads": 1000, "rfos": 500,
                "bytes": 96000}])
    secs = profiler_sections(good, "good")
    render(secs)  # must not raise
    diff(secs, secs)
    diff(secs, profiler_sections(_report([]), "empty"))

    # A report missing the profiler sections must fail loudly.
    try:
        profiler_sections({"bench": "x", "sections": {}}, "missing")
    except SystemExit:
        pass
    else:
        print("SELFTEST FAIL: sectionless report accepted",
              file=sys.stderr)
        return 1

    print("c2c report selftest passed")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("report", nargs="?")
    ap.add_argument("--diff", metavar="OLD",
                    help="second report to diff per-region traffic "
                         "against")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    if not args.report:
        ap.error("report path required (or use --selftest)")

    sections = load(args.report)
    if args.diff:
        diff(sections, load(args.diff))
    else:
        render(sections)
    return 0


if __name__ == "__main__":
    sys.exit(main())
