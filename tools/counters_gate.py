#!/usr/bin/env python3
"""CI gate over a bench or scenario report, driven by its baseline.

Every check the gate runs is stated in the baseline file; nothing
depends on which bench made the report.

    counters_gate.py REPORT --baseline BASELINE      gate a report
    counters_gate.py REPORT --write-baseline OUT     record a baseline
    counters_gate.py --selftest

Baseline schema (bench/baselines/<name>.json; "section", "normalize_by"
and "tolerance" are required, and any other top-level key fails):

  "section"       Counter-snapshot section to gate: rows with
                  counter/kind/value columns ("counters", or
                  bench_fabric_kvstore's "counters_lossfree").
  "normalize_by"  Delivered-packet counter the per-packet bands divide
                  by. Must be present and nonzero in the report.
  "tolerance"     Relative band width, e.g. 0.25.
  "per_packet"    {counter: expected}. counter / normalize_by must not
                  exceed expected * (1 + tolerance). An entry may be
                  {"expected": X, "normalize_by": "other.counter"} to
                  divide by another family's packet count. A gauge here
                  is a config error: high-water marks are not rates.
  "zero"          [counter]. Must be zero (or absent) in the snapshot,
                  and every metric of the matching time-series section
                  ("counters*" -> "timeseries*") that starts with the
                  name must have a zero delta in every interval, so a
                  burst hidden by a registry reset still fails. A
                  nonempty list requires that time-series section.
                  Loss-free baselines list the retransmit and fault-drop
                  counters and watchdog.escalations{stage=retry|reset|
                  failover}; lossy baselines omit them.
  "absolute"      {counter: expected}. The raw count must not exceed
                  expected * (1 + tolerance); an absent counter is zero.
                  Chaos runs band their escalation counts here.
  "coherence"     Checks over the profiler's "coherence" section:
      "normalize_by", "tolerance"   default to the top-level values.
      "min_attribution"  Fraction of remote reads+RFOs that must
                         resolve to named (non-"unknown") regions.
      "regions"  {prefix: bands}. Regions whose name starts with the
                 prefix are summed, and at least one must match (so an
                 empty band object only requires the prefix). Bands:
                 remote_reads, remote_rfos, invalidations, migratory,
                 bytes (per packet, like "per_packet"); max_pingpong and
                 min_pingpong (summed ping-pong line count).
  "rows"          [{"section": S, "where": {col: v}, "expect": {col: v}}].
                  Section S has a row whose columns equal every `where`
                  value, and every such row equals every `expect` value
                  (omit "expect" to require only the row). Benches state their verdicts as rows, e.g.
                  {"metric": "PIO beats ring-over-PCIe", "value": "yes"}.

--write-baseline records section, normalize_by, tolerance, per_packet
and coherence bands from the report, puts each loss or escalation
counter under "zero" when it is zero and under "absolute" otherwise.
It writes no "rows", "min_pingpong" or band-less prefixes, so re-add
those from the diff before committing it:

    build/bench/bench_fabric_kvstore          # with CCN_JSON_DIR set
    tools/counters_gate.py BENCH_fabric_kvstore.json \\
        --write-baseline bench/baselines/fabric_kvstore.json
"""

import argparse
import json
import sys

BASELINE_KEYS = {"section", "normalize_by", "tolerance", "per_packet",
                 "zero", "absolute", "coherence", "rows"}

COHERENCE_METRICS = ["remote_reads", "remote_rfos", "invalidations",
                     "migratory", "bytes"]

# --write-baseline only: counters whose per-packet cost it records, as
# (counter, normalizer) pairs (None: the top-level "normalize_by").
BASELINE_TRACKED = [(n, None) for n in (
    "ccnic.signal_reads", "ccnic.signal_writes", "ccnic.tx_packets",
    "pool.allocs", "pool.frees", "mem.remote_reads", "mem.remote_rfos",
)] + [(n, "pio.rx_delivered") for n in (
    "pio.slot_polls", "pio.slot_writes", "pio.tx_packets")]

# --write-baseline only: per-family delivered-packet counters, tried in
# order for "normalize_by".
FAMILY_NORMALIZERS = ["ccnic.rx_delivered", "pio.rx_delivered",
                      "pcie_nic.tx_packets"]

# --write-baseline only: counters that are zero on a loss-free run.
LOSS_COUNTERS = [
    "transport.retransmits",
    "transport.fast_retransmits",
    "transport.timeouts",
    "transport.aborts",
    "net.link.fault_drops",
    "net.link.down_drops",
    "watchdog.escalations{stage=retry}",
    "watchdog.escalations{stage=reset}",
    "watchdog.escalations{stage=failover}",
]


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise SystemExit(f"FAIL: {e}")


def counters_of(section: dict):
    """Return ({name: value}, {name: kind}) for a snapshot section."""
    values, kinds = {}, {}
    for row in section["rows"]:
        values[row["counter"]] = float(row["value"])
        kinds[row["counter"]] = row.get("kind", "counter")
    return values, kinds


def band(failures: list, label: str, actual: float, expected: float,
         tol: float, unit: str) -> None:
    """Fail when actual exceeds expected * (1 + tol)."""
    bound = expected * (1.0 + tol)
    verdict = "ok"
    if actual > bound:
        verdict = "REGRESSED"
        failures.append(
            f"{label}: {actual:.4f} {unit} exceeds baseline "
            f"{expected:.4f} (+{tol * 100:.0f}% tolerance = "
            f"{bound:.4f})")
    elif actual < expected * (1.0 - tol):
        verdict = "improved (consider refreshing baseline)"
    print(f"baseline {label}: {actual:.4f} vs {expected:.4f} {unit} "
          f"-> {verdict}")


def check_counters(sections: dict, baseline: dict, failures: list):
    """Gate the snapshot section; return its counters (None if absent)."""
    name = baseline["section"]
    if name not in sections:
        failures.append(f"section '{name}' missing from report")
        return None
    c, kinds = counters_of(sections[name])
    tol = float(baseline["tolerance"])
    norm_name = baseline["normalize_by"]
    per_packet = baseline.get("per_packet", {})
    if c.get(norm_name, 0.0) <= 0:
        failures.append(f"normalizer '{norm_name}' missing or zero")
        per_packet = {}
    for counter, entry in per_packet.items():
        if kinds.get(counter) == "gauge":
            failures.append(
                f"baseline lists gauge '{counter}' under per_packet; "
                "gauges are high-water marks, not per-packet rates")
            continue
        this_norm = norm_name
        if isinstance(entry, dict):
            this_norm = entry["normalize_by"]
            entry = entry["expected"]
        if c.get(this_norm, 0.0) <= 0:
            failures.append(f"normalizer '{this_norm}' for '{counter}' "
                            "missing or zero")
        elif counter not in c:
            failures.append(f"baseline counter '{counter}' missing "
                            "from report")
        else:
            band(failures, counter, c[counter] / c[this_norm],
                 float(entry), tol, "per packet")

    for counter, expected in baseline.get("absolute", {}).items():
        band(failures, counter, c.get(counter, 0.0), float(expected),
             tol, "events")

    zero = baseline.get("zero", [])
    for counter in zero:
        if c.get(counter, 0.0) != 0:
            failures.append(f"{counter} expected to be zero, got "
                            f"{c[counter]:.0f}")
    ts_name = name.replace("counters", "timeseries", 1)
    if zero and ts_name not in sections:
        failures.append(f"section '{ts_name}' missing from report; "
                        "cannot check the zero list per interval")
    bursts = [r for r in sections.get(ts_name, {}).get("rows", [])
              if float(r["delta"]) != 0
              and any(r["metric"].startswith(z) for z in zero)]
    for r in bursts:
        failures.append(f"{ts_name}: {r['metric']} moved by "
                        f"{r['delta']} in the interval ending at "
                        f"t={r['t_us']}us (listed under zero)")
    return c


def check_coherence(sections: dict, c: dict, baseline: dict,
                    failures: list) -> None:
    coh = baseline["coherence"]
    if "coherence" not in sections:
        failures.append("baseline has a 'coherence' block but the "
                        "report has no coherence section (run with "
                        "--profile-coherence)")
        return
    rows = sections["coherence"]["rows"]
    tol = float(coh.get("tolerance", baseline["tolerance"]))

    if "min_attribution" in coh:
        need = float(coh["min_attribution"])
        total = sum(float(r["remote_reads"]) + float(r["remote_rfos"])
                    for r in rows)
        named = sum(float(r["remote_reads"]) + float(r["remote_rfos"])
                    for r in rows if r["region"] != "unknown")
        print(f"coherence attribution: {named:.0f}/{total:.0f} "
              f"(required {100.0 * need:.1f}%)")
        if total == 0:
            failures.append("coherence section recorded no remote "
                            "reads/RFOs (profiler disabled?)")
        elif named / total < need:
            failures.append(f"coherence attribution {named / total:.3f}"
                            f" below required {need:.3f}")

    norm_name = coh.get("normalize_by", baseline["normalize_by"])
    norm = (c or {}).get(norm_name, 0.0)
    regions = coh.get("regions", {})
    if norm <= 0 and any(m in COHERENCE_METRICS
                         for bands in regions.values() for m in bands):
        failures.append(f"coherence normalizer '{norm_name}' missing "
                        "or zero")
    for prefix, bands in regions.items():
        matched = [r for r in rows if r["region"].startswith(prefix)]
        if not matched:
            failures.append(f"coherence prefix '{prefix}' matches no "
                            "region in the report")
            continue
        pingpong = sum(float(r["pingpong_lines"]) for r in matched)
        print(f"coherence {prefix}: {len(matched)} region(s), "
              f"{pingpong:.0f} ping-pong line(s)")
        for metric, expected in bands.items():
            if metric == "max_pingpong":
                if pingpong > expected:
                    failures.append(
                        f"coherence {prefix}: {pingpong:.0f} ping-pong "
                        f"lines exceed {expected} (false sharing or "
                        "thrash crept into the region)")
            elif metric == "min_pingpong":
                if pingpong < expected:
                    failures.append(
                        f"coherence {prefix}: {pingpong:.0f} ping-pong "
                        f"lines, expected at least {expected} (the "
                        "detector or the layout model regressed)")
            elif metric not in COHERENCE_METRICS:
                failures.append(f"coherence baseline lists unknown "
                                f"metric '{metric}' for '{prefix}'")
            elif norm > 0:
                band(failures, f"coherence {prefix}{metric}",
                     sum(float(r[metric]) for r in matched) / norm,
                     float(expected), tol, "per packet")


def _has(row: dict, cols: dict) -> bool:
    return all(row.get(k) == v for k, v in cols.items())


def check_rows(sections: dict, baseline: dict, failures: list) -> None:
    for entry in baseline.get("rows", []):
        sec, where = entry["section"], entry["where"]
        expect = entry.get("expect", {})
        desc = f"{sec} row {json.dumps(where, sort_keys=True)}"
        if sec not in sections:
            failures.append(f"{desc}: section missing from report")
            continue
        matched = [r for r in sections[sec]["rows"] if _has(r, where)]
        wrong = [r for r in matched if not _has(r, expect)]
        if not matched:
            failures.append(f"{desc}: no such row")
        for r in wrong:
            failures.append(f"{desc}: got "
                            f"{ {k: r.get(k) for k in expect} }, "
                            f"expected {expect}")
        if matched and not wrong:
            print(f"{desc}: ok")


def gate(doc: dict, baseline: dict) -> list:
    """Run every check the baseline lists; return the failures."""
    unknown = sorted(set(baseline) - BASELINE_KEYS)
    missing = sorted({"section", "normalize_by", "tolerance"}
                     - set(baseline))
    if unknown or missing:
        return [f"baseline key(s) unknown: {unknown}, missing: "
                f"{missing}"]
    failures = []
    sections = doc["sections"]
    c = check_counters(sections, baseline, failures)
    if "coherence" in baseline:
        check_coherence(sections, c, baseline, failures)
    check_rows(sections, baseline, failures)
    return failures


def write_baseline(doc: dict) -> dict:
    sections = doc["sections"]
    section = ("counters_lossfree" if "counters_lossfree" in sections
               else "counters")
    c, kinds = counters_of(sections[section])
    norm_name = next((n for n in FAMILY_NORMALIZERS
                      if c.get(n, 0.0) > 0), None)
    if norm_name is None:
        raise SystemExit("FAIL: no family delivered-packet counter "
                         "present (looked for: "
                         + ", ".join(FAMILY_NORMALIZERS) + ")")
    per_packet = {}
    for name, custom in BASELINE_TRACKED:
        norm = c.get(custom or norm_name, 0.0)
        if name not in c or kinds.get(name) == "gauge" or norm <= 0:
            continue
        value = round(c[name] / norm, 6)
        per_packet[name] = ({"expected": value, "normalize_by": custom}
                            if custom else value)
    out = {
        "section": section,
        "normalize_by": norm_name,
        "tolerance": 0.25,
        "per_packet": per_packet,
        "zero": [n for n in LOSS_COUNTERS if c.get(n, 0.0) == 0],
    }
    absolute = {n: round(c[n]) for n in LOSS_COUNTERS
                if c.get(n, 0.0) != 0}
    if absolute:
        out["absolute"] = absolute

    rows = sections.get("coherence", {}).get("rows", [])
    regions = {}
    for prefix in sorted({r["region"].split(".", 1)[0] + "."
                          for r in rows if r["region"] != "unknown"}):
        matched = [r for r in rows if r["region"].startswith(prefix)]
        sums = {m: sum(float(r[m]) for r in matched)
                for m in COHERENCE_METRICS}
        if any(sums.values()):
            regions[prefix] = {m: round(v / c[norm_name], 6)
                               for m, v in sums.items() if v > 0}
            regions[prefix]["max_pingpong"] = round(
                sum(float(r["pingpong_lines"]) for r in matched))
    if regions:
        out["coherence"] = {"min_attribution": 0.95,
                            "regions": regions}
    return out


# ---------------------------------------------------------------------------
# Self-test (a ctest entry): each case gates one mutated synthetic
# report against one edited baseline and states the verdict it expects.

def _counter(name, value, kind="counter"):
    return {"counter": name, "kind": kind, "value": value}


def _region(name, intent, rr, rfo, pp=0):
    return {"region": name, "intent": intent, "lines": 64,
            "remote_reads": rr, "remote_rfos": rfo,
            "invalidations": rfo, "migratory": rr // 2,
            "bytes": 64 * (rr + rfo), "pingpong_lines": pp}


def _report() -> dict:
    return {"bench": "selftest", "sections": {
        "counters": {"columns": ["counter", "kind", "value"], "rows": [
            _counter("ccnic.rx_delivered", 100000),
            _counter("ccnic.signal_reads", 670000),
            _counter("ccnic.signal_writes", 250000),
            _counter("ccnic.peak_queue_depth", 37, "gauge"),
            _counter("pio.rx_delivered", 50000),
            _counter("pio.slot_polls", 100000),
            _counter("transport.retransmits", 0),
            _counter("transport.fast_retransmits", 0),
        ]},
        "timeseries": {"columns": ["run", "t_us", "metric", "kind",
                                   "value", "delta"], "rows": [
            {"run": 1, "t_us": 25.0, "metric": "ccnic.signal_reads",
             "kind": "counter", "value": 1000, "delta": 1000},
            {"run": 1, "t_us": 50.0, "metric": "transport.retransmits",
             "kind": "counter", "value": 0, "delta": 0},
        ]},
        "coherence": {"columns": [], "rows": [
            _region("ccnic.tx_ring[q0]", "two_way", 100000, 50000),
            _region("pool.bufs_large", "owned", 120000, 40000, pp=2),
            _region("pack16.tx_ring[q0]", "owned", 9000, 7000, pp=12),
            _region("opt_grouped.tx_ring[q0]", "two_way", 8000, 4000),
            _region("unknown", "-", 1000, 0),
        ]},
        "summary": {"columns": ["metric", "value"], "rows": [
            {"metric": "PIO beats ring-over-coherence", "value": "yes"},
            {"metric": "crossover size [B]", "value": 256},
        ]},
    }}


def _baseline() -> dict:
    return {
        "section": "counters",
        "normalize_by": "ccnic.rx_delivered",
        "tolerance": 0.25,
        "per_packet": {
            "ccnic.signal_reads": 6.7,
            "ccnic.signal_writes": 2.5,
            "pio.slot_polls": {"expected": 2.0,
                               "normalize_by": "pio.rx_delivered"},
        },
        "zero": ["transport.retransmits", "transport.fast_retransmits",
                 "watchdog.escalations{stage=retry}",
                 "watchdog.escalations{stage=reset}"],
        "coherence": {
            "min_attribution": 0.95,
            "regions": {
                "ccnic.": {"remote_reads": 1.0, "remote_rfos": 0.5},
                "pool.": {"remote_reads": 1.2, "max_pingpong": 4},
                "pack16.tx_ring": {"min_pingpong": 1},
                "opt_grouped.": {"max_pingpong": 0},
            },
        },
        "rows": [
            {"section": "summary",
             "where": {"metric": "PIO beats ring-over-coherence"},
             "expect": {"value": "yes"}},
            {"section": "coherence",
             "where": {"region": "pack16.tx_ring[q0]"},
             "expect": {"intent": "owned"}},
        ],
    }


def _put(*path, value=None):
    """Edit: set a nested dict key (value None deletes it)."""
    def apply(obj):
        for key in path[:-1]:
            obj = obj[key]
        if value is None:
            obj.pop(path[-1], None)
        else:
            obj[path[-1]] = value
    return apply


def _row(section, name, **cols):
    """Report edit: update the row whose first column is `name`,
    appending it when absent."""
    def apply(doc):
        rows = doc["sections"][section]["rows"]
        key = next(iter(rows[0]))
        row = next((r for r in rows if r[key] == name), None)
        if row is None:
            row = {key: name, "kind": "counter"}
            rows.append(row)
        row.update(cols)
    return apply


def _burst(metric, delta):
    def apply(doc):
        doc["sections"]["timeseries"]["rows"].append(
            {"run": 1, "t_us": 75.0, "metric": metric,
             "kind": "counter", "value": delta, "delta": delta})
    return apply


def _all(*edits):
    def apply(obj):
        for edit in edits:
            edit(obj)
    return apply


def _escalated(resets):
    return _all(
        _row("counters", "watchdog.escalations{stage=retry}",
             value=2 * resets),
        _row("counters", "watchdog.escalations{stage=reset}",
             value=resets))


def _no_traffic(doc):
    for r in doc["sections"]["coherence"]["rows"]:
        r["remote_reads"] = r["remote_rfos"] = 0


def _pio_only(doc):
    rows = doc["sections"]["counters"]["rows"]
    rows[:] = [r for r in rows if not r["counter"].startswith("ccnic.")]
    del doc["sections"]["coherence"]


def _written(report_edit=None):
    """Baseline edit: replace it by what --write-baseline records from
    the (edited) synthetic report."""
    def apply(bl):
        doc = _report()
        (report_edit or _all())(doc)
        bl.clear()
        bl.update(write_baseline(doc))
    return apply


_SIG_REGRESS = _row("counters", "ccnic.signal_reads", value=13400000)
_LOSSY = _all(_row("counters", "transport.retransmits", value=148),
              _burst("transport.retransmits", 148))
_LOSSY_BL = _put("zero", value=[])
_ESC_BAND = _all(_LOSSY_BL, _put("absolute", value={
    "watchdog.escalations{stage=reset}": 3}))
_PIO_BL = _all(_put("normalize_by", value="pio.rx_delivered"),
               _put("per_packet", value={"pio.slot_polls": 2.0}),
               _put("coherence"), _put("rows"))

# (case, baseline edit, report edit, expect pass)
CASES = [
    ("clean report passes", None, None, True),
    ("20x signal-read regression", None, _SIG_REGRESS, False),
    ("slot-poll regression under a per-entry normalizer", None,
     _row("counters", "pio.slot_polls", value=2000000), False),
    ("gauge listed under per_packet",
     _put("per_packet", value={"ccnic.peak_queue_depth": 0.1}), None,
     False),
    ("per_packet counter missing from report",
     _put("per_packet", "ccnic.tx_packets", value=1.0), None, False),
    ("retransmit burst seen only in the time series", None,
     _burst("transport.retransmits", 5), False),
    ("escalation burst seen only in the time series", None,
     _burst("watchdog.escalations{stage=reset}", 1), False),
    ("zero list, report without its time series", None,
     _put("sections", "timeseries"), False),
    ("empty zero list, report without a time series", _LOSSY_BL,
     _put("sections", "timeseries"), True),
    ("baseline without normalize_by", _put("normalize_by"), None,
     False),
    ("baseline still carrying the retired lossy flag",
     _put("lossy", value=True), None, False),
    ("report without the normalizer (no family delivered)", None,
     _put("sections", "counters", "rows", value=[]), False),
    ("report without the gated section",
     _put("section", value="counters_lossfree"), None, False),
    ("single-family PIO report, PIO-normalized baseline", _PIO_BL,
     _pio_only, True),
    ("retransmits fail a baseline listing them under zero", None,
     _LOSSY, False),
    ("retransmits pass a baseline not listing them under zero",
     _LOSSY_BL, _LOSSY, True),
    ("signal-read regression fails a lossy baseline too", _LOSSY_BL,
     _SIG_REGRESS, False),
    ("escalations fail a baseline listing them under zero", None,
     _escalated(3), False),
    ("in-band escalations pass an absolute band", _ESC_BAND,
     _escalated(3), True),
    ("reset storm exceeds the absolute band", _ESC_BAND, _escalated(9),
     False),
    ("3x coherence read regression on a prefix", None,
     _row("coherence", "ccnic.tx_ring[q0]", remote_reads=300000),
     False),
    ("ping-pong blowout past max_pingpong", None,
     _row("coherence", "pool.bufs_large", pingpong_lines=40), False),
    ("coherence block, report without coherence section", None,
     _put("sections", "coherence"), False),
    ("profiler recorded no remote traffic", None, _no_traffic, False),
    ("attribution below min_attribution",
     _put("coherence", "min_attribution", value=0.999), None, False),
    ("prefix with no bands matches a region",
     _put("coherence", "regions", "ccnic.", value={}), None, True),
    ("prefix with no bands matches no region",
     _put("coherence", "regions", "nosuch.", value={}), None, False),
    ("packed rings stop ping-ponging (min_pingpong)", None,
     _row("coherence", "pack16.tx_ring[q0]", pingpong_lines=0), False),
    ("grouped layout thrashes (max_pingpong 0)", None,
     _row("coherence", "opt_grouped.tx_ring[q0]", pingpong_lines=3),
     False),
    ("packed rings lose owner intent", None,
     _row("coherence", "pack16.tx_ring[q0]", intent="two_way"), False),
    ("rows: verdict column mismatch", None,
     _row("summary", "PIO beats ring-over-coherence", value="no"),
     False),
    ("rows: no row matches", _put("rows", value=[
        {"section": "summary", "where": {"metric": "no such verdict"},
         "expect": {"value": "yes"}}]), None, False),
    ("rows: section missing", None, _put("sections", "summary"), False),
    ("rows: numeric column matches", _put("rows", value=[
        {"section": "summary", "where": {"metric": "crossover size [B]"},
         "expect": {"value": 256}}]), None, True),
    ("written baseline passes its own report", _written(), None, True),
    ("written PIO-only baseline picks the PIO normalizer",
     _written(_pio_only), _pio_only, True),
    ("written loss-free baseline pins escalations to zero",
     _written(), _escalated(3), False),
    ("written baseline bands seen escalations absolutely",
     _written(_escalated(3)), _escalated(3), True),
    ("reset storm exceeds a written absolute band",
     _written(_escalated(3)), _escalated(9), False),
    ("written baseline bands coherence per prefix", _written(),
     _row("coherence", "pool.bufs_large", pingpong_lines=40), False),
]


def selftest() -> int:
    bad = []
    for name, baseline_edit, report_edit, want_pass in CASES:
        baseline, doc = _baseline(), _report()
        (baseline_edit or _all())(baseline)
        (report_edit or _all())(doc)
        print(f"--- {name} (expect {'pass' if want_pass else 'fail'})")
        failures = gate(doc, baseline)
        for msg in failures:
            print(f"    fails: {msg}")
        if (not failures) != want_pass:
            bad.append(name)
    for name in bad:
        print(f"SELFTEST FAIL: {name}", file=sys.stderr)
    if not bad:
        print(f"counters gate selftest passed ({len(CASES)} cases)")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Gate a bench/scenario report against its baseline.")
    ap.add_argument("report", nargs="?")
    ap.add_argument("--baseline", help="baseline JSON listing the checks")
    ap.add_argument("--write-baseline", metavar="OUT",
                    help="write a baseline measured from the report")
    ap.add_argument("--selftest", action="store_true",
                    help="run the gate's self-checks and exit")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    if not args.report or not (args.baseline or args.write_baseline):
        ap.error("REPORT with --baseline or --write-baseline required")
    doc = load_json(args.report)
    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as f:
            json.dump(write_baseline(doc), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline written to {args.write_baseline}")
        return 0
    failures = gate(doc, load_json(args.baseline))
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("counters gate passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
