"""Metric definitions, output checks and statistics of the benchmark.

run.py turns the measurement core's JSON (perfbench.cc) into the
metrics declared here; compare.py judges two result sets with them;
test_perfbench.py checks them. BENCHMARK.json must declare exactly
these metrics (the self-tests compare the two).
"""

import fractions
import hashlib
import math
import re
import statistics

WORKLOADS = ("fig09_sweep", "rss32_sync", "split32_links", "tenant_ioca")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# (name, unit, better, bound). "host" metrics are wall-clock figures of
# the simulator; "sim" metrics are modelled and repeat exactly for a
# seed, so their spread is the spread across seeds.
END_TO_END = (
    ("pkts_per_s", "pkt/s", "higher", 0.25),
    ("sim_us_per_s", "us/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_p50_us", "us", "lower", 0.1),
    ("sim_p99_us", "us", "lower", 0.1),
    ("sim_p999_us", "us", "lower", 0.15),
    ("sim_dram_per_pkt", "lines/pkt", "lower", 0.1),
)

# (name, unit, better). Counts repeat exactly; times come from the
# traced reps and the layer probes.
PER_LAYER = (
    ("sim_mlc_wb_per_pkt", "lines/pkt", "lower"),
    ("sim_drop_ratio", "ratio", "lower"),
    ("sim.events_per_pkt", "events/pkt", "lower"),
    ("sim.event_ns", "ns", "lower"),
    ("shard.windows_per_pkt", "windows/pkt", "lower"),
    ("shard.cross_posts_per_pkt", "posts/pkt", "lower"),
    ("shard.window_us", "us", "lower"),
    ("harness.build_ms", "ms", "lower"),
    ("harness.start_ms", "ms", "lower"),
    ("harness.runfor_us_p50", "us", "lower"),
    ("harness.runfor_us_p99", "us", "lower"),
    ("harness.totals_us", "us", "lower"),
    ("net.toeplitz_ns", "ns", "lower"),
    ("cache.core_read_ns", "ns", "lower"),
    ("cache.pcie_write_ns", "ns", "lower"),
    ("cache.invalidate_ns", "ns", "lower"),
    ("cache.dir_add_ns", "ns", "lower"),
    ("cache.core_accesses_per_pkt", "acc/pkt", "lower"),
    ("cache.pcie_writes_per_pkt", "lines/pkt", "lower"),
    ("cache.dir_lookups_per_pkt", "lookups/pkt", "lower"),
    ("cache.mlc_hit_ratio", "ratio", "higher"),
    ("cache.llc_hit_ratio", "ratio", "higher"),
    ("cache.llc_victim_inserts_per_pkt", "lines/pkt", "lower"),
    ("cache.ddio_way_evictions_per_pkt", "lines/pkt", "lower"),
    ("nic.dma_lines_per_pkt", "lines/pkt", "lower"),
    ("nic.dma_us_p50", "us", "lower"),
    ("nic.dma_us_p99", "us", "lower"),
    ("dpdk.empty_poll_ratio", "ratio", "lower"),
    ("dpdk.ring_wait_us_p50", "us", "lower"),
    ("dpdk.ring_wait_us_p99", "us", "lower"),
    ("cpu.nf_busy_frac", "ratio", "lower"),
    ("nf.service_us_p50", "us", "lower"),
    ("nf.service_us_p99", "us", "lower"),
    ("idio.hints_per_pkt", "hints/pkt", "lower"),
    ("idio.hint_drop_ratio", "ratio", "lower"),
    ("idio.prefetch_fills_per_pkt", "lines/pkt", "lower"),
    ("mem.dram_wait_ns_per_access", "ns", "lower"),
    ("tenant.evaluations", "count", "higher"),
    ("tenant.reallocations", "count", "lower"),
    ("ckpt.save_ms", "ms", "lower"),
    ("ckpt.restore_ms", "ms", "lower"),
    ("trace.overhead_pkts_per_s", "pkt/s", "higher"),
)

class MissingMetric(Exception):
    """A workload did not produce a declared metric."""


def _rank(n, p):
    """ceil(p/100 * n) in exact arithmetic (99.9 / 100 * 10000 is
    9990.000000000002 in floating point), at least 1."""
    return max(1, math.ceil(fractions.Fraction(str(p)) * n / 100))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least
    ceil(p/100 * n) values at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[min(_rank(len(ordered), p), len(ordered)) - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile."""
    return n - min(_rank(n, p), n) if n else 0


def quartiles(values):
    """(q1, median, q3) with statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def conservation_errors(system):
    """Packet conservation of one system at the end of its run:
    every generated packet reaches a NIC MAC, where it is dropped on a
    full ring or accepted; every accepted packet is processed or still
    held (DMA in flight, on the ring, or in the NF)."""
    errors = []
    if system["generated"] != system["mac"]:
        errors.append(f"{system['label']}: generated {system['generated']}"
                      f" != received at MAC {system['mac']}")
    accepted = system["mac"] - system["drops"]
    if accepted != system["processed"] + system["held"]:
        errors.append(f"{system['label']}: accepted {accepted} != "
                      f"processed {system['processed']} + held "
                      f"{system['held']}")
    return errors


def fig09_shape_errors(systems):
    """Paper Fig. 9 shape: Invalidate writes back ~no MLC lines, and
    MLC writebacks per packet order IDIO < Static < DDIO."""
    wb = {s["label"]: s["mlc_wb"] / max(1, s["processed"]) for s in systems}
    errors = []
    if wb.get("Invalidate", math.inf) > 0.05:
        errors.append(f"Invalidate MLC writebacks/pkt "
                      f"{wb.get('Invalidate')} not ~0")
    if not wb.get("IDIO", math.inf) < wb.get("Static", -1) < \
            wb.get("DDIO", -1):
        errors.append("MLC writebacks/pkt not IDIO < Static < DDIO: "
                      + ", ".join(f"{k} {v:.2f}" for k, v in wb.items()))
    return errors


def digest_errors(reps, ckpt):
    """Every rep repeats the first system by system, traced or not, and
    the checkpointed and restored runs end on the first system's
    digest."""
    errors = []
    first = [s["digest"] for s in reps[0]["systems"]]
    for i, rep in enumerate(reps[1:], 1):
        got = [s["digest"] for s in rep["systems"]]
        if got != first:
            kind = "traced" if rep.get("traced") else "untraced"
            errors.append(f"rep {i} ({kind}) stats digest differs "
                          f"from rep 0")
    for key in ("resumed", "restored"):
        if ckpt[key] != first[0]:
            errors.append(f"checkpoint {key} digest {ckpt[key]} != "
                          f"uninterrupted {first[0]}")
    return errors


def rep_digest(rep):
    """One digest of a rep's per-system simulated-stats digests."""
    joined = ",".join(s["digest"] for s in rep["systems"])
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def _work(system, key):
    return system["processed"] if key == "packets" else system["sim_us"]


def rep_rate(rep, key):
    """Rep-wide `key` ("packets" or "sim_us") per host second of its
    runFor loops."""
    return sum(_work(s, key) for s in rep["systems"]) / \
        sum(s["run_s"] for s in rep["systems"])


def best_rate(reps, key):
    """Rep-wide `key` per host second, taking each system's fastest run
    over `reps`. Every rep repeats the same simulated work (the digest
    check holds them to it), and interference from other load on a
    shared host only ever slows a run, so the fastest run of each
    system is the steadiest estimate of the simulator's own speed (see
    README.md for the measured spreads)."""
    n = len(reps[0]["systems"])
    fastest = [min(r["systems"][i]["run_s"] for r in reps) for i in range(n)]
    return sum(_work(s, key) for s in reps[0]["systems"]) / sum(fastest)


def rep_setup(rep):
    return sum(s["build_s"] + s["start_s"] for s in rep["systems"])


def _ratio(num, den):
    return num / den if den else 0.0


def simulated_metrics(doc):
    """Modelled metrics of the first rep (they repeat exactly)."""
    c = doc["counts"]
    pkts = c["packets"]
    lat = doc["latency_ticks"]
    tpu = doc["ticks_per_us"]
    return {
        "sim_p50_us": percentile(lat, 50) / tpu,
        "sim_p99_us": percentile(lat, 99) / tpu,
        "sim_p999_us": percentile(lat, 99.9) / tpu,
        "sim_dram_per_pkt": _ratio(c["dram_reads"] + c["dram_writes"], pkts),
        "sim_mlc_wb_per_pkt": _ratio(c["mlc_wb"], pkts),
        "sim_drop_ratio": _ratio(c["rx_drops"], c["rx_mac"]),
    }


def end_to_end_metrics(doc):
    """Untraced timed run -> end-to-end values (reps after the first)."""
    timed = doc["reps"][1:]
    sim = simulated_metrics(doc)
    values = {
        "pkts_per_s": best_rate(timed, "packets"),
        "sim_us_per_s": best_rate(timed, "sim_us"),
        "setup_s": statistics.median(rep_setup(r) for r in timed),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }
    values.update({k: sim[k] for k in
                   ("sim_p50_us", "sim_p99_us", "sim_p999_us",
                    "sim_dram_per_pkt")})
    return values


def self_times(spans):
    """Per span name: (count, total us, self us). Self time is a span's
    duration minus the parts of it that its child spans cover (spans
    nest and never overlap on the one benchmark thread)."""
    child_us = {}
    for s in spans:
        if s["parent"]:
            child_us[s["parent"]] = child_us.get(s["parent"], 0.0) + \
                s["end_us"] - s["start_us"]
    table = {}
    for s in spans:
        dur = s["end_us"] - s["start_us"]
        n, total, own = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (n + 1, total + dur,
                            own + dur - child_us.get(s["id"], 0.0))
    return table


def span_durations(spans, name):
    return [s["end_us"] - s["start_us"] for s in spans if s["name"] == name]


STAGE_ROWS = {
    "dma (rx -> payload landed)": "nic.dma_us",
    "ring wait (descWb -> consume)": "dpdk.ring_wait_us",
    "nf processing (consume span)": "nf.service_us",
}
STAGE_RE = re.compile(r"^\s+(?P<stage>.+?)\s+n=(?P<n>\d+)\s+"
                      r"p50=\s*(?P<p50>[\d.]+)us\s+p90=\s*[\d.]+us\s+"
                      r"p99=\s*(?P<p99>[\d.]+)us")


def parse_stage_table(text):
    """Stage-latency percentiles from tools/trace_summary.py output."""
    found = {}
    for line in text.splitlines():
        m = STAGE_RE.match(line)
        if m and m.group("stage") in STAGE_ROWS:
            prefix = STAGE_ROWS[m.group("stage")]
            found[prefix + "_p50"] = float(m.group("p50"))
            found[prefix + "_p99"] = float(m.group("p99"))
    return found


def per_layer_metrics(doc, stages):
    """Traced run (+ stage-slice percentiles) -> per-layer values."""
    c = doc["counts"]
    pkts = c["packets"]
    reps = doc["reps"][1:]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    spans = doc["spans"]
    runfor = span_durations(spans, "harness.runFor")
    windows = c.get("windows", 0.0)
    plain_run_s = statistics.median(
        sum(s["run_s"] for s in r["systems"]) for r in plain)
    values = {k: v for k, v in simulated_metrics(doc).items()
              if k in ("sim_mlc_wb_per_pkt", "sim_drop_ratio")}
    values.update(doc["probes"])
    values.update(stages)
    values.update({
        "sim.events_per_pkt": _ratio(c["events"], pkts),
        "shard.windows_per_pkt": _ratio(windows, pkts),
        "shard.cross_posts_per_pkt": _ratio(c.get("cross_posts", 0.0),
                                            pkts),
        "shard.window_us": _ratio(plain_run_s * 1e6, windows),
        "harness.build_ms": statistics.median(
            span_durations(spans, "harness.build")) / 1e3,
        "harness.start_ms": statistics.median(
            span_durations(spans, "harness.start")) / 1e3,
        "harness.runfor_us_p50": percentile(runfor, 50),
        "harness.runfor_us_p99": percentile(runfor, 99),
        "harness.totals_us": statistics.median(
            span_durations(spans, "harness.totals")),
        "cache.core_accesses_per_pkt": _ratio(c["core_accesses"], pkts),
        "cache.pcie_writes_per_pkt": _ratio(c["pcie_writes"], pkts),
        "cache.dir_lookups_per_pkt": _ratio(c["dir_lookups"], pkts),
        "cache.mlc_hit_ratio": _ratio(c["mlc_hits"],
                                      c["mlc_hits"] + c["mlc_misses"]),
        "cache.llc_hit_ratio": _ratio(c["llc_hits"],
                                      c["llc_hits"] + c["llc_misses"]),
        "cache.llc_victim_inserts_per_pkt": _ratio(c["llc_victim_inserts"],
                                                   pkts),
        "cache.ddio_way_evictions_per_pkt": _ratio(c["ddio_way_evictions"],
                                                   pkts),
        "nic.dma_lines_per_pkt": _ratio(c["dma_lines"], pkts),
        "dpdk.empty_poll_ratio": _ratio(
            c["polls_empty"], c["polls_empty"] + c["polls_nonempty"]),
        "cpu.nf_busy_frac": _ratio(c["nf_busy_ticks"], c["nf_core_ticks"]),
        "idio.hints_per_pkt": _ratio(c["idio_hints"], pkts),
        "idio.hint_drop_ratio": _ratio(c["hints_dropped"],
                                       c["hints_received"]),
        "idio.prefetch_fills_per_pkt": _ratio(c["prefetch_fills"], pkts),
        "mem.dram_wait_ns_per_access": _ratio(
            c["dram_queued_ticks"] / (doc["ticks_per_us"] / 1e3),
            c["dram_reads"] + c["dram_writes"]),
        "tenant.evaluations": c.get("tenant_evaluations", 0.0),
        "tenant.reallocations": c.get("tenant_reallocations", 0.0),
        "ckpt.save_ms": doc["ckpt"]["save_ms"],
        "ckpt.restore_ms": doc["ckpt"]["restore_ms"],
        "trace.overhead_pkts_per_s":
            best_rate(traced, "packets") - best_rate(plain, "packets"),
    })
    return values


def assemble(values, declared):
    """The result's metrics object, in declared order. A declared metric
    the workload did not produce is an error, never a silent gap."""
    missing = [name for name, *_ in declared if name not in values]
    if missing:
        raise MissingMetric("workload produced no value for "
                            + ", ".join(missing))
    out = {}
    for name, unit, *_ in declared:
        v = float(values[name])
        if not math.isfinite(v):
            raise MissingMetric(f"metric {name} is not finite: {v}")
        out[name] = {"value": v, "unit": unit}
    return out
