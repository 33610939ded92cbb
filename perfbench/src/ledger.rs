//! The layer ledger: direct probes of each layer's public calls on the
//! workload's own runtime, taken after its measured phase, and the per-layer
//! metrics of a traced run.

use crate::report::{median, percentile, ratio, Report};
use crate::trace::{timed_defragment, BarrierClock, Pause, Tracer};
use alaska_runtime::stats::StatsSnapshot;
use alaska_runtime::Runtime;
use std::hint::black_box;
use std::time::Instant;

/// Calls per probe round; each probe is the median of [`ROUNDS`] rounds.
const CALLS: u32 = 20_000;
const ROUNDS: usize = 7;
/// Pauses a probe makes when the measured phase made none.
const PROBE_PAUSES: usize = 5;
/// Budget of a probe pause, as in the `kv-churn-defrag` pause thread.
const PROBE_PAUSE_BUDGET: u64 = 1 << 20;

/// Median nanoseconds per call of `f` over [`ROUNDS`] rounds of `calls`.
fn per_call_ns(calls: u32, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&rounds)
}

/// Per-call cost of each layer, measured directly.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    pub safepoint_ns: f64,
    pub pin_ns: f64,
    pub translate_ns: f64,
    pub read_bytes_ns: f64,
    pub heap_read_64b_ns: f64,
    pub heap_write_64b_ns: f64,
    pub heap_copy_mib_us: f64,
    pub halloc_ns: f64,
    pub hfree_ns: f64,
    pub publish_us: f64,
    /// One `get` of a 64-byte value through the workload's store.
    pub get_ns: f64,
    /// `get_ns` over the sum of the layer calls one `get` makes.
    pub ratio: f64,
}

/// Probe every layer on `rt`.  `get` reads a 64-byte value through the
/// workload's store; `get_safepoints` says whether that store's `get` polls a
/// safepoint (`ShardedStore` does, `RedisLike` over `HandleStorage` does not).
pub fn probe(rt: &Runtime, get_safepoints: bool, mut get: impl FnMut()) -> Ledger {
    let vm = rt.vm();
    let h = rt.halloc(64).expect("probe halloc");
    rt.write_bytes(h, 0, &[0xA5; 64]);
    let mut buf = [0u8; 64];

    let safepoint_ns = per_call_ns(CALLS, || rt.safepoint());
    let pin_ns = per_call_ns(CALLS, || drop(black_box(rt.pin(h).expect("probe pin"))));
    let translate_ns = per_call_ns(CALLS, || {
        black_box(rt.translate(black_box(h)).expect("probe translate"));
    });
    let read_bytes_ns = per_call_ns(CALLS, || rt.read_bytes(black_box(h), 0, &mut buf));
    let addr = rt.translate(h).expect("probe translate");
    let heap_read_64b_ns = per_call_ns(CALLS, || vm.read_bytes(black_box(addr), &mut buf));
    let heap_write_64b_ns = per_call_ns(CALLS, || vm.write_bytes(black_box(addr), &buf));
    black_box(&buf);

    const MIB: u64 = 1 << 20;
    let region = vm.map(2 * MIB);
    vm.fill(region, 1, MIB as usize);
    let heap_copy_mib_us = per_call_ns(8, || vm.copy(region, region.add(MIB), MIB as usize)) / 1e3;
    vm.unmap(region);

    // halloc and hfree are timed in matched rounds so the table returns to
    // where it started.
    let mut handles = Vec::with_capacity(CALLS as usize);
    let (mut alloc_rounds, mut free_rounds) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..CALLS {
            handles.push(rt.halloc(64).expect("probe halloc"));
        }
        alloc_rounds.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
        let t = Instant::now();
        for h in handles.drain(..) {
            rt.hfree(h).expect("probe hfree");
        }
        free_rounds.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    rt.hfree(h).expect("probe hfree");

    let publish_us = per_call_ns(100, || rt.publish_telemetry()) / 1e3;
    let get_ns = per_call_ns(CALLS, &mut get);
    let layers = if get_safepoints { safepoint_ns } else { 0.0 } + pin_ns + heap_read_64b_ns;
    Ledger {
        safepoint_ns,
        pin_ns,
        translate_ns,
        read_bytes_ns,
        heap_read_64b_ns,
        heap_write_64b_ns,
        heap_copy_mib_us,
        halloc_ns: median(&alloc_rounds),
        hfree_ns: median(&free_rounds),
        publish_us,
        get_ns,
        ratio: ratio(get_ns, layers),
    }
}

/// Probe pauses for a workload whose measured phase made none, so the pause
/// layers are measured (on an unfragmented heap) on every workload.
pub fn probe_pauses(rt: &Runtime, tracer: &mut Tracer) -> Vec<Pause> {
    let mut clock = BarrierClock::new(rt);
    (0..PROBE_PAUSES)
        .map(|i| {
            let p = timed_defragment(rt, Some(PROBE_PAUSE_BUDGET), &mut clock);
            tracer.pause("runtime.defragment", &p, i as u64);
            p
        })
        .collect()
}

/// What a traced phase measured, besides its spans.
#[derive(Debug)]
pub struct TracedPhase<'a> {
    pub tracer: &'a Tracer,
    pub ledger: Ledger,
    /// Requests completed in the traced phase.
    pub ops: u64,
    /// Runtime counters over the traced phase.
    pub stats: StatsSnapshot,
    /// Every pause of the traced phase (or the probe pauses if it had none).
    pub pauses: &'a [Pause],
    pub control_passes: u64,
    pub evictions: u64,
    /// `Runtime::service_fragmentation` at the end of the phase.
    pub fragmentation: f64,
    /// RSS over live value bytes at the end of the phase.
    pub rss_per_live: f64,
    /// Traced throughput over untraced throughput.
    pub overhead_ratio: f64,
}

fn us_pct(mut ns: Vec<u64>, q: f64) -> f64 {
    percentile(&mut ns, q) / 1e3
}

/// Emit every per-layer metric of a traced run.
pub fn emit(report: &mut Report, t: &TracedPhase<'_>) {
    let l = &t.ledger;
    let ops = t.ops as f64;
    report.metric("runtime.safepoint_ns", l.safepoint_ns, "ns");
    report.metric("runtime.pin_ns", l.pin_ns, "ns");
    report.metric("runtime.translate_ns", l.translate_ns, "ns");
    report.metric("runtime.read_bytes_ns", l.read_bytes_ns, "ns");
    report.metric("runtime.ledger_ratio", l.ratio, "ratio");
    report.metric("heap.read_64b_ns", l.heap_read_64b_ns, "ns");
    report.metric("heap.write_64b_ns", l.heap_write_64b_ns, "ns");
    report.metric("heap.copy_mib_us", l.heap_copy_mib_us, "us");
    report.metric("runtime.halloc_ns", l.halloc_ns, "ns");
    report.metric("runtime.hfree_ns", l.hfree_ns, "ns");
    report.metric("runtime.hallocs_per_op", ratio(t.stats.hallocs as f64, ops), "count");
    report.metric(
        "runtime.magazine_refills_per_kop",
        ratio(t.stats.magazine_refills as f64 * 1e3, ops),
        "count",
    );
    report.metric("runtime.shard_lock_contention", t.stats.shard_lock_contention as f64, "count");

    let tr = t.tracer;
    report.metric("runtime.pause_us_p50", us_pct(tr.durations("runtime.barrier"), 0.5), "us");
    report.metric("runtime.pause_us_p99", us_pct(tr.durations("runtime.barrier"), 0.99), "us");
    report.metric("runtime.pause_self_us_p50", us_pct(tr.self_times("runtime.barrier"), 0.5), "us");
    report.metric("anchorage.plan_us_p50", us_pct(tr.durations("anchorage.plan"), 0.5), "us");
    report.metric("anchorage.copy_us_p50", us_pct(tr.durations("anchorage.copy"), 0.5), "us");
    report.metric("anchorage.commit_us_p50", us_pct(tr.durations("anchorage.commit"), 0.5), "us");
    let sum = |f: fn(&Pause) -> u64| t.pauses.iter().map(f).sum::<u64>() as f64;
    let moved = sum(|p| p.outcome.bytes_moved);
    let copy_s = sum(|p| p.outcome.copy_ns) / 1e9;
    report.metric("anchorage.copy_mib_per_s", ratio(moved / (1 << 20) as f64, copy_s), "MiB/s");
    report.metric("anchorage.bytes_moved_per_pause", ratio(moved, t.pauses.len() as f64), "B");
    report.metric(
        "anchorage.released_per_moved",
        ratio(sum(|p| p.outcome.bytes_released), moved),
        "ratio",
    );
    let skipped = sum(|p| p.outcome.objects_skipped_pinned);
    report.metric(
        "anchorage.skipped_pinned_ratio",
        ratio(skipped, skipped + sum(|p| p.outcome.objects_moved)),
        "ratio",
    );
    report.metric("anchorage.fragmentation", t.fragmentation, "ratio");
    report.metric("anchorage.control_passes", t.control_passes as f64, "count");
    report.metric(
        "anchorage.pass_ms_p50",
        us_pct(tr.durations("anchorage.control_tick"), 0.5) / 1e3,
        "ms",
    );

    report.metric("kvstore.get_us_p50", us_pct(tr.durations("kvstore.get"), 0.5), "us");
    report.metric("kvstore.get_us_p99", us_pct(tr.durations("kvstore.get"), 0.99), "us");
    report.metric("kvstore.set_us_p50", us_pct(tr.durations("kvstore.set"), 0.5), "us");
    report.metric("kvstore.set_us_p99", us_pct(tr.durations("kvstore.set"), 0.99), "us");
    report.metric("kvstore.evictions_per_kop", ratio(t.evictions as f64 * 1e3, ops), "count");
    report.metric("kvstore.rss_per_live", t.rss_per_live, "ratio");

    report.metric("telemetry.publish_us", l.publish_us, "us");
    report.metric("loadgen.lag_us_max", tr.max_lag_ns() as f64 / 1e3, "us");
    report.metric("trace.overhead_ratio", t.overhead_ratio, "ratio");

    report.note("ledger_get_ns", l.get_ns);
    let (spans, dropped) = tr.counts();
    report.note("trace_spans", spans);
    report.note("trace_spans_dropped", dropped);
}

/// `RSS / live value bytes` of the runtime's heap.
pub fn rss_per_live(rt: &Runtime) -> f64 {
    ratio(rt.rss_bytes() as f64, rt.service_stats().live_bytes as f64)
}
