//! `kv-hot-read`: the per-access runtime path.
//!
//! One client thread runs a closed loop of YCSB-B (95% get, 5% same-length
//! update, zipfian θ = 0.99) against a 16-shard `ShardedStore` of 8,192
//! 64-byte values on a default Anchorage runtime with no telemetry hub and no
//! pauses.  Each get is one safepoint, one pin and one substrate read; a
//! same-length update writes in place, so the workload bypasses allocation
//! and defragmentation.  The values (512 KiB) fit in one core's L2.
//!
//! Ops are timed in batches: one clock read costs about as much as a third of
//! a get, so per-op clocks would measure the clock.
//!
//! The timing metrics are medians over the 100-ms windows that ran at full
//! speed (see [`crate::report`]): about 5.3M ops/s when the core is the
//! loop's own, 3.4M when a neighbour shares it.  The run record also gives
//! the whole-phase rate.

use crate::ledger::{self, TracedPhase};
use crate::report::{
    check_store, full_speed, median, median_percentile, note_host, ratio, setup_seconds,
    steady_rss_mb, value_pool, Report,
};
use crate::trace::Tracer;
use crate::Args;
use alaska::AlaskaBuilder;
use alaska_kvstore::ShardedStore;
use alaska_runtime::stats::StatsSnapshot;
use alaska_ycsb::Zipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: u32 = 8192;
const VALUE_LEN: usize = 64;
const SHARDS: usize = 16;
const UPDATE_SHARE: f64 = 0.05;
const THETA: f64 = 0.99;
/// Pre-generated ops, replayed cyclically.
const OPS: usize = 1 << 18;
/// Value offsets index a pool of this many bytes (so they fit a `u16`).
const POOL: usize = 1 << 16;
/// Ops per latency sample.
const BATCH: u64 = 64;
/// Batches between RSS samples (~4 ms).
const RSS_EVERY: u64 = 256;
/// Length of a throughput window.
const WINDOW: Duration = Duration::from_millis(100);
/// The measured phase runs as this many segments, each on a fresh set-up,
/// so that set-ups are timed throughout the run rather than all at once.
const SEGMENTS: usize = 10;
/// One request in this many is traced.
const SAMPLE_EVERY: u64 = 1024;
/// Key read by the ledger's `get` probe; outside the workload's key range.
const PROBE_KEY: u64 = KEYS as u64;

/// Op encoding: bits 0..13 key, bits 13..29 value offset, bit 31 update.
const KEY_MASK: u32 = KEYS - 1;
const UPDATE: u32 = 1 << 31;

struct Inputs {
    ops: Vec<u32>,
    pool: Vec<u8>,
    /// Value offset of each key after preload.
    initial: Vec<u16>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = value_pool(&mut rng, POOL + VALUE_LEN);
    let initial = (0..KEYS).map(|_| rng.gen_range(0..POOL as u32) as u16).collect();
    let zipf = Zipfian::new(KEYS as u64, THETA);
    let ops = (0..OPS)
        .map(|_| {
            let key = zipf.next_key(&mut rng) as u32;
            if rng.gen_bool(UPDATE_SHARE) {
                UPDATE | rng.gen_range(0..POOL as u32) << 13 | key
            } else {
                key
            }
        })
        .collect();
    Inputs { ops, pool, initial }
}

fn setup(inp: &Inputs) -> ShardedStore {
    let rt = Arc::new(AlaskaBuilder::new().with_anchorage().build());
    let store = ShardedStore::new(rt, SHARDS);
    for (key, &off) in inp.initial.iter().enumerate() {
        store.set(key as u64, &inp.pool[off as usize..off as usize + VALUE_LEN]);
    }
    store
}

struct Phase {
    ops: u64,
    failed: u64,
    seconds: f64,
    /// Nanoseconds per batch of [`BATCH`] ops.
    batch_ns: Vec<u32>,
    /// Index of the first batch after each complete [`WINDOW`].
    window_ends: Vec<usize>,
    rss: Vec<(f64, u64)>,
    stats: StatsSnapshot,
}

/// The windows of a run that ran at full speed.
struct FullSpeed<'a> {
    /// Batch latencies of each kept window.
    windows: Vec<&'a [u32]>,
    /// Share of complete windows kept.
    share: f64,
}

/// Ops per second of a window of batches.
fn rate(w: &[u32]) -> f64 {
    ratio((w.len() as u64 * BATCH) as f64, w.iter().map(|&n| n as f64).sum::<f64>() / 1e9)
}

impl<'a> FullSpeed<'a> {
    fn of(windows: &[&'a [u32]]) -> Self {
        let (windows, share) = full_speed(windows, rate);
        FullSpeed { windows, share }
    }

    fn throughput(&self) -> f64 {
        median(&self.windows.iter().map(|w| rate(w)).collect::<Vec<_>>())
    }

    /// Median over kept windows of the per-op latency percentile `q`, in us.
    fn latency_us(&self, q: f64) -> f64 {
        median_percentile(self.windows.iter().copied(), q) / BATCH as f64 / 1e3
    }
}

impl Phase {
    fn windows(&self) -> Vec<&[u32]> {
        let mut start = 0;
        self.window_ends
            .iter()
            .map(|&end| {
                let w = &self.batch_ns[start..end];
                start = end;
                w
            })
            .collect()
    }
}

/// Run the closed loop for `seconds`, checking every get against the bytes of
/// its key's latest version.  With a tracer, one request in
/// [`SAMPLE_EVERY`] is recorded as a span.
fn phase(
    store: &ShardedStore,
    inp: &Inputs,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let rt = store.runtime();
    let mut expected = inp.initial.clone();
    let mut failed = 0u64;
    let mut batch_ns = Vec::with_capacity((seconds * 1e7 / BATCH as f64) as usize);
    let mut rss = Vec::new();
    let mut window_ends = Vec::new();
    let before = rt.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut t0 = start;
    let mut window_start = start;
    let mut i = 0u64;
    while t0 < deadline {
        for _ in 0..BATCH {
            let op = inp.ops[i as usize % OPS];
            let key = op & KEY_MASK;
            let timed = tracer.is_some() && i.is_multiple_of(SAMPLE_EVERY);
            let due = timed.then(Instant::now);
            if op & UPDATE != 0 {
                let off = (op >> 13) as u16;
                let value = &inp.pool[off as usize..off as usize + VALUE_LEN];
                let called = timed.then(Instant::now);
                store.set(key as u64, value);
                if let (Some(t), Some(due), Some(called)) = (tracer.as_mut(), due, called) {
                    t.request("kvstore.set", due, called, Instant::now(), i);
                }
                expected[key as usize] = off;
            } else {
                let called = timed.then(Instant::now);
                let got = store.get(key as u64);
                if let (Some(t), Some(due), Some(called)) = (tracer.as_mut(), due, called) {
                    t.request("kvstore.get", due, called, Instant::now(), i);
                }
                let off = expected[key as usize] as usize;
                if got.as_deref() != Some(&inp.pool[off..off + VALUE_LEN]) {
                    failed += 1;
                }
            }
            i += 1;
        }
        let t1 = Instant::now();
        batch_ns.push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
        if (batch_ns.len() as u64).is_multiple_of(RSS_EVERY) {
            rss.push(((t1 - start).as_secs_f64(), rt.rss_bytes()));
        }
        if t1 - window_start >= WINDOW {
            window_ends.push(batch_ns.len());
            window_start = t1;
        }
        t0 = t1;
    }
    Phase {
        ops: i,
        failed,
        seconds: (t0 - start).as_secs_f64(),
        batch_ns,
        window_ends,
        rss,
        stats: rt.stats().since(&before),
    }
}

/// The layer-separation self-check: this workload must not allocate or pause.
fn self_check(report: &mut Report, p: &Phase) {
    report.check(p.stats.hallocs == 0, || {
        format!("kv-hot-read made {} hallocs in its measured phase (expected 0)", p.stats.hallocs)
    });
    report.check(p.stats.barriers == 0, || {
        format!("kv-hot-read ran {} barriers in its measured phase (expected 0)", p.stats.barriers)
    });
}

pub fn run(args: &Args) -> Report {
    let inp = inputs(args.seed);
    let mut report = Report::default();
    let seconds = args.seconds as f64;
    if !args.trace {
        let mut setup_s = Vec::with_capacity(SEGMENTS);
        let mut phases = Vec::with_capacity(SEGMENTS);
        for _ in 0..SEGMENTS {
            let t = Instant::now();
            let store = setup(&inp);
            setup_s.push(t.elapsed().as_secs_f64());
            let p = phase(&store, &inp, seconds / SEGMENTS as f64, None);
            report.attempted += p.ops;
            report.failed += p.failed;
            self_check(&mut report, &p);
            check_store(&mut report, &store, KEYS as usize);
            if phases.is_empty() {
                note_host(&mut report, store.runtime());
            }
            phases.push(p);
        }
        let windows: Vec<&[u32]> = phases.iter().flat_map(Phase::windows).collect();
        let full = FullSpeed::of(&windows);
        let rss: Vec<f64> = phases.iter().map(|p| steady_rss_mb(&p.rss, p.seconds)).collect();
        let phase_s: f64 = phases.iter().map(|p| p.seconds).sum();
        report.metric("setup_s", setup_seconds(&setup_s), "s");
        report.metric("throughput_ops_s", full.throughput(), "1/s");
        report.metric("latency_p50_us", full.latency_us(0.5), "us");
        report.metric("latency_p99_us", full.latency_us(0.99), "us");
        report.metric("steady_rss_mb", median(&rss), "MB");
        report.note("whole_phase_throughput_ops_s", ratio(report.attempted as f64, phase_s));
        report.note("full_speed_window_share", full.share);
        let batches: usize = full.windows.iter().map(|w| w.len()).sum();
        report.note(
            "latency_samples",
            format!("{batches} batches of {BATCH} ops in {} windows", full.windows.len()),
        );
        report.note("copy_workers", 0);
        return report;
    }

    // Traced run: half the time untraced, for the overhead ratio, then half
    // traced on a fresh store.
    let untraced = phase(&setup(&inp), &inp, seconds / 2.0, None);
    let store = setup(&inp);
    let capacity = (seconds * 2e7 / SAMPLE_EVERY as f64) as usize + 64;
    let mut tracer = Tracer::new(Instant::now(), capacity);
    let p = phase(&store, &inp, seconds / 2.0, Some(&mut tracer));
    report.attempted = untraced.ops + p.ops;
    report.failed = untraced.failed + p.failed;
    self_check(&mut report, &untraced);
    self_check(&mut report, &p);
    let fragmentation = store.runtime().service_fragmentation();
    let rss_per_live = ledger::rss_per_live(store.runtime());
    store.set(PROBE_KEY, &inp.pool[..VALUE_LEN]);
    let ledger = ledger::probe(store.runtime(), true, || {
        std::hint::black_box(store.get(PROBE_KEY));
    });
    store.delete(PROBE_KEY);
    let pauses = ledger::probe_pauses(store.runtime(), &mut tracer);
    check_store(&mut report, &store, KEYS as usize);
    ledger::emit(
        &mut report,
        &TracedPhase {
            tracer: &tracer,
            ledger,
            ops: p.ops,
            stats: p.stats,
            pauses: &pauses,
            control_passes: 0,
            evictions: 0,
            fragmentation,
            rss_per_live,
            overhead_ratio: ratio(
                FullSpeed::of(&p.windows()).throughput(),
                FullSpeed::of(&untraced.windows()).throughput(),
            ),
        },
    );
    note_host(&mut report, store.runtime());
    report.note("copy_workers", pauses.iter().map(|p| p.outcome.copy_workers).max().unwrap_or(0));
    crate::write_trace(&mut report, &tracer, args);
    report
}
