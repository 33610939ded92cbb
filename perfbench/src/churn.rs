//! `kv-churn-defrag`: allocation, defragmentation pauses and the registry.
//!
//! One client thread runs an open loop at 100,000 requests/s against a
//! 16-shard `ShardedStore` of 50,000 keys: 50% get, 50% set with a fresh size
//! drawn uniformly from 64..=1024 bytes (never the key's current size, so
//! every set is an `halloc` + `hfree`).  A pause thread calls
//! `Runtime::defragment(Some(1 MiB))` every 50 ms, and a telemetry hub is
//! installed, as in Figure 12.  Each request's latency runs from the time it
//! was due, so a request that waits behind a pause is charged for the wait.
//!
//! Latency percentiles are medians over one-second windows (100,000 requests
//! and 20 pauses each): a pause that stalls for tens of milliseconds, which
//! happens a few times a minute on a shared host, then moves one window's
//! p99 rather than the whole run's.  Every window is kept: choosing windows
//! by their median latency left too few to take a steady p99 over.

use crate::ledger::{self, TracedPhase};
use crate::report::{
    check_store, median_percentile, note_host, ratio, setup_seconds, steady_rss_mb, timed_setups,
    value_pool, Report,
};
use crate::trace::{timed_defragment, BarrierClock, Pause, Tracer};
use crate::Args;
use alaska::{AlaskaBuilder, Telemetry};
use alaska_kvstore::ShardedStore;
use alaska_runtime::stats::StatsSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: u32 = 50_000;
const MIN_LEN: u64 = 64;
const MAX_LEN: u64 = 1024;
const SHARDS: usize = 16;
const RATE_PER_S: u64 = 100_000;
const PAUSE_EVERY: Duration = Duration::from_millis(50);
const PAUSE_BUDGET: u64 = 1 << 20;
/// Pre-generated ops, replayed cyclically.
const OPS: usize = 1 << 20;
/// Value offsets index a pool of this many bytes.
const POOL: u64 = 1 << 20;
/// Requests between RSS samples (~10 ms).
const RSS_EVERY: u64 = 1024;
/// Set-ups timed before the phase, and again after it.
const SETUPS: usize = 5;
/// One request in this many is traced.
const SAMPLE_EVERY: u64 = 32;
/// Key read by the ledger's `get` probe; outside the workload's key range.
const PROBE_KEY: u64 = KEYS as u64;

/// Op encoding: bits 0..16 key, bit 16 set, bits 17..28 length, bits 28..48
/// value offset.
const SET: u64 = 1 << 16;

fn decode(op: u64) -> (u64, bool, u64, u64) {
    (op & 0xFFFF, op & SET != 0, (op >> 17) & 0x7FF, op >> 28)
}

struct Inputs {
    ops: Vec<u64>,
    pool: Vec<u8>,
    /// `(offset, length)` of each key's value after preload.
    initial: Vec<(u32, u16)>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = value_pool(&mut rng, (POOL + MAX_LEN) as usize);
    let value = |rng: &mut StdRng| (rng.gen_range(0..POOL), rng.gen_range(MIN_LEN..MAX_LEN + 1));
    let initial = (0..KEYS)
        .map(|_| {
            let (off, len) = value(&mut rng);
            (off as u32, len as u16)
        })
        .collect();
    let ops = (0..OPS)
        .map(|_| {
            let key = rng.gen_range(0..KEYS as u64);
            if rng.gen_bool(0.5) {
                let (off, len) = value(&mut rng);
                key | SET | len << 17 | off << 28
            } else {
                key
            }
        })
        .collect();
    Inputs { ops, pool, initial }
}

fn setup(inp: &Inputs) -> ShardedStore {
    let rt =
        AlaskaBuilder::new().with_anchorage().with_telemetry(Arc::new(Telemetry::new())).build();
    let store = ShardedStore::new(Arc::new(rt), SHARDS);
    for (key, &(off, len)) in inp.initial.iter().enumerate() {
        store.set(key as u64, &inp.pool[off as usize..off as usize + len as usize]);
    }
    store
}

struct Phase {
    ops: u64,
    failed: u64,
    seconds: f64,
    /// Nanoseconds from each request's due time to its completion.
    latency_ns: Vec<u32>,
    rss: Vec<(f64, u64)>,
    stats: StatsSnapshot,
    pauses: Vec<Pause>,
}

impl Phase {
    fn throughput(&self) -> f64 {
        ratio(self.ops as f64, self.seconds)
    }
}

/// Run the open loop and the pause thread for `seconds`.  With a tracer, one
/// request in [`SAMPLE_EVERY`] and every pause are recorded as spans.
fn phase(store: &ShardedStore, inp: &Inputs, seconds: f64, tracer: Option<&mut Tracer>) -> Phase {
    let rt = store.runtime();
    let requests = (seconds * RATE_PER_S as f64) as u64;
    let interval_ns = 1_000_000_000 / RATE_PER_S;
    let mut expected = inp.initial.clone();
    let mut failed = 0u64;
    let mut latency_ns = Vec::with_capacity(requests as usize);
    let mut rss = Vec::new();
    let stop = AtomicBool::new(false);
    let before = rt.stats();
    let start = Instant::now();
    let mut tracer = tracer;
    let tracing = tracer.is_some();
    let (last, pauses, pause_spans) = std::thread::scope(|s| {
        let pauser = s.spawn(|| {
            let _registered = rt.register_current_thread();
            let mut clock = BarrierClock::new(rt);
            let mut spans = Tracer::new(start, if tracing { 4 * 4096 } else { 0 });
            let mut pauses = Vec::new();
            for k in 1u32.. {
                if let Some(wait) = (start + PAUSE_EVERY * k).checked_duration_since(Instant::now())
                {
                    std::thread::sleep(wait);
                }
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let p = timed_defragment(rt, Some(PAUSE_BUDGET), &mut clock);
                if tracing {
                    spans.pause("runtime.defragment", &p, k as u64);
                }
                pauses.push(p);
            }
            (pauses, spans)
        });

        let mut last = start;
        for i in 0..requests {
            let due = start + Duration::from_nanos(i * interval_ns);
            let mut called = Instant::now();
            while called < due {
                std::hint::spin_loop();
                called = Instant::now();
            }
            let (key, is_set, len, off) = decode(inp.ops[i as usize % OPS]);
            let (exp_off, exp_len) = expected[key as usize];
            let (name, got) = if is_set {
                let len = match len {
                    l if l != exp_len as u64 => l,
                    MAX_LEN => MAX_LEN - 1,
                    l => l + 1,
                };
                store.set(key, &inp.pool[off as usize..(off + len) as usize]);
                expected[key as usize] = (off as u32, len as u16);
                ("kvstore.set", None)
            } else {
                ("kvstore.get", Some(store.get(key)))
            };
            let done = Instant::now();
            latency_ns.push((done - due).as_nanos().min(u32::MAX as u128) as u32);
            if let Some(got) = got {
                let want = &inp.pool[exp_off as usize..exp_off as usize + exp_len as usize];
                if got.as_deref() != Some(want) {
                    failed += 1;
                }
            }
            if let Some(t) = tracer.as_mut().filter(|_| i.is_multiple_of(SAMPLE_EVERY)) {
                t.request(name, due, called, done, i);
            }
            if i.is_multiple_of(RSS_EVERY) {
                rss.push(((done - start).as_secs_f64(), rt.rss_bytes()));
            }
            last = done;
        }
        stop.store(true, Ordering::Release);
        // While it waits for the pause thread, this thread runs no handle
        // code; marking it external keeps a last pause from waiting on it.
        rt.external_begin();
        let (pauses, spans) = pauser.join().expect("pause thread panicked");
        rt.external_end();
        (last, pauses, spans)
    });
    if let Some(t) = tracer {
        t.merge(pause_spans);
    }
    Phase {
        ops: requests,
        failed,
        seconds: (last - start).as_secs_f64(),
        latency_ns,
        rss,
        stats: rt.stats().since(&before),
        pauses,
    }
}

/// The layer-separation self-check: pauses ran and moved objects.
fn self_check(report: &mut Report, p: &Phase) {
    let want = (p.seconds * 10.0).floor() as u64;
    report.check(p.stats.barriers >= want, || {
        format!(
            "kv-churn-defrag ran {} barriers in {:.2} s, expected >= {want}",
            p.stats.barriers, p.seconds
        )
    });
    report.check(p.stats.objects_moved > 0, || "kv-churn-defrag moved no objects".to_string());
}

fn copy_workers(pauses: &[Pause]) -> u64 {
    pauses.iter().map(|p| p.outcome.copy_workers).max().unwrap_or(0)
}

pub fn run(args: &Args) -> Report {
    let inp = inputs(args.seed);
    let mut report = Report::default();
    let seconds = args.seconds as f64;
    if !args.trace {
        let (store, mut setup_s) = timed_setups(SETUPS, || setup(&inp));
        let p = phase(&store, &inp, seconds, None);
        report.attempted = p.ops;
        report.failed = p.failed;
        self_check(&mut report, &p);
        check_store(&mut report, &store, KEYS as usize);
        note_host(&mut report, store.runtime());
        drop(store);
        // Set up as many times again after the phase, so that set-ups are
        // timed at both ends of the run rather than all at once.
        setup_s.extend(timed_setups(SETUPS, || setup(&inp)).1);
        let windows = || p.latency_ns.chunks_exact(RATE_PER_S as usize);
        report.metric("setup_s", setup_seconds(&setup_s), "s");
        report.metric("throughput_ops_s", p.throughput(), "1/s");
        report.metric("latency_p50_us", median_percentile(windows(), 0.5) / 1e3, "us");
        report.metric("latency_p99_us", median_percentile(windows(), 0.99) / 1e3, "us");
        report.metric("steady_rss_mb", steady_rss_mb(&p.rss, p.seconds), "MB");
        report.note(
            "latency_samples",
            format!("{} requests in {} one-second windows", p.latency_ns.len(), windows().count()),
        );
        report.note("pauses", p.pauses.len());
        report.note("copy_workers", copy_workers(&p.pauses));
        return report;
    }

    let untraced = phase(&setup(&inp), &inp, seconds / 2.0, None);
    let store = setup(&inp);
    let capacity = 2 * (seconds * RATE_PER_S as f64 / SAMPLE_EVERY as f64) as usize + 64;
    let mut tracer = Tracer::new(Instant::now(), capacity);
    let p = phase(&store, &inp, seconds / 2.0, Some(&mut tracer));
    report.attempted = untraced.ops + p.ops;
    report.failed = untraced.failed + p.failed;
    self_check(&mut report, &untraced);
    self_check(&mut report, &p);
    let fragmentation = store.runtime().service_fragmentation();
    let rss_per_live = ledger::rss_per_live(store.runtime());
    store.set(PROBE_KEY, &inp.pool[..64]);
    let ledger = ledger::probe(store.runtime(), true, || {
        std::hint::black_box(store.get(PROBE_KEY));
    });
    store.delete(PROBE_KEY);
    check_store(&mut report, &store, KEYS as usize);
    ledger::emit(
        &mut report,
        &TracedPhase {
            tracer: &tracer,
            ledger,
            ops: p.ops,
            stats: p.stats,
            pauses: &p.pauses,
            control_passes: 0,
            evictions: 0,
            fragmentation,
            rss_per_live,
            overhead_ratio: ratio(p.throughput(), untraced.throughput()),
        },
    );
    note_host(&mut report, store.runtime());
    report.note("copy_workers", copy_workers(&p.pauses));
    crate::write_trace(&mut report, &tracer, args);
    report
}
