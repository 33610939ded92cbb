//! `redis-lru-frag`: the Figure 9 headline, compaction cutting resident
//! memory.
//!
//! One client thread drives a `RedisLike` store on `HandleStorage` with a
//! 32 MiB `maxmemory` through a 10,000-ms simulated timeline that inserts
//! 2.5x `maxmemory`.  Value sizes drift from 96 to 640 bytes (plus 0..64 bytes
//! of jitter), 8 gets per simulated ms are skewed toward the oldest live keys,
//! and the default `ControlAlgorithm` runs its passes on the simulated clock.
//! The timeline is fixed by the seed, so RSS is the same on every repetition;
//! a run repeats the timeline until its time is used up, and its timing
//! metrics are medians over the repetitions.

use crate::ledger::{self, TracedPhase};
use crate::report::{
    median, median_percentile, note_host, ratio, setup_seconds, value_pool, Report,
};
use crate::trace::{BarrierClock, Pause, Tracer};
use crate::Args;
use alaska::{AlaskaBuilder, ControlAlgorithm, ControlParams};
use alaska_kvstore::{HandleStorage, RedisLike, ValueStorage};
use alaska_runtime::stats::StatsSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAXMEMORY: u64 = 32 << 20;
const FILL_FACTOR: f64 = 2.5;
const DURATION_MS: usize = 10_000;
const SIZE_START: f64 = 96.0;
const SIZE_END: f64 = 640.0;
const JITTER: u64 = 64;
const GETS_PER_MS: usize = 8;
/// RSS is sampled every this many simulated ms.
const RSS_EVERY_MS: usize = 100;
/// Value offsets index a pool of this many bytes.
const POOL: u64 = 1 << 20;
const MAX_LEN: usize = SIZE_END as usize + JITTER as usize;
/// One request in this many is traced.
const SAMPLE_EVERY: u64 = 64;
/// Key read by the ledger's `get` probe; beyond every inserted key.
const PROBE_KEY: u64 = u64::MAX;

type Store = RedisLike<HandleStorage>;

struct Inputs {
    /// `(offset, length)` of the value of key `k`, in insertion order.
    values: Vec<(u32, u16)>,
    /// Keys inserted by the end of each simulated ms.
    inserted_by: Vec<u32>,
    /// Uniform draws picking each get's key among the live keys.
    gets: Vec<u32>,
    pool: Vec<u8>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = value_pool(&mut rng, POOL as usize + MAX_LEN);
    let bytes_per_ms = (MAXMEMORY as f64 * FILL_FACTOR / DURATION_MS as f64).ceil() as u64;
    let (mut values, mut inserted_by) = (Vec::new(), Vec::with_capacity(DURATION_MS));
    let mut carry = 0u64;
    for t in 0..DURATION_MS {
        let mean = SIZE_START + (SIZE_END - SIZE_START) * t as f64 / DURATION_MS as f64;
        let mut budget = bytes_per_ms + carry;
        loop {
            let len = mean as u64 + rng.gen_range(0..JITTER);
            if len > budget {
                break;
            }
            values.push((rng.gen_range(0..POOL) as u32, len as u16));
            budget -= len;
        }
        carry = budget;
        inserted_by.push(values.len() as u32);
    }
    let gets = (0..DURATION_MS * GETS_PER_MS).map(|_| rng.gen::<u32>()).collect();
    Inputs { values, inserted_by, gets, pool }
}

impl Inputs {
    fn value(&self, key: u64) -> &[u8] {
        let (off, len) = self.values[key as usize];
        &self.pool[off as usize..off as usize + len as usize]
    }
}

/// One repetition of the timeline.
struct Rep {
    setup_s: f64,
    /// Ops in the measured phase (after the store first filled).
    ops: u64,
    failed: u64,
    seconds: f64,
    latency_ns: Vec<u32>,
    steady_rss_mb: f64,
    control_passes: u64,
    /// Evictions in the measured phase.
    evictions: u64,
    stats: StatsSnapshot,
    pauses: Vec<Pause>,
}

struct Timeline<'a> {
    inp: &'a Inputs,
    store: Store,
    control: ControlAlgorithm,
    failed: u64,
    latency_ns: Vec<u32>,
    rss: Vec<u64>,
    pauses: Vec<Pause>,
}

impl Timeline<'_> {
    /// Run simulated ms `t`: its sets, its gets, one control tick.  `measure`
    /// times every op; a tracer records one request in [`SAMPLE_EVERY`] and
    /// every control pass.
    fn step(
        &mut self,
        t: usize,
        measure: bool,
        clock: &mut BarrierClock,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let inp = self.inp;
        let first = if t == 0 { 0 } else { inp.inserted_by[t - 1] as u64 };
        for key in first..inp.inserted_by[t] as u64 {
            let sampled = tracer.is_some() && key.is_multiple_of(SAMPLE_EVERY);
            let t0 = (measure || sampled).then(Instant::now);
            let value = inp.value(key);
            let called = sampled.then(Instant::now);
            self.store.set(key, value);
            self.record(t0, called, "kvstore.set", key, tracer);
        }
        let inserted = inp.inserted_by[t] as u64;
        let live = self.store.len() as u64;
        for g in 0..GETS_PER_MS {
            let n = (t * GETS_PER_MS + g) as u64;
            let sampled = tracer.is_some() && n.is_multiple_of(SAMPLE_EVERY);
            let t0 = (measure || sampled).then(Instant::now);
            // Squaring a uniform draw skews toward the oldest live keys.
            let u = inp.gets[n as usize] as f64 / (1u64 << 32) as f64;
            let key = inserted - live + (u * u * live as f64) as u64;
            let called = sampled.then(Instant::now);
            let got = self.store.get(key);
            self.record(t0, called, "kvstore.get", n, tracer);
            // A miss is an evicted key; the end-of-timeline check accounts
            // for every eviction.
            if got.is_some_and(|v| v != inp.value(key)) {
                self.failed += 1;
            }
        }
        let tick_start = tracer.is_some().then(Instant::now);
        if let Some(pass) = self.control.tick(self.store.storage().runtime(), t as u64) {
            let pause = Pause {
                start: tick_start.unwrap_or_else(Instant::now),
                end: Instant::now(),
                barrier_ns: clock.lap(self.store.storage().runtime()),
                outcome: pass.outcome,
            };
            if let Some(tr) = tracer.as_mut() {
                tr.pause("anchorage.control_tick", &pause, t as u64);
            }
            self.pauses.push(pause);
        }
        if t.is_multiple_of(RSS_EVERY_MS) {
            self.rss.push(self.store.rss_bytes());
        }
    }

    fn record(
        &mut self,
        t0: Option<Instant>,
        called: Option<Instant>,
        name: &'static str,
        id: u64,
        tracer: &mut Option<&mut Tracer>,
    ) {
        if let Some(t0) = t0 {
            let done = Instant::now();
            self.latency_ns.push((done - t0).as_nanos().min(u32::MAX as u128) as u32);
            if let (Some(tr), Some(called)) = (tracer.as_mut(), called) {
                tr.request(name, t0, called, done, id);
            }
        }
    }
}

/// Set up a store, preload it until the first eviction, then run the rest of
/// the timeline as the measured phase.
fn rep(inp: &Inputs, mut tracer: Option<&mut Tracer>) -> (Rep, Store) {
    let setup_start = Instant::now();
    let rt = Arc::new(AlaskaBuilder::new().with_anchorage().build());
    let mut tl = Timeline {
        inp,
        store: RedisLike::new(HandleStorage::new(rt.clone()), MAXMEMORY),
        control: ControlAlgorithm::new(ControlParams::default()),
        failed: 0,
        latency_ns: Vec::with_capacity(inp.values.len() + inp.gets.len()),
        rss: Vec::with_capacity(DURATION_MS / RSS_EVERY_MS),
        pauses: Vec::new(),
    };
    let mut clock = BarrierClock::new(&rt);
    let mut t = 0;
    while t < DURATION_MS && tl.store.evictions() == 0 {
        tl.step(t, false, &mut clock, &mut None);
        t += 1;
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    tl.pauses.clear();
    let preload_failed = tl.failed;
    let preload_evictions = tl.store.evictions();
    let before = rt.stats();
    let first_measured_op = inp.inserted_by[t - 1] as u64 + (t * GETS_PER_MS) as u64;
    let start = Instant::now();
    for t in t..DURATION_MS {
        tl.step(t, true, &mut clock, &mut tracer);
    }
    let seconds = start.elapsed().as_secs_f64();
    let ops = inp.values.len() as u64 + inp.gets.len() as u64 - first_measured_op;
    let tail = tl.rss.len() * 3 / 4;
    let steady = &tl.rss[tail..];
    let r = Rep {
        setup_s,
        ops,
        failed: tl.failed - preload_failed,
        seconds,
        latency_ns: std::mem::take(&mut tl.latency_ns),
        steady_rss_mb: steady.iter().sum::<u64>() as f64 / steady.len() as f64 / 1e6,
        control_passes: tl.pauses.len() as u64,
        evictions: tl.store.evictions() - preload_evictions,
        stats: rt.stats().since(&before),
        pauses: std::mem::take(&mut tl.pauses),
    };
    (r, tl.store)
}

/// Checks at the end of a repetition: every eviction accounts for a missing
/// key, a control pass ran, and the handle table is consistent.
fn rep_checks(report: &mut Report, r: &Rep, store: &Store, inp: &Inputs) {
    let inserted = inp.values.len() as u64;
    report.check(store.len() as u64 + store.evictions() == inserted, || {
        format!("{} live + {} evicted keys != {inserted} inserted", store.len(), store.evictions())
    });
    report.check(r.control_passes >= 1, || {
        "redis-lru-frag ran no control pass in its measured phase".to_string()
    });
    if let Err(e) = store.storage().runtime().verify_table_invariants() {
        report.problems.push(format!("handle table invariants: {e}"));
    }
}

/// Run repetitions for at least `seconds` (and at least `min_reps`),
/// checking each; returns them with the last repetition's store.
fn reps(
    report: &mut Report,
    inp: &Inputs,
    seconds: f64,
    min_reps: usize,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Rep>, Store) {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let (r, store) = rep(inp, tracer.as_deref_mut());
        rep_checks(report, &r, &store, inp);
        report.attempted += r.ops;
        report.failed += r.failed;
        out.push(r);
        if out.len() >= min_reps && start.elapsed() >= Duration::from_secs_f64(seconds) {
            return (out, store);
        }
    }
}

fn throughput(reps: &[Rep]) -> f64 {
    median(&reps.iter().map(|r| ratio(r.ops as f64, r.seconds)).collect::<Vec<_>>())
}

/// Same seed, same timeline: every repetition must reach the same RSS.
fn same_rss_check(report: &mut Report, reps: &[&Rep]) {
    let first = reps[0].steady_rss_mb;
    report.check(reps.iter().all(|r| r.steady_rss_mb == first), || {
        let all: Vec<f64> = reps.iter().map(|r| r.steady_rss_mb).collect();
        format!("steady RSS differs between repetitions of one seed: {all:?}")
    });
}

fn copy_workers<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> u64 {
    reps.into_iter().flat_map(|r| &r.pauses).map(|p| p.outcome.copy_workers).max().unwrap_or(0)
}

pub fn run(args: &Args) -> Report {
    let inp = inputs(args.seed);
    let mut report = Report::default();
    let seconds = args.seconds as f64;
    if !args.trace {
        let (reps, store) = reps(&mut report, &inp, seconds, 2, None);
        same_rss_check(&mut report, &reps.iter().collect::<Vec<_>>());
        let lat = || reps.iter().map(|r| &r.latency_ns[..]);
        let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        report.metric("setup_s", setup_seconds(&setup_s), "s");
        report.metric("throughput_ops_s", throughput(&reps), "1/s");
        report.metric("latency_p50_us", median_percentile(lat(), 0.5) / 1e3, "us");
        report.metric("latency_p99_us", median_percentile(lat(), 0.99) / 1e3, "us");
        report.metric("steady_rss_mb", reps[0].steady_rss_mb, "MB");
        note_host(&mut report, store.storage().runtime());
        let samples: usize = lat().map(<[u32]>::len).sum();
        report.note("latency_samples", format!("{samples} ops in {} repetitions", reps.len()));
        report.note("control_passes_per_rep", reps[0].control_passes);
        report.note("copy_workers", copy_workers(&reps));
        return report;
    }

    let (untraced, _) = reps(&mut report, &inp, seconds / 2.0, 1, None);
    let capacity = 2 * (seconds * 1e6 / SAMPLE_EVERY as f64) as usize + 4096;
    let mut tracer = Tracer::new(Instant::now(), capacity);
    let (traced, mut store) = reps(&mut report, &inp, seconds / 2.0, 1, Some(&mut tracer));
    same_rss_check(&mut report, &untraced.iter().chain(&traced).collect::<Vec<_>>());
    let rt = store.storage().runtime().clone();
    let fragmentation = rt.service_fragmentation();
    let rss_per_live = ratio(store.rss_bytes() as f64, store.storage().live_bytes() as f64);
    store.set(PROBE_KEY, &inp.pool[..64]);
    let ledger = ledger::probe(&rt, false, || {
        std::hint::black_box(store.get(PROBE_KEY));
    });
    let pauses: Vec<Pause> = traced.iter().flat_map(|r| r.pauses.iter().copied()).collect();
    let sum = |f: fn(&Rep) -> u64| traced.iter().map(f).sum::<u64>();
    let stats = traced.iter().skip(1).fold(traced[0].stats, |a, r| sum_counters(a, r.stats));
    ledger::emit(
        &mut report,
        &TracedPhase {
            tracer: &tracer,
            ledger,
            ops: sum(|r| r.ops),
            stats,
            pauses: &pauses,
            control_passes: sum(|r| r.control_passes) / traced.len() as u64,
            evictions: sum(|r| r.evictions),
            fragmentation,
            rss_per_live,
            overhead_ratio: ratio(throughput(&traced), throughput(&untraced)),
        },
    );
    note_host(&mut report, &rt);
    report.note("copy_workers", copy_workers(untraced.iter().chain(&traced)));
    crate::write_trace(&mut report, &tracer, args);
    report
}

/// `a` with the counters the per-layer metrics read summed with `b`'s (each
/// repetition has its own runtime, so their deltas add).
fn sum_counters(a: StatsSnapshot, b: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        hallocs: a.hallocs + b.hallocs,
        magazine_refills: a.magazine_refills + b.magazine_refills,
        shard_lock_contention: a.shard_lock_contention + b.shard_lock_contention,
        ..a
    }
}
