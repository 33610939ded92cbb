//! Spans around the calls the benchmark makes into each layer.
//!
//! Spans live in a buffer allocated before the traced phase starts and are
//! written out as JSON lines when the run ends.  Nothing here reaches inside
//! the program: a span covers one public call (or one request, which is the
//! due time plus the call), and the children of a pause are derived from the
//! runtime's own counters and the returned `DefragOutcome`.

use alaska_runtime::service::DefragOutcome;
use alaska_runtime::Runtime;
use std::io::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, as `<crate>.<call>` (or `request` for a whole request).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Request (or pause) identifier shared by a span and its children.
    pub request: u64,
    /// Whether the interval was derived from a counter rather than read off
    /// the clock: its duration is exact, its placement is not.
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A preallocated span buffer.  When full, further spans are counted and
/// dropped so the traced phase never allocates.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    limit: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer measuring from `epoch` with room for `capacity` spans.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer { epoch, spans: Vec::with_capacity(capacity), limit: capacity, dropped: 0 }
    }

    /// `t` as nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span from clock readings; returns its index (or [`ROOT`] if
    /// the buffer is full).
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.push(Span { name, start_ns, end_ns, parent, request, derived: false })
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() >= self.limit {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Record a request: the root span runs from when the request was due to
    /// when the call returned, and its one child is the call itself.
    pub fn request(
        &mut self,
        call: &'static str,
        due: Instant,
        called: Instant,
        done: Instant,
        request: u64,
    ) {
        let root = self.span("request", due, done, ROOT, request);
        if root != ROOT {
            self.span(call, called, done, root, request);
        }
    }

    /// Record a pause: the timed call, the stop-the-world barrier inside it
    /// (its length from the runtime's `barrier_ns` counter), and the plan,
    /// copy and commit phases inside the barrier (from the outcome).
    pub fn pause(&mut self, name: &'static str, p: &Pause, request: u64) {
        let call = self.span(name, p.start, p.end, ROOT, request);
        if call == ROOT {
            return;
        }
        let start = self.at(p.start);
        let barrier = self.push(Span {
            name: "runtime.barrier",
            start_ns: start,
            end_ns: start + p.barrier_ns,
            parent: call,
            request,
            derived: true,
        });
        let mut t = start;
        for (phase, ns) in [
            ("anchorage.plan", p.outcome.plan_ns),
            ("anchorage.copy", p.outcome.copy_ns),
            ("anchorage.commit", p.outcome.commit_ns),
        ] {
            self.push(Span {
                name: phase,
                start_ns: t,
                end_ns: t + ns,
                parent: barrier,
                request,
                derived: true,
            });
            t += ns;
        }
    }

    /// Append another thread's spans, re-indexing their parents.
    pub fn merge(&mut self, other: Tracer) {
        self.limit += other.spans.len();
        self.spans.reserve(other.spans.len());
        let base = self.spans.len() as u32;
        let offset = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.dropped += other.dropped;
        for mut s in other.spans {
            s.start_ns += offset;
            s.end_ns += offset;
            if s.parent != ROOT {
                s.parent += base;
            }
            self.push(s);
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).collect()
    }

    /// Self time (ns) of every span called `name`: its duration minus the
    /// durations of its children.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]))
            .collect()
    }

    /// Largest gap between a request's due time and its call: how late the
    /// load generator ran.
    pub fn max_lag_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent != ROOT && self.spans[s.parent as usize].name == "request")
            .map(|s| s.start_ns.saturating_sub(self.spans[s.parent as usize].start_ns))
            .max()
            .unwrap_or(0)
    }

    /// Spans recorded and spans dropped because the buffer was full.
    pub fn counts(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}, \"derived\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.derived
            )?;
        }
        out.flush()
    }
}

/// One timed `Runtime::defragment` (or control pass) and what it reported.
#[derive(Debug, Clone, Copy)]
pub struct Pause {
    /// When the call was made.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
    /// How long the world was stopped, from the runtime's `barrier_ns`.
    pub barrier_ns: u64,
    /// What the service reported.
    pub outcome: DefragOutcome,
}

/// Reads the stop-the-world time of each pause from the runtime's cumulative
/// `barrier_ns` counter.  Valid while this caller is the only one starting
/// pauses on the runtime.
#[derive(Debug)]
pub struct BarrierClock {
    last_ns: u64,
}

impl BarrierClock {
    /// Start from the runtime's current total.
    pub fn new(rt: &Runtime) -> Self {
        BarrierClock { last_ns: rt.stats().barrier_ns }
    }

    /// Stop-the-world nanoseconds since the previous call.
    pub fn lap(&mut self, rt: &Runtime) -> u64 {
        let now = rt.stats().barrier_ns;
        let ns = now - self.last_ns;
        self.last_ns = now;
        ns
    }
}

/// Call `Runtime::defragment(budget)` and time it.
pub fn timed_defragment(rt: &Runtime, budget: Option<u64>, clock: &mut BarrierClock) -> Pause {
    let start = Instant::now();
    let outcome = rt.defragment(budget);
    let end = Instant::now();
    Pause { start, end, barrier_ns: clock.lap(rt), outcome }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_merge_reindexes() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 16);
        let due = epoch + Duration::from_nanos(100);
        a.request(
            "kvstore.get",
            due,
            due + Duration::from_nanos(30),
            due + Duration::from_nanos(130),
            1,
        );
        assert_eq!(a.self_times("request"), vec![30]);
        assert_eq!(a.max_lag_ns(), 30);

        let mut b = Tracer::new(epoch, 16);
        let p = Pause {
            start: epoch,
            end: epoch + Duration::from_nanos(1000),
            barrier_ns: 900,
            outcome: DefragOutcome {
                plan_ns: 100,
                copy_ns: 500,
                commit_ns: 200,
                ..Default::default()
            },
        };
        b.pause("runtime.defragment", &p, 7);
        a.merge(b);
        assert_eq!(a.self_times("runtime.barrier"), vec![100]);
        assert_eq!(a.self_times("runtime.defragment"), vec![100]);
        assert_eq!(a.durations("anchorage.copy"), vec![500]);
        assert_eq!(a.counts(), (7, 0));
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 1);
        t.request("kvstore.get", epoch, epoch, epoch, 0);
        t.request("kvstore.get", epoch, epoch, epoch, 1);
        assert_eq!(t.counts(), (1, 2));
    }
}
