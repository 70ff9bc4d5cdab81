//! One episode: generate the workload, build and warm the simulation up
//! (the set-up), run the measured window in slices with a reference
//! quantum after each, and tear down. Every number is taken outside the
//! program: wall time around public calls, the allocator counters, the
//! journal records through `Journal::add_sink`, and `SimStats`/`RunReport`.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use chaos::{AuditConfig, AuditReport, Auditor};
use ringnet_core::driver::{hierarchy_core, ringnet_spec, MulticastSim, RunMetrics, RunReport};
use ringnet_core::metrics::MetricsAccumulator;
use ringnet_core::{ProtoEvent, RingNetSim};
use simnet::{SimStats, SimTime};

use crate::alloc::{self, Counts};
use crate::probe::Probe;
use crate::refk::{nominal_quantum_s, RefKernel};
use crate::workload::{self, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the window runs through `MulticastSim::run_until`.
    Timed,
    /// Every event stepped through `Sim::step` and timed; journal kept.
    Traced,
    /// Untraced, with protocol telemetry on (its counters are read).
    Telemetry,
}

impl Mode {
    fn span(self) -> &'static str {
        match self {
            Mode::Timed => "episode.timed",
            Mode::Traced => "episode.traced",
            Mode::Telemetry => "episode.telemetry",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::Telemetry => "telemetry",
        }
    }
}

/// What must repeat exactly between episodes of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub delivered: u64,
    pub events: u64,
    pub packets_sent: u64,
    /// Allocator calls in the measured window.
    pub window_allocs: u64,
}

/// Hierarchy tiers a step's wall time is charged to, in `tier_ns` order.
pub const TIER_METRICS: [&str; 4] = [
    "ordering.self_ns_share",
    "forwarding.self_ns_share",
    "mh.self_ns_share",
    "silent.self_ns_share",
];
const ORDERING: u8 = 0;
const FORWARDING: u8 = 1;
const MH: u8 = 2;
const SILENT: u8 = 3;

pub struct Trace {
    /// Wall ns of the window's steps, per tier.
    pub tier_ns: [f64; 4],
    pub records: usize,
    pub metrics_replay_s: f64,
    pub audit_replay_s: f64,
    pub replayed: RunMetrics,
    pub audit: AuditReport,
}

pub struct Episode {
    pub mode: Mode,
    pub fingerprint: Fingerprint,
    pub failures: Vec<String>,
    /// Wall time of scenario generation, mobility trace included.
    pub plan_s: f64,
    pub build_s: f64,
    pub warmup_s: f64,
    /// Mean of the reference quanta run just before and after set-up.
    setup_quantum_s: f64,
    window_sim_s: f64,
    window_wall_s: f64,
    window_ref_s: f64,
    quanta: usize,
    pub window_allocs: Counts,
    pub peak_heap: u64,
    pub probe: Probe,
    pub report: RunReport,
    stats_at_window: SimStats,
    /// Messages sent in the counted range, and those never ordered.
    pub messages: (u64, u64),
    pub trace: Option<Trace>,
}

impl Episode {
    pub fn setup_raw_s(&self) -> f64 {
        self.plan_s + self.build_s + self.warmup_s
    }

    /// Factor rescaling a set-up wall time to the nominal reference speed.
    pub fn setup_scale(&self) -> f64 {
        nominal_quantum_s() / self.setup_quantum_s
    }

    pub fn setup_norm_s(&self) -> f64 {
        self.setup_raw_s() * self.setup_scale()
    }

    /// The window's wall time rescaled by Σ slice wall ÷ Σ reference wall.
    pub fn window_norm_s(&self) -> f64 {
        self.window_wall_s * self.quanta as f64 * nominal_quantum_s() / self.window_ref_s
    }

    pub fn speed_raw(&self) -> f64 {
        self.window_sim_s / self.window_wall_s
    }

    pub fn speed_norm(&self) -> f64 {
        self.window_sim_s / self.window_norm_s()
    }

    pub fn mean_quantum_s(&self) -> f64 {
        self.window_ref_s / self.quanta as f64
    }

    /// Transport counters accumulated inside the measured window.
    pub fn window_stats(&self) -> SimStats {
        let (a, b) = (self.report.stats, self.stats_at_window);
        SimStats {
            events: a.events - b.events,
            packets_sent: a.packets_sent - b.packets_sent,
            packets_delivered: a.packets_delivered - b.packets_delivered,
            packets_lost: a.packets_lost - b.packets_lost,
            packets_no_route: a.packets_no_route - b.packets_no_route,
            packets_queue_dropped: a.packets_queue_dropped - b.packets_queue_dropped,
            packets_link_down: a.packets_link_down - b.packets_link_down,
            timers_fired: a.timers_fired - b.timers_fired,
        }
    }
}

/// Wall-clock spans around each public call, kept in memory (only when
/// enabled, so timed runs record nothing) and written out at exit.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<(&'static str, u64, u64, Option<usize>)>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            // Sized so that recording never allocates inside a window.
            spans: Vec::with_capacity(if enabled { 4096 } else { 0 }),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        if !self.enabled || self.spans.len() == self.spans.capacity() {
            return usize::MAX;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        self.spans.push((name, s, e, parent));
        self.spans.len() - 1
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(name, now, now, parent)
    }

    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id) {
            span.2 = end;
        }
    }

    pub fn json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, (name, s, e, parent))| {
                let parent = parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"name\": \"{name}\", \"start_ns\": {s}, \"end_ns\": {e}, \"parent\": {parent}}}"
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// The journal kept by a traced episode, in storage sized up front.
struct Capture {
    journal: Vec<(SimTime, ProtoEvent)>,
    overflow: bool,
}

/// The node a record names, and whether it is a walker.
fn named(e: &ProtoEvent) -> (u32, bool) {
    use ProtoEvent::*;
    match *e {
        MhDeliver { mh, .. }
        | MhSkip { mh, .. }
        | HandoffRegistered { mh, .. }
        | MhFinal { mh, .. } => (mh.0, true),
        SourceSend { source: n, .. }
        | Ordered { node: n, .. }
        | MqCopied { node: n, .. }
        | NeDelivered { node: n, .. }
        | NeSkip { node: n, .. }
        | TokenPass { node: n, .. }
        | TokenRegenerated { node: n, .. }
        | TokenDestroyed { node: n, .. }
        | TokenDropped { node: n, .. }
        | RingRepaired { node: n, .. }
        | RingRejoined { node: n, .. }
        | RingPartitioned { node: n, .. }
        | RingMerged { node: n, .. }
        | Grafted { parent: n, .. }
        | Pruned { parent: n, .. }
        | Reserved { ap: n, .. }
        | MembershipCount { node: n, .. }
        | BufferSample { node: n, .. }
        | NeFinal { node: n, .. } => (n.0, false),
    }
}

pub fn run(
    w: Workload,
    seed: u64,
    mode: Mode,
    reference: &mut RefKernel,
    spans: &mut Spans,
    journal_capacity: Option<usize>,
) -> Episode {
    let mut failures = Vec::new();
    let top = spans.open(mode.span(), None);
    let q_before = reference.quantum();

    let setup = spans.open("setup", Some(top));
    let t = Instant::now();
    let mut plan = workload::plan(w, seed);
    let plan_s = t.elapsed().as_secs_f64();
    spans.push("scenario generation", t, Instant::now(), Some(setup));
    plan.scenario.cfg.telemetry = mode == Mode::Telemetry;

    // Benchmark-side storage is allocated before the heap baseline.
    let probe = Arc::new(Mutex::new(Probe::new(&plan)));
    let capacity = probe.lock().expect("probe lock").capacity();
    let capture = Arc::new(Mutex::new(Capture {
        journal: Vec::with_capacity(journal_capacity.unwrap_or(0)),
        overflow: false,
    }));
    let spec = ringnet_spec(&plan.scenario);
    let mut tier_of =
        vec![FORWARDING; 1 + spec.aps.iter().map(|a| a.id.0 as usize).max().unwrap_or(0)];
    for n in &spec.top_ring {
        tier_of[n.0 as usize] = ORDERING;
    }
    let tier = Arc::new(AtomicU8::new(SILENT));
    let sentinel = Arc::new(AtomicBool::new(false));
    let baseline = alloc::reset_peak();

    let span = spans.open("MulticastSim::build", Some(setup));
    let t = Instant::now();
    let mut net = <RingNetSim as MulticastSim>::build(&plan.scenario, seed);
    let sink = Arc::clone(&probe);
    net.journal_mut()
        .add_sink(move |t, e| sink.lock().expect("probe lock").observe(t, e));
    if mode == Mode::Traced {
        let (cap, tier) = (Arc::clone(&capture), Arc::clone(&tier));
        net.journal_mut().add_sink(move |t, e| {
            if tier.load(Relaxed) == SILENT {
                let (node, walker) = named(e);
                let t = if walker {
                    MH
                } else {
                    *tier_of.get(node as usize).unwrap_or(&FORWARDING)
                };
                tier.store(t, Relaxed);
            }
            let mut c = cap.lock().expect("capture lock");
            if c.journal.len() < c.journal.capacity() {
                c.journal.push((t, *e));
            } else {
                c.overflow = true;
            }
        });
    }
    for ev in &plan.scenario.events {
        MulticastSim::schedule(&mut net, *ev);
    }
    // A no-op marker event at each slice end in every mode, so the traced
    // step loop knows where a slice ends and every mode runs the same
    // event sequence.
    for &end in &plan.slice_ends {
        let s = Arc::clone(&sentinel);
        net.sim
            .world()
            .schedule_control(end, move |_| s.store(true, Relaxed));
    }
    let build_s = t.elapsed().as_secs_f64();
    spans.close(span);

    let span = spans.open("warm-up run_until", Some(setup));
    let t = Instant::now();
    MulticastSim::run_until(&mut net, plan.window_start);
    let warmup_s = t.elapsed().as_secs_f64();
    spans.close(span);
    spans.close(setup);
    let q_after = reference.quantum();

    let window = spans.open("window", Some(top));
    let stats_at_window = net.stats();
    let allocs_before = alloc::counts();
    let mut tier_ns = [0f64; 4];
    let (mut window_wall_s, mut window_ref_s) = (0.0, 0.0);
    for &end in &plan.slice_ends {
        let span = spans.open("slice", Some(window));
        let t = Instant::now();
        if mode == Mode::Traced {
            sentinel.store(false, Relaxed);
            loop {
                tier.store(SILENT, Relaxed);
                let s = Instant::now();
                let more = net.sim.step();
                tier_ns[tier.load(Relaxed) as usize] += s.elapsed().as_nanos() as f64;
                if sentinel.load(Relaxed) || !more {
                    break;
                }
            }
            // Events due at the slice end but queued after the marker.
            tier.store(SILENT, Relaxed);
            let s = Instant::now();
            MulticastSim::run_until(&mut net, end);
            tier_ns[tier.load(Relaxed) as usize] += s.elapsed().as_nanos() as f64;
        } else {
            MulticastSim::run_until(&mut net, end);
        }
        window_wall_s += t.elapsed().as_secs_f64();
        spans.close(span);
        window_ref_s += reference.quantum();
    }
    let window_allocs = alloc::counts().since(allocs_before);
    spans.close(window);

    let span = spans.open("MulticastSim::finish", Some(top));
    let report = MulticastSim::finish(net);
    spans.close(span);
    let peak_heap = alloc::peak() - baseline;

    let probe = Arc::try_unwrap(probe)
        .ok()
        .expect("the simulation and its sinks are gone")
        .into_inner()
        .expect("probe lock");
    if probe.capacity() != capacity {
        failures.push("the probe's buffers grew: allocation counts include the benchmark".into());
    }
    if report.metrics.order_violations != 0 {
        failures.push(format!(
            "{} order violations",
            report.metrics.order_violations
        ));
    }
    let messages = probe.messages();

    let trace = (mode == Mode::Traced).then(|| {
        let cap = Arc::try_unwrap(capture)
            .ok()
            .expect("the simulation and its sinks are gone")
            .into_inner()
            .expect("capture lock");
        if cap.overflow {
            failures.push("the traced journal outgrew the untraced episode's record count".into());
        }
        let journal = cap.journal;
        let span = spans.open("MetricsAccumulator::observe_journal", Some(top));
        let t = Instant::now();
        let mut acc = MetricsAccumulator::new(hierarchy_core(&spec));
        acc.observe_journal(&journal);
        let metrics_replay_s = t.elapsed().as_secs_f64();
        spans.close(span);
        let span = spans.open("Auditor::observe", Some(top));
        let t = Instant::now();
        let mut auditor = Auditor::new(AuditConfig::default());
        for (t, e) in &journal {
            auditor.observe(*t, e);
        }
        let audit = auditor.finish(plan.scenario.duration);
        let audit_replay_s = t.elapsed().as_secs_f64();
        spans.close(span);
        Trace {
            tier_ns,
            records: journal.len(),
            metrics_replay_s,
            audit_replay_s,
            replayed: acc.finish(),
            audit,
        }
    });
    spans.close(top);

    Episode {
        mode,
        fingerprint: Fingerprint {
            delivered: report.metrics.delivered,
            events: report.stats.events,
            packets_sent: report.stats.packets_sent,
            window_allocs: window_allocs.calls,
        },
        failures,
        plan_s,
        build_s,
        warmup_s,
        setup_quantum_s: (q_before + q_after) / 2.0,
        window_sim_s: plan
            .scenario
            .duration
            .saturating_since(plan.window_start)
            .as_secs_f64(),
        window_wall_s,
        window_ref_s,
        quanta: plan.slice_ends.len(),
        window_allocs,
        peak_heap,
        probe,
        report,
        stats_at_window,
        messages,
        trace,
    }
}
