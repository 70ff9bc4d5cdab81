//! RingNet benchmark: runs one seeded workload through the public
//! `MulticastSim` facade on `RingNetSim` and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path ringbench/Cargo.toml -- \
//!     --workload metro_fanout --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` repeats whole episodes (set-up, then the measured window)
//! for `--seconds` and prints the end-to-end metrics. `--trace 1` runs one
//! untraced episode, one traced episode (every event stepped and timed,
//! the journal kept and replayed) and one episode with protocol telemetry
//! on, and prints the per-layer metrics. The last stdout line is one JSON
//! object; any correctness failure exits non-zero. Wall times are
//! normalised to the reference kernel (see `refk.rs` and `NOISE.md`).

mod alloc;
mod episode;
mod probe;
mod refk;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use episode::{Episode, Mode, Spans};
use probe::quantile;
use refk::RefKernel;
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected `--key value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let name = get("workload")?.clone();
    let workload = Workload::parse(&name).ok_or(format!(
        "unknown workload {name:?} (metro_fanout, mobile_lossy, multigroup_r8)"
    ))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match kv.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The metrics of a run, in print order: (name, value, unit).
struct Metrics {
    rows: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.rows.push((name, value, unit));
    }

    fn all_finite(&self) -> bool {
        self.rows.iter().all(|r| r.1.is_finite())
    }

    fn print_table(&self) {
        for (name, value, unit) in &self.rows {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:e}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ringbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut reference = RefKernel::new();
    let mut spans = Spans::new(args.trace);
    let mut failures: Vec<String> = Vec::new();
    let mut metrics = Metrics { rows: Vec::new() };

    let (attempted, failed) = if args.trace {
        traced_run(
            &args,
            &mut reference,
            &mut spans,
            &mut metrics,
            &mut failures,
        )
    } else {
        timed_run(
            &args,
            &mut reference,
            &mut spans,
            &mut metrics,
            &mut failures,
        )
    };
    if !metrics.all_finite() {
        failures.push("a metric is not a finite number".into());
    }

    let ref_ns = reference.measured_ns_per_event();
    println!(
        "machine: nproc={} cpu={:?} rustc={:?} ref_ns_per_event={ref_ns:.3} (nominal {}) \
         seed={} recheck_seed={} wall_s={:.2}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        env!("RINGBENCH_RUSTC"),
        refk::NOMINAL_NS_PER_EVENT,
        args.seed,
        recheck_seed(args.seed),
        started.elapsed().as_secs_f64(),
    );
    println!(
        "workload {} ({}):",
        args.name,
        if args.trace { "traced" } else { "timed" }
    );
    metrics.print_table();
    for f in &failures {
        eprintln!("ringbench: FAILED: {f}");
    }
    if args.trace {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let file = format!("{path}/spans_{}_{}.json", args.name, args.seed);
        if let Err(e) =
            std::fs::create_dir_all(path).and_then(|_| std::fs::write(&file, spans.json()))
        {
            eprintln!("ringbench: FAILED: writing {file}: {e}");
            return ExitCode::FAILURE;
        }
        println!("spans: {file}");
    }
    if !failures.is_empty() {
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    ExitCode::SUCCESS
}

/// The seed a later claim made on `seed` must also hold on.
fn recheck_seed(seed: u64) -> u64 {
    seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) % 1_000_003
}

/// Checks every episode of a run agrees and is correct.
fn check(ep: &Episode, reference: &Episode, failures: &mut Vec<String>, with_allocs: bool) {
    failures.extend(ep.failures.iter().cloned());
    let (a, b) = (ep.fingerprint, reference.fingerprint);
    let same = if with_allocs {
        a == b
    } else {
        (a.delivered, a.events, a.packets_sent) == (b.delivered, b.events, b.packets_sent)
    };
    if !same {
        failures.push(format!(
            "{} episode fingerprint {a:?} differs from {} episode {b:?}",
            ep.mode.name(),
            reference.mode.name()
        ));
    }
}

/// Whole untraced episodes for the run's length, at least three, each
/// checked against the first. Every episode but the last drops its
/// sample buffers.
fn timed_episodes(
    args: &Args,
    reference: &mut RefKernel,
    spans: &mut Spans,
    failures: &mut Vec<String>,
) -> Vec<Episode> {
    let t0 = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    while episodes.len() < 3 || t0.elapsed().as_secs_f64() < args.seconds {
        let ep = episode::run(
            args.workload,
            args.seed,
            Mode::Timed,
            reference,
            spans,
            None,
        );
        check(&ep, episodes.first().unwrap_or(&ep), failures, true);
        if let Some(prev) = episodes.last_mut() {
            prev.probe.release();
        }
        episodes.push(ep);
    }
    println!(
        "episodes: {} fingerprint {:?}",
        episodes.len(),
        episodes[0].fingerprint
    );
    episodes
}

/// The median over episodes of one per-episode value.
fn over(episodes: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    median(episodes.iter().map(f).collect())
}

fn timed_run(
    args: &Args,
    reference: &mut RefKernel,
    spans: &mut Spans,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) -> (u64, u64) {
    let mut episodes = timed_episodes(args, reference, spans, failures);
    let setup_raw = over(&episodes, Episode::setup_raw_s);
    let speed_raw = over(&episodes, Episode::speed_raw);
    let quantum_ms = over(&episodes, Episode::mean_quantum_s) * 1e3;
    m.add("setup_s", over(&episodes, Episode::setup_norm_s), "s");
    m.add(
        "sim_s_per_wall_s",
        over(&episodes, Episode::speed_norm),
        "1/1",
    );
    m.add(
        "peak_heap_mib",
        over(&episodes, |e| e.peak_heap as f64) / 1048576.0,
        "MiB",
    );
    let attempted_total: u64 = episodes.iter().map(|e| e.messages.0).sum();
    let failed_total: u64 = episodes.iter().map(|e| e.messages.1).sum();

    let ep = episodes.last_mut().expect("at least three episodes");
    let attempted = ep.probe.attempted();
    let delivered = ep.probe.delivered;
    if delivered == 0 || attempted == 0 {
        failures.push("no deliveries in the counted range".into());
    }
    let gap = ep.probe.service_gap_ns();
    if gap.is_none() {
        failures.push("an injected fault was never followed by a delivery".into());
    }
    let samples = ep.probe.e2e_ns.len();
    if samples < 100_000 {
        failures.push(format!(
            "only {samples} latency samples; p99.99 needs 100 000"
        ));
    }
    m.add(
        "delivery_latency_p50_ms",
        ms(quantile(&mut ep.probe.e2e_ns, 0.5)),
        "ms",
    );
    m.add(
        "delivery_latency_p9999_ms",
        ms(quantile(&mut ep.probe.e2e_ns, 0.9999)),
        "ms",
    );
    m.add("delivered_share", ratio(delivered, attempted), "1/1");
    m.add(
        "wire_packets_per_delivery",
        ratio(ep.window_stats().packets_sent, ep.probe.window_deliveries),
        "count",
    );
    m.add("service_gap_ms", ms(gap.unwrap_or(0)), "ms");
    println!(
        "diagnostics: {{\"raw.setup_s\": {setup_raw:e}, \"raw.sim_s_per_wall_s\": {speed_raw:e}, \
         \"ref.quantum_ms\": {quantum_ms:e}, \"latency_samples\": {samples}, \
         \"attempted_deliveries\": {attempted}}}"
    );
    (attempted_total, failed_total)
}

fn traced_run(
    args: &Args,
    reference: &mut RefKernel,
    spans: &mut Spans,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) -> (u64, u64) {
    let (w, seed) = (args.workload, args.seed);
    let mut episodes = timed_episodes(args, reference, spans, failures);
    let scaled = |f: fn(&Episode) -> f64| over(&episodes, |e| f(e) * e.setup_scale());
    let trace_gen_s = scaled(|e| e.plan_s);
    let build_s = scaled(|e| e.build_s);
    let warmup_s = scaled(|e| e.warmup_s);
    let window_norm = over(&episodes, Episode::window_norm_s);
    let ns_per_event = over(&episodes, |e| {
        e.window_norm_s() * 1e9 / e.window_stats().events as f64
    });
    let setup_raw = over(&episodes, Episode::setup_raw_s);
    let speed_raw = over(&episodes, Episode::speed_raw);
    let quantum_ms = over(&episodes, Episode::mean_quantum_s) * 1e3;
    let base = episodes.last_mut().expect("at least three episodes");
    let records = base.probe.records as usize;
    let mut traced = episode::run(w, seed, Mode::Traced, reference, spans, Some(records));
    check(&traced, base, failures, true);
    let telem = episode::run(w, seed, Mode::Telemetry, reference, spans, None);
    check(&telem, base, failures, false);

    let tel = telem.report.telemetry.as_ref();
    let counter = |name: &str| tel.map_or(0, |t| t.total_counter(name));
    let tr = traced
        .trace
        .take()
        .expect("traced episode carries its trace");
    if let Some(f) = &tr.audit.first_violation {
        failures.push(format!("auditor: {f}"));
    }
    if tr.replayed != base.report.metrics {
        failures.push(
            "journal replay through MetricsAccumulator disagrees with the online metrics".into(),
        );
    }

    let rm = &base.report.metrics;
    let ws = base.window_stats();
    let wd = base.probe.window_deliveries;
    let norm = traced.setup_scale();
    use ringnet_core::telemetry::metric as tm;

    m.add("mobility.trace_gen_s", trace_gen_s, "s");
    m.add("engine.build_s", build_s, "s");
    m.add("engine.warmup_s", warmup_s, "s");
    m.add("simnet.events_per_delivery", ratio(ws.events, wd), "count");
    m.add("simnet.ns_per_event", ns_per_event, "ns");
    m.add(
        "simnet.timers_per_delivery",
        ratio(ws.timers_fired, wd),
        "count",
    );
    m.add(
        "simnet.packets_lost_share",
        ratio(ws.packets_lost, ws.packets_sent),
        "1/1",
    );
    m.add(
        "ordering.wait_ms_p50",
        ms(quantile(&mut base.probe.wait_ns, 0.5)),
        "ms",
    );
    m.add(
        "ordering.wait_ms_p99",
        ms(quantile(&mut base.probe.wait_ns, 0.99)),
        "ms",
    );
    m.add("wq.peak", rm.wq_peak as f64, "count");
    m.add(
        "token.passes_per_ordered",
        ratio(base.probe.token_passes, base.probe.window_ordered),
        "count",
    );
    m.add(
        "forwarding.control_per_data",
        ratio(rm.wired_core_control_sent, rm.wired_core_data_sent),
        "count",
    );
    m.add(
        "ordering.token_regens",
        base.probe.token_regens as f64,
        "count",
    );
    m.add(
        "fence.skew_ms_p50",
        ms(quantile(&mut base.probe.skew_ns, 0.5)),
        "ms",
    );
    m.add(
        "forwarding.tree_ms_p50",
        ms(quantile(&mut base.probe.tree_ns, 0.5)),
        "ms",
    );
    m.add(
        "forwarding.tree_ms_p99",
        ms(quantile(&mut base.probe.tree_ns, 0.99)),
        "ms",
    );
    m.add(
        "forwarding.wired_copies_per_msg",
        rm.wired_copies_per_msg(),
        "count",
    );
    m.add("mq.peak", rm.mq_peak as f64, "count");
    m.add("delivering.ne_skips", base.probe.ne_skips as f64, "count");
    m.add("mh.skips", base.probe.mh_skips as f64, "count");
    m.add(
        "mh.nacks_per_delivery",
        ratio(counter(tm::NACKS_SENT), rm.delivered),
        "count",
    );
    m.add(
        "retransmit.served_per_delivery",
        ratio(counter(tm::RETRANSMISSIONS_SERVED), rm.delivered),
        "count",
    );
    m.add(
        "mh.duplicates_per_delivery",
        ratio(rm.duplicates, rm.delivered),
        "count",
    );
    m.add("membership.handoffs", base.probe.handoffs as f64, "count");
    m.add("membership.tree_churn", rm.tree_churn as f64, "count");
    m.add(
        "ring_lifecycle.ring_repairs",
        base.probe.ring_repairs as f64,
        "count",
    );
    m.add(
        "ring_epoch.epoch_bumps",
        (counter(tm::EPOCH_BUMPS_REGEN)
            + counter(tm::EPOCH_BUMPS_REJOIN_SEED)
            + counter(tm::EPOCH_BUMPS_MERGE_SEED)) as f64,
        "count",
    );
    m.add(
        "metrics.ns_per_record",
        tr.metrics_replay_s * norm * 1e9 / tr.records as f64,
        "ns",
    );
    m.add(
        "metrics.records_per_delivery",
        ratio(base.probe.records, rm.delivered),
        "count",
    );
    m.add(
        "alloc.allocs_per_delivery",
        ratio(base.window_allocs.calls, wd),
        "count",
    );
    m.add(
        "alloc.bytes_per_delivery",
        ratio(base.window_allocs.bytes, wd),
        "B",
    );
    let total: f64 = tr.tier_ns.iter().sum();
    for (name, ns) in episode::TIER_METRICS.iter().zip(tr.tier_ns) {
        m.add(name, ns / total, "1/1");
    }
    m.add("audit.violations", tr.audit.violations as f64, "count");
    m.add(
        "audit.ns_per_record",
        tr.audit_replay_s * norm * 1e9 / tr.records as f64,
        "ns",
    );
    m.add("raw.setup_s", setup_raw, "s");
    m.add("raw.sim_s_per_wall_s", speed_raw, "1/1");
    m.add("ref.quantum_ms", quantum_ms, "ms");
    m.add(
        "trace.overhead_share",
        traced.window_norm_s() / window_norm - 1.0,
        "1/1",
    );
    base.messages
}
