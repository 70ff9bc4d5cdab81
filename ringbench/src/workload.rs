//! The three workloads. Each is generated from the seed alone; the
//! simulation sees only the resulting `Scenario`.
//!
//! Each workload lets one of the paper's mechanisms dominate while the
//! others idle:
//! * `metro_fanout` — down-tree fan-out to 4 096 static walkers;
//! * `mobile_lossy` — local wireless recovery across handoffs;
//! * `multigroup_r8` — token-ring GSN ordering on eight rings with
//!   cross-group fences.

use harness::scenario::mobile_scenario;
use mobility::{CellGrid, RandomWaypoint};
use ringnet_core::driver::{CoreShape, Scenario, ScenarioBuilder, ScenarioEvent};
use ringnet_core::hierarchy::LinkPlan;
use ringnet_core::GroupId;
use simnet::{LinkProfile, LossModel, SimDuration, SimRng, SimTime};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MetroFanout,
    MobileLossy,
    MultigroupR8,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "metro_fanout" => Some(Workload::MetroFanout),
            "mobile_lossy" => Some(Workload::MobileLossy),
            "multigroup_r8" => Some(Workload::MultigroupR8),
            _ => None,
        }
    }
}

/// One generated episode: the scenario plus the benchmark's windows.
pub struct Plan {
    pub scenario: Scenario,
    /// End of the warm-up (joins, grafts, first token rotations) and start
    /// of the measured window, which ends at `scenario.duration`.
    pub window_start: SimTime,
    /// Messages sent in `[window_start, count_until]` are the attempted
    /// ones; the rest of the window is grace for them to arrive.
    pub count_until: SimTime,
    /// Ends of the measured slices; the last is `scenario.duration`.
    pub slice_ends: Vec<SimTime>,
    /// Injected faults (token drops, core kills), sorted.
    pub faults: Vec<SimTime>,
    /// Messages per second offered by each source.
    pub rate_per_source: f64,
}

const WARMUP: SimDuration = SimDuration::from_secs(1);
const GRACE: SimDuration = SimDuration::from_secs(1);

/// The `LinkPlan` default wireless hop (2 ± 1 ms) with the given loss.
fn wireless(loss: LossModel) -> LinkProfile {
    LinkPlan::default().wireless.with_loss(loss)
}

/// A time drawn uniformly from `[at, at + spread)`.
fn jitter(rng: &mut SimRng, at: SimTime, spread: SimDuration) -> SimTime {
    at + SimDuration::from_nanos(rng.range_u64(0, spread.as_nanos()))
}

/// `t` rounded down to a whole 100 ms. Token drops land there, in phase
/// with the 50 ms heartbeat and the token rotation, so the stall they cause
/// measures recovery, not where in those cycles the fault happened to fall.
fn whole(t: SimTime) -> SimTime {
    SimTime::from_millis(t.as_millis() / 100 * 100)
}

pub fn plan(w: Workload, seed: u64) -> Plan {
    let mut rng = SimRng::derive(seed, 0x7269_6e67_6265_6e63);
    let (window, slice, interval) = match w {
        Workload::MetroFanout => (3_000, 60, 10),
        Workload::MobileLossy => (11_000, 500, 10),
        Workload::MultigroupR8 => (4_000, 500, 2),
    };
    let window = SimDuration::from_millis(window);
    let slice = SimDuration::from_millis(slice);
    let interval = SimDuration::from_millis(interval);
    let window_start = SimTime::ZERO + WARMUP;
    let end = window_start + window;
    let at = |share: f64| window_start + SimDuration::from_secs_f64(window.as_secs_f64() * share);
    let mut faults = Vec::new();

    let builder = match w {
        Workload::MetroFanout => {
            let drop = whole(at(0.4));
            faults.push(drop);
            ScenarioBuilder::new()
                .grid(32, 32)
                .walkers_per_attachment(4)
                .shape(CoreShape::Hierarchy {
                    brs: 4,
                    rings: 16,
                    ags_per_ring: 8,
                })
                .sources(2)
                .wireless(wireless(LossModel::Perfect))
                .event(ScenarioEvent::DropToken { at: drop })
        }
        Workload::MobileLossy => {
            let grid = CellGrid::new(8, 8, 100.0);
            let mut walkers: Vec<RandomWaypoint> = (0..256)
                .map(|_| RandomWaypoint::new(800.0, 800.0, (10.0, 25.0), 0.5, &mut rng))
                .collect();
            let trace = mobility::generate(
                &mut walkers,
                &grid,
                end.saturating_since(SimTime::ZERO),
                SimDuration::from_millis(100),
                &mut rng,
            );
            let drop = whole(at(0.25));
            let kill = jitter(&mut rng, at(0.5), SimDuration::from_millis(200));
            // Core indices 0..4 are the BRs; 4..20 the AGs of the auto shape.
            let ag = 4 + rng.index(16);
            faults.extend([drop, kill]);
            mobile_scenario(&grid, &trace)
                .sources(4)
                .wireless(wireless(LossModel::lossy_wireless()))
                .events([
                    ScenarioEvent::DropToken { at: drop },
                    ScenarioEvent::KillCore {
                        at: kill,
                        index: ag,
                    },
                    ScenarioEvent::RingRejoin {
                        at: kill + SimDuration::from_secs(1),
                        index: ag,
                    },
                ])
        }
        Workload::MultigroupR8 => {
            let drop = whole(at(0.4));
            faults.push(drop);
            let g = |i: u32| GroupId(i % 8 + 1);
            let cfg = ringnet_core::ProtocolConfig {
                mq_capacity: 128,
                ..Default::default()
            };
            ScenarioBuilder::new()
                .attachments(8)
                .walkers_per_attachment(1)
                .sources(8)
                .groups((1..=8).map(GroupId).collect())
                // Even sources span two adjacent groups (fenced), odd ones one.
                .source_groups(
                    (0..8u32)
                        .map(|i| {
                            if i % 2 == 0 {
                                vec![g(i), g(i + 1)]
                            } else {
                                vec![g(i)]
                            }
                        })
                        .collect(),
                )
                .config(cfg)
                .wireless(wireless(LossModel::Perfect))
                .event(ScenarioEvent::DropToken { at: drop })
        }
    };
    let scenario = builder
        .cbr(interval)
        // With fixed wired delays the CBR phase against the token rotation
        // sets every message's ordering wait: a phase drawn over a whole
        // interval made the seed, not the program, the main source of
        // spread in latency and heap. Sources start within 50 µs of t = 0;
        // the seed acts through the simulator's random stream (wireless
        // jitter and loss), the mobility trace and the killed AG.
        .window(SimTime::from_nanos(rng.range_u64(0, 50_000)), None)
        .duration(end)
        .retain_journal(false)
        .build();
    let mut slice_ends = Vec::new();
    let mut t = window_start;
    while t < end {
        t = (t + slice).min(end);
        slice_ends.push(t);
    }
    faults.sort();
    Plan {
        scenario,
        window_start,
        count_until: end - GRACE,
        slice_ends,
        faults,
        rate_per_source: 1.0 / interval.as_secs_f64(),
    }
}
