//! The journal observer: folds the protocol records of one episode, as
//! the simulator emits them, into the end-to-end and journal-derived
//! per-layer numbers.
//!
//! All storage is sized up front from the scenario, so observing
//! allocates nothing during the measured window and the allocator
//! counters see only the simulation.

use ringnet_core::driver::{ringnet_spec, Scenario};
use ringnet_core::{GroupId, ProtoEvent};
use simnet::SimTime;

use crate::workload::Plan;

const UNSET: SimTime = SimTime::MAX;

#[derive(Clone, Copy)]
struct MsgTimes {
    sent: SimTime,
    /// `Ordered` time in each of the message's (at most two) groups.
    ordered: [SimTime; 2],
}

pub struct Probe {
    window_start: SimTime,
    count_until: SimTime,
    end: SimTime,
    primary: GroupId,
    /// `NodeId.0` → source index (`usize::MAX` for non-corresponding nodes).
    source_of: Vec<usize>,
    /// Per source: its target groups, sorted.
    groups: Vec<Vec<GroupId>>,
    /// Per source: walker deliveries one of its messages owes.
    owed: Vec<u64>,
    /// Per source, indexed by local sequence number.
    msgs: Vec<Vec<MsgTimes>>,
    faults: Vec<SimTime>,
    recovered: Vec<Option<SimTime>>,
    pub e2e_ns: Vec<u64>,
    pub tree_ns: Vec<u64>,
    pub wait_ns: Vec<u64>,
    pub skew_ns: Vec<u64>,
    /// Deliveries of messages sent in the counted range.
    pub delivered: u64,
    /// Every `MhDeliver` inside the measured window.
    pub window_deliveries: u64,
    pub records: u64,
    pub mh_skips: u64,
    pub ne_skips: u64,
    pub token_passes: u64,
    pub window_ordered: u64,
    pub token_regens: u64,
    pub ring_repairs: u64,
    pub handoffs: u64,
    pub tree_churn: u64,
}

impl Probe {
    pub fn new(plan: &Plan) -> Probe {
        let sc: &Scenario = &plan.scenario;
        let spec = ringnet_spec(sc);
        let max_node = spec
            .top_ring
            .iter()
            .map(|n| n.0 as usize)
            .max()
            .unwrap_or(0);
        let mut source_of = vec![usize::MAX; max_node + 1];
        let mut groups = Vec::new();
        let mut owed = Vec::new();
        for (i, src) in spec.sources.iter().enumerate() {
            source_of[src.corresponding.0 as usize] = i;
            let gs = sc.source_groups_of(i);
            owed.push(
                gs.iter()
                    .map(|g| {
                        (0..sc.walkers.len())
                            .filter(|&w| sc.subscriptions_of(w).contains(g))
                            .count() as u64
                    })
                    .sum(),
            );
            groups.push(gs);
        }
        let end = sc.duration;
        let per_source = (end.as_secs_f64() * plan.rate_per_source) as usize + 16;
        let owed_max: u64 = owed.iter().sum::<u64>() * per_source as u64;
        let window_share =
            (end.saturating_since(plan.window_start).as_secs_f64() / end.as_secs_f64()).min(1.0);
        let samples = (owed_max as f64 * window_share) as usize + 1024;
        let messages = per_source * spec.sources.len();
        Probe {
            window_start: plan.window_start,
            count_until: plan.count_until,
            end,
            primary: sc.group,
            source_of,
            owed,
            msgs: groups
                .iter()
                .map(|_| Vec::with_capacity(per_source))
                .collect(),
            groups,
            recovered: vec![None; plan.faults.len()],
            faults: plan.faults.clone(),
            e2e_ns: Vec::with_capacity(samples),
            tree_ns: Vec::with_capacity(samples),
            wait_ns: Vec::with_capacity(messages * 2),
            skew_ns: Vec::with_capacity(messages),
            delivered: 0,
            window_deliveries: 0,
            records: 0,
            mh_skips: 0,
            ne_skips: 0,
            token_passes: 0,
            window_ordered: 0,
            token_regens: 0,
            ring_repairs: 0,
            handoffs: 0,
            tree_churn: 0,
        }
    }

    fn counted(&self, sent: SimTime) -> bool {
        sent >= self.window_start && sent <= self.count_until
    }

    /// The message's timestamps and the slot of `group` among its
    /// target groups.
    fn msg(&mut self, source: u32, ls: u64, group: GroupId) -> Option<(usize, &mut MsgTimes)> {
        let i = *self.source_of.get(source as usize)?;
        let slot = self.groups[i].iter().position(|&g| g == group)?.min(1);
        let m = self.msgs.get_mut(i)?.get_mut(ls as usize)?;
        (m.sent != UNSET).then_some((slot, m))
    }

    #[inline]
    pub fn observe(&mut self, t: SimTime, e: &ProtoEvent) {
        self.records += 1;
        let in_window = t > self.window_start && t <= self.end;
        match *e {
            ProtoEvent::SourceSend { source, local_seq } => {
                if let Some(&i) = self.source_of.get(source.0 as usize) {
                    if let Some(v) = self.msgs.get_mut(i) {
                        let ls = local_seq.0 as usize;
                        if v.len() <= ls {
                            let unset = MsgTimes {
                                sent: UNSET,
                                ordered: [UNSET; 2],
                            };
                            v.resize(ls + 1, unset);
                        }
                        v[ls].sent = t;
                    }
                }
            }
            ProtoEvent::Ordered {
                group,
                source,
                local_seq,
                ..
            } => {
                if in_window {
                    self.window_ordered += 1;
                }
                let Some((slot, m)) = self.msg(source.0, local_seq.0, group) else {
                    return;
                };
                m.ordered[slot] = t;
                let (sent, other) = (m.sent, m.ordered[1 - slot]);
                if self.counted(sent) {
                    self.wait_ns.push(t.saturating_since(sent).as_nanos());
                    if other != UNSET {
                        self.skew_ns.push(t.as_nanos().abs_diff(other.as_nanos()));
                    }
                }
            }
            ProtoEvent::MhDeliver {
                group,
                source,
                local_seq,
                ..
            } => {
                if in_window {
                    self.window_deliveries += 1;
                }
                let Some((slot, m)) = self.msg(source.0, local_seq.0, group) else {
                    return;
                };
                let (sent, ordered) = (m.sent, m.ordered[slot]);
                if self.counted(sent) {
                    self.delivered += 1;
                    self.e2e_ns.push(t.saturating_since(sent).as_nanos());
                    if ordered != UNSET {
                        self.tree_ns.push(t.saturating_since(ordered).as_nanos());
                    }
                }
                if group == self.primary {
                    for (f, r) in self.faults.iter().zip(self.recovered.iter_mut()) {
                        if r.is_none() && sent > *f {
                            *r = Some(t);
                        }
                    }
                }
            }
            ProtoEvent::MhSkip { .. } => self.mh_skips += 1,
            ProtoEvent::NeSkip { .. } => self.ne_skips += 1,
            ProtoEvent::TokenPass { .. } if in_window => self.token_passes += 1,
            ProtoEvent::TokenRegenerated { .. } => self.token_regens += 1,
            ProtoEvent::RingRepaired { .. } => self.ring_repairs += 1,
            ProtoEvent::HandoffRegistered { .. } => self.handoffs += 1,
            ProtoEvent::Grafted { .. } | ProtoEvent::Pruned { .. } => self.tree_churn += 1,
            _ => {}
        }
    }

    /// Walker deliveries owed by the messages sent in the counted range.
    pub fn attempted(&self) -> u64 {
        self.msgs
            .iter()
            .zip(&self.owed)
            .map(|(v, &owed)| v.iter().filter(|m| self.counted(m.sent)).count() as u64 * owed)
            .sum()
    }

    /// Messages sent in the counted range, and how many of them were
    /// never assigned a GSN in every group they address.
    pub fn messages(&self) -> (u64, u64) {
        let mut sent = 0;
        let mut unordered = 0;
        for (v, gs) in self.msgs.iter().zip(&self.groups) {
            for m in v.iter().filter(|m| self.counted(m.sent)) {
                sent += 1;
                if m.ordered[..gs.len().min(2)].contains(&UNSET) {
                    unordered += 1;
                }
            }
        }
        (sent, unordered)
    }

    /// Longest time from an injected fault to the first delivery, in the
    /// primary group, of a message sent after it. `None` if a fault was
    /// never followed by such a delivery.
    pub fn service_gap_ns(&self) -> Option<u64> {
        let mut worst = 0;
        for (f, r) in self.faults.iter().zip(&self.recovered) {
            worst = worst.max(r.as_ref()?.saturating_since(*f).as_nanos());
        }
        Some(worst)
    }

    /// Drop the per-message and per-sample buffers once their episode's
    /// numbers are taken.
    pub fn release(&mut self) {
        self.msgs = Vec::new();
        self.e2e_ns = Vec::new();
        self.tree_ns = Vec::new();
        self.wait_ns = Vec::new();
        self.skew_ns = Vec::new();
    }

    /// Total capacity of the preallocated buffers; unchanged over an
    /// episode when observing allocated nothing.
    pub fn capacity(&self) -> usize {
        self.msgs.iter().map(Vec::capacity).sum::<usize>()
            + self.e2e_ns.capacity()
            + self.tree_ns.capacity()
            + self.wait_ns.capacity()
            + self.skew_ns.capacity()
    }
}

/// The value at quantile `q` of `v` (nearest rank), or 0 when empty.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    *v.select_nth_unstable(rank).1
}
