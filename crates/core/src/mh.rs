//! The mobile-host state machine (the paper's MH tier, §4.1).
//!
//! An MH keeps the same `MQ` structure as the NEs, delivers contiguously to
//! its application (skipping really-lost messages), acknowledges
//! cumulatively to its AP, NACKs gaps, and — on a radio-layer handoff
//! stimulus — re-registers at the new AP announcing its own resume point so
//! delivery continues seamlessly ("even in handoffs").
//!
//! Upkeep is demand-driven ([`crate::upkeep`]): a walker whose stream flows
//! gap-free acks from its data path and schedules no hop tick; the hop
//! tick ([`MhState::tick_hop`]) runs only while
//! [`MhState::needs_hop_tick`] holds, i.e. while the `MQ` has a gap or the
//! stream has stalled. The ACK stream doubles as the walker's liveness
//! signal at its AP, so [`MhState::tick_heartbeat`] sends a heartbeat only
//! after a whole period in which nothing else went to the AP.

use simnet::SimTime;

use crate::actions::{Action, Outbox};
use crate::config::ProtocolConfig;
use crate::events::ProtoEvent;
use crate::ids::{Endpoint, GlobalSeq, GroupId, Guid, NodeId};
use crate::mq::{DeliverItem, InsertOutcome, MessageQueue, MsgData};
use crate::msg::Msg;
use crate::upkeep::HopUpkeep;

/// Per-MH statistics (surfaced in the `MhFinal` journal record).
#[derive(Debug, Clone, Copy, Default)]
pub struct MhCounters {
    /// Messages delivered to the application.
    pub delivered: u32,
    /// Messages skipped as really-lost.
    pub skipped: u32,
    /// Duplicate receptions discarded.
    pub duplicates: u32,
    /// Handoffs performed.
    pub handoffs: u32,
}

/// The mobile-host state machine.
pub struct MhState {
    /// Group joined.
    pub group: GroupId,
    /// Globally unique identity (`GUID`).
    pub guid: Guid,
    /// Currently attached AP (the paper's `AP` field), if any.
    pub ap: Option<NodeId>,
    /// Receive queue (`MQ`).
    pub mq: MessageQueue,
    /// Protocol parameters.
    pub cfg: ProtocolConfig,
    /// Statistics.
    pub counters: MhCounters,
    /// Ack pacing and stall detection (demand-driven hop upkeep).
    pub upkeep: HopUpkeep,
    /// When anything was last sent to the AP: a heartbeat goes out only
    /// after a whole heartbeat period without one.
    pub last_uplink_at: Option<SimTime>,
    /// Sequence of the last application delivery, for order verification.
    pub last_delivered: GlobalSeq,
    /// Crash-stop flag.
    pub alive: bool,
}

impl MhState {
    /// Create an MH. It attaches and joins via [`MhState::join`].
    pub fn new(group: GroupId, guid: Guid, cfg: ProtocolConfig) -> Self {
        let mq = MessageQueue::new(cfg.mq_capacity);
        MhState {
            group,
            guid,
            ap: None,
            mq,
            cfg,
            counters: MhCounters::default(),
            upkeep: HopUpkeep::default(),
            last_uplink_at: None,
            last_delivered: GlobalSeq::ZERO,
            alive: true,
        }
    }

    /// Send `msg` to `ap`, noting the uplink activity.
    fn send_ap(&mut self, now: SimTime, ap: NodeId, msg: Msg, out: &mut Outbox) {
        self.last_uplink_at = Some(now);
        out.push(Action::to_ne(ap, msg));
    }

    /// Attach to `ap` and join the group there.
    pub fn join(&mut self, now: SimTime, ap: NodeId, out: &mut Outbox) {
        self.ap = Some(ap);
        let msg = Msg::Join {
            group: self.group,
            guid: self.guid,
        };
        self.send_ap(now, ap, msg, out);
    }

    /// Leave the group (and detach).
    pub fn leave(&mut self, now: SimTime, out: &mut Outbox) {
        if let Some(ap) = self.ap.take() {
            let msg = Msg::Leave {
                group: self.group,
                guid: self.guid,
            };
            self.send_ap(now, ap, msg, out);
        }
    }

    /// Whether this MH needs its hop tick at `now`: attached, and its `MQ`
    /// has a gap or its stream has stalled (see [`crate::upkeep`]). The
    /// engine arms the tick on the hop-tick grid only while this holds.
    pub fn needs_hop_tick(&self, now: SimTime) -> bool {
        self.alive
            && self.ap.is_some()
            && (self.mq.has_gap() || self.upkeep.stalled(now, self.cfg.ack_period()))
    }

    /// Dispatch one received message.
    pub fn on_msg(&mut self, now: SimTime, from: Endpoint, msg: Msg, out: &mut Outbox) {
        if !self.alive {
            return;
        }
        match msg {
            Msg::Data { gsn, data, .. } => self.on_data(now, gsn, data, out),
            Msg::ReRegister { .. } => {
                // Our AP no longer knows us (crash-restart amnesia or a lost
                // registration). Register again with our own resume point;
                // the AP side is idempotent. Only honour the *current* AP —
                // a stale solicitation from a previous AP must not re-attach
                // us there.
                if let (Endpoint::Ne(n), Some(ap)) = (from, self.ap) {
                    if n == ap {
                        let msg = Msg::HandoffRegister {
                            group: self.group,
                            guid: self.guid,
                            resume_from: self.mq.front(),
                        };
                        self.send_ap(now, ap, msg, out);
                    }
                }
            }
            Msg::JoinAck { start_from, .. } => {
                // Skip history from before our join point. Data that beat
                // the JoinAck over the jittery wireless hop is deliverable
                // now.
                self.mq.fast_forward(start_from);
                if start_from > self.last_delivered {
                    self.last_delivered = start_from;
                }
                self.deliver_ready(out);
            }
            Msg::HandoffTo { new_ap, .. } => self.on_handoff(now, new_ap, out),
            Msg::JoinCmd { ap, .. } => self.join(now, ap, out),
            Msg::Kill { .. } => self.alive = false,
            Msg::FlushStats { .. } => self.flush_final_stats(out),
            _ => {}
        }
    }

    fn on_data(&mut self, now: SimTime, gsn: GlobalSeq, data: MsgData, out: &mut Outbox) {
        self.upkeep.on_data(now);
        match self.mq.insert(gsn, data) {
            InsertOutcome::Stored => {
                self.deliver_ready(out);
                // Applications consume immediately; nothing downstream
                // pins the MQ.
                let front = self.mq.front();
                self.mq.gc_to(front);
                if self
                    .upkeep
                    .progress_ack_due(now, front, self.cfg.ack_period())
                {
                    self.send_ack(now, out);
                }
            }
            InsertOutcome::Duplicate | InsertOutcome::Stale => {
                self.counters.duplicates += 1;
            }
            InsertOutcome::Overflow => {}
        }
    }

    /// Cumulative ACK of the current front to the AP.
    fn send_ack(&mut self, now: SimTime, out: &mut Outbox) {
        let Some(ap) = self.ap else { return };
        let upto = self.mq.front();
        self.upkeep.note_ack(now, upto);
        let msg = Msg::DataAck {
            group: self.group,
            upto,
        };
        self.send_ap(now, ap, msg, out);
    }

    /// Advance the application-delivery front, one slot at a time (no
    /// per-poll `Vec` — this runs on every data arrival).
    fn deliver_ready(&mut self, out: &mut Outbox) {
        while let Some(item) = self.mq.next_deliverable() {
            match item {
                DeliverItem::Deliver(gsn, data) => {
                    debug_assert!(gsn > self.last_delivered, "total order violated");
                    self.last_delivered = gsn;
                    self.counters.delivered += 1;
                    if self.cfg.record_mh_deliveries {
                        out.push(Action::Record(ProtoEvent::MhDeliver {
                            group: self.group,
                            mh: self.guid,
                            gsn,
                            source: data.source,
                            local_seq: data.local_seq,
                        }));
                    }
                }
                DeliverItem::Skip(gsn) => {
                    self.last_delivered = gsn;
                    self.counters.skipped += 1;
                    if self.cfg.record_mh_deliveries {
                        out.push(Action::Record(ProtoEvent::MhSkip {
                            group: self.group,
                            mh: self.guid,
                            gsn,
                        }));
                    }
                }
            }
        }
    }

    /// Radio-layer stimulus: we are now under `new_ap`. Register there,
    /// announcing our own progress so delivery resumes where it stopped.
    fn on_handoff(&mut self, now: SimTime, new_ap: NodeId, out: &mut Outbox) {
        if self.ap == Some(new_ap) {
            return;
        }
        self.counters.handoffs += 1;
        self.ap = Some(new_ap);
        let msg = Msg::HandoffRegister {
            group: self.group,
            guid: self.guid,
            resume_from: self.mq.front(),
        };
        self.send_ap(now, new_ap, msg, out);
    }

    /// Hop tick, run on the hop-tick grid while [`MhState::needs_hop_tick`]
    /// holds: NACK gaps (slots past their budget become really lost and
    /// are skipped), then one cumulative ACK per ack period whether or not
    /// the front moved — the per-grid ack stream a stalled walker keeps its
    /// AP's liveness view with — then GC.
    pub fn tick_hop(&mut self, now: SimTime, out: &mut Outbox) {
        if !self.alive {
            return;
        }
        let (missing, newly_lost) = self.mq.collect_nacks(self.cfg.nack_budget);
        if let Some(ap) = self.ap {
            if !missing.is_empty() {
                let msg = Msg::DataNack {
                    group: self.group,
                    missing,
                };
                self.send_ap(now, ap, msg, out);
            }
        }
        if !newly_lost.is_empty() {
            self.deliver_ready(out);
        }
        if self.upkeep.ack_due(now, self.cfg.ack_period()) {
            self.send_ack(now, out);
        }
        let front = self.mq.front();
        self.mq.gc_to(front);
    }

    /// Heartbeat tick: report progress the data path has not acked yet,
    /// then probe the AP if nothing at all went to it for a whole period
    /// (the ACK stream is the liveness signal while data flows).
    pub fn tick_heartbeat(&mut self, now: SimTime, out: &mut Outbox) {
        if !self.alive {
            return;
        }
        let Some(ap) = self.ap else { return };
        if self
            .upkeep
            .progress_ack_due(now, self.mq.front(), self.cfg.ack_period())
        {
            self.send_ack(now, out);
        }
        let period = self.cfg.heartbeat_period;
        if self
            .last_uplink_at
            .is_none_or(|t| now.saturating_since(t) >= period)
        {
            self.send_ap(now, ap, Msg::Heartbeat { group: self.group }, out);
        }
    }

    /// Emit the final-statistics journal record.
    pub fn flush_final_stats(&self, out: &mut Outbox) {
        out.push(Action::Record(ProtoEvent::MhFinal {
            group: self.group,
            mh: self.guid,
            delivered: self.counters.delivered,
            skipped: self.counters.skipped,
            duplicates: self.counters.duplicates,
            handoffs: self.counters.handoffs,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LocalSeq, PayloadId};
    use crate::node::NeState;

    const G: GroupId = GroupId(1);
    const AP1: NodeId = NodeId(50);
    const AP2: NodeId = NodeId(51);

    fn data(g: u64) -> MsgData {
        MsgData {
            source: NodeId(0),
            local_seq: LocalSeq(g),
            ordering_node: NodeId(0),
            payload: PayloadId(g),
        }
    }

    fn mh() -> MhState {
        MhState::new(G, Guid(7), ProtocolConfig::default())
    }

    fn delivered_gsns(out: &Outbox) -> Vec<u64> {
        out.iter()
            .filter_map(|a| match a {
                Action::Record(ProtoEvent::MhDeliver { gsn, .. }) => Some(gsn.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn join_then_receive_in_order() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        assert!(matches!(
            out[0],
            Action::Send {
                to: Endpoint::Ne(AP1),
                msg: Msg::Join { .. }
            }
        ));
        out.clear();
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::JoinAck {
                group: G,
                start_from: GlobalSeq::ZERO,
            },
            &mut out,
        );
        for g in 1..=3u64 {
            m.on_msg(
                SimTime::ZERO,
                Endpoint::Ne(AP1),
                Msg::Data {
                    group: G,
                    gsn: GlobalSeq(g),
                    data: data(g),
                },
                &mut out,
            );
        }
        assert_eq!(delivered_gsns(&out), vec![1, 2, 3]);
        assert_eq!(m.counters.delivered, 3);
        assert_eq!(m.last_delivered, GlobalSeq(3));
    }

    #[test]
    fn join_mid_stream_skips_history() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::JoinAck {
                group: G,
                start_from: GlobalSeq(40),
            },
            &mut out,
        );
        out.clear();
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(41),
                data: data(41),
            },
            &mut out,
        );
        assert_eq!(
            delivered_gsns(&out),
            vec![41],
            "no wait for history before 41"
        );
    }

    #[test]
    fn data_racing_the_join_ack_is_delivered_with_it() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        // 41 overtakes the JoinAck on the wireless hop: it waits behind
        // history the MH will never get.
        m.on_msg(SimTime::ZERO, Endpoint::Ne(AP1), data_msg(41), &mut out);
        assert!(m.mq.has_gap());
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::JoinAck {
                group: G,
                start_from: GlobalSeq(40),
            },
            &mut out,
        );
        assert_eq!(delivered_gsns(&out), vec![41]);
        assert!(!m.needs_hop_tick(SimTime::ZERO));
    }

    #[test]
    fn gap_nacked_then_filled() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        out.clear();
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(2),
                data: data(2),
            },
            &mut out,
        );
        assert!(delivered_gsns(&out).is_empty());
        m.tick_hop(SimTime::from_millis(5), &mut out);
        let nacks: Vec<_> = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Msg::DataNack { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(nacks.len(), 1);
        // Retransmission arrives.
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        assert_eq!(delivered_gsns(&out), vec![1, 2]);
    }

    #[test]
    fn budget_exhaustion_skips() {
        let cfg = ProtocolConfig::default().with_nack_budget(1);
        let mut m = MhState::new(G, Guid(7), cfg);
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(2),
                data: data(2),
            },
            &mut out,
        );
        out.clear();
        m.tick_hop(SimTime::from_millis(5), &mut out);
        m.tick_hop(SimTime::from_millis(10), &mut out);
        assert_eq!(m.counters.skipped, 1);
        assert_eq!(delivered_gsns(&out), vec![2]);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::MhSkip {
                gsn: GlobalSeq(1),
                ..
            })
        )));
    }

    #[test]
    fn handoff_reregisters_with_resume_point() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        for g in 1..=5u64 {
            m.on_msg(
                SimTime::ZERO,
                Endpoint::Ne(AP1),
                Msg::Data {
                    group: G,
                    gsn: GlobalSeq(g),
                    data: data(g),
                },
                &mut out,
            );
        }
        out.clear();
        m.on_msg(
            SimTime::from_secs(1),
            Endpoint::Ne(AP2),
            Msg::HandoffTo {
                group: G,
                new_ap: AP2,
            },
            &mut out,
        );
        assert_eq!(m.ap, Some(AP2));
        assert_eq!(m.counters.handoffs, 1);
        assert!(matches!(
            out[0],
            Action::Send {
                to: Endpoint::Ne(AP2),
                msg: Msg::HandoffRegister {
                    resume_from: GlobalSeq(5),
                    ..
                }
            }
        ));
        // Handoff to the same AP is ignored.
        out.clear();
        m.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(AP2),
            Msg::HandoffTo {
                group: G,
                new_ap: AP2,
            },
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(m.counters.handoffs, 1);
    }

    #[test]
    fn reregister_solicitation_answered_by_current_ap_only() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        for g in 1..=3u64 {
            m.on_msg(
                SimTime::ZERO,
                Endpoint::Ne(AP1),
                Msg::Data {
                    group: G,
                    gsn: GlobalSeq(g),
                    data: data(g),
                },
                &mut out,
            );
        }
        out.clear();
        m.on_msg(
            SimTime::from_secs(1),
            Endpoint::Ne(AP1),
            Msg::ReRegister { group: G },
            &mut out,
        );
        assert!(matches!(
            out[0],
            Action::Send {
                to: Endpoint::Ne(AP1),
                msg: Msg::HandoffRegister {
                    resume_from: GlobalSeq(3),
                    ..
                }
            }
        ));
        assert_eq!(m.counters.handoffs, 0, "re-registration is not a handoff");
        // A stale AP's solicitation is ignored.
        out.clear();
        m.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(AP2),
            Msg::ReRegister { group: G },
            &mut out,
        );
        assert!(out.is_empty());
    }

    fn data_msg(g: u64) -> Msg {
        Msg::Data {
            group: G,
            gsn: GlobalSeq(g),
            data: data(g),
        }
    }

    fn ms(m: u64) -> SimTime {
        SimTime::from_millis(m)
    }

    /// `(upto)` of every DataAck in `out`.
    fn acks(out: &Outbox) -> Vec<u64> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Msg::DataAck { upto, .. },
                    ..
                } => Some(upto.0),
                _ => None,
            })
            .collect()
    }

    fn heartbeats(out: &Outbox) -> usize {
        out.iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Msg::Heartbeat { .. },
                        ..
                    }
                )
            })
            .count()
    }

    /// A joined MH fed `1..=n` in order, one message per `every_ms` from
    /// `t0_ms`; returns the outbox of the feed alone.
    fn fed(
        m: &mut MhState,
        t0_ms: u64,
        every_ms: u64,
        gsns: std::ops::RangeInclusive<u64>,
    ) -> Outbox {
        let mut out = Vec::new();
        for (i, g) in gsns.enumerate() {
            let t = ms(t0_ms + i as u64 * every_ms);
            m.on_msg(t, Endpoint::Ne(AP1), data_msg(g), &mut out);
        }
        out
    }

    #[test]
    fn acks_on_schedule_and_gc() {
        // Data-path acks: at most one per ack period (10 ms by default),
        // and only when the front moved.
        let mut m = mh();
        let mut out = Vec::new();
        m.join(ms(0), AP1, &mut out);
        // One message per millisecond for 30 ms.
        let mut sent = Vec::new();
        for g in 1..=30u64 {
            out.clear();
            m.on_msg(ms(g), Endpoint::Ne(AP1), data_msg(g), &mut out);
            sent.extend(acks(&out).into_iter().map(|upto| (g, upto)));
        }
        assert_eq!(
            sent,
            vec![(1, 1), (11, 11), (21, 21)],
            "first arrival, then one per period"
        );
        // A duplicate after the period is not progress: no ack.
        let mut out = Vec::new();
        m.on_msg(ms(45), Endpoint::Ne(AP1), data_msg(30), &mut out);
        assert!(acks(&out).is_empty(), "duplicate acked: {out:?}");
        assert_eq!(m.counters.duplicates, 1);
        // The heartbeat tick reports the unacked tail of the burst.
        m.tick_heartbeat(ms(50), &mut out);
        assert_eq!(acks(&out), vec![30]);
        // Delivered content GC'd.
        assert_eq!(m.mq.occupancy(), 0);
    }
    #[test]
    fn duplicates_counted_once_delivered() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        assert_eq!(m.counters.delivered, 1);
        assert_eq!(m.counters.duplicates, 1);
    }

    #[test]
    fn heartbeat_reply_and_probe() {
        // Nobody needs an MH's heartbeat answers: an incoming probe is
        // ignored.
        let mut m = mh();
        let mut out = Vec::new();
        m.join(ms(0), AP1, &mut out);
        out.clear();
        m.on_msg(
            ms(1),
            Endpoint::Ne(AP1),
            Msg::Heartbeat { group: G },
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        // The join went out at 0: the uplink was not quiet for a whole
        // period at 40 ms, and was at 50 ms.
        m.tick_heartbeat(ms(40), &mut out);
        assert_eq!(heartbeats(&out), 0);
        m.tick_heartbeat(ms(50), &mut out);
        assert!(matches!(
            out[0],
            Action::Send {
                to: Endpoint::Ne(AP1),
                msg: Msg::Heartbeat { .. }
            }
        ));
        // Flowing acks are the liveness signal: no heartbeat while they go.
        out.clear();
        let mut feed = fed(&mut m, 60, 5, 1..=20);
        for t in [100, 150] {
            m.tick_heartbeat(ms(t), &mut feed);
        }
        assert_eq!(heartbeats(&feed), 0, "acks suppress heartbeats: {feed:?}");
        assert!(acks(&feed).len() >= 4);
    }

    #[test]
    fn quiescent_mh_schedules_no_hop_tick() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(ms(0), AP1, &mut out);
        // Joined, no stream yet: nothing to chase, nothing stalled.
        for t in [0, 5, 50, 500] {
            assert!(!m.needs_hop_tick(ms(t)));
        }
        // A steady in-order stream, one message per 5 ms: the tick is never
        // needed, between arrivals or at the heartbeat instants.
        for g in 1..=40u64 {
            let t = 5 * g;
            m.on_msg(ms(t), Endpoint::Ne(AP1), data_msg(g), &mut out);
            assert!(!m.needs_hop_tick(ms(t)));
            assert!(!m.needs_hop_tick(ms(t + 4)));
            if t % 50 == 0 {
                m.tick_heartbeat(ms(t), &mut out);
                assert!(!m.needs_hop_tick(ms(t)));
            }
        }
        assert_eq!(m.counters.delivered, 40);
        // Detached: nothing to do at all.
        m.leave(ms(300), &mut out);
        assert!(!m.needs_hop_tick(ms(1_000)));
    }

    #[test]
    fn gap_is_nacked_on_the_grid_instant() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(ms(0), AP1, &mut out);
        out.clear();
        // 2 arrives before 1 at 7.3 ms: the gap needs the tick, which the
        // engine arms at the next point of the 5 ms grid — 10 ms, where a
        // periodic tick would have NACKed it too.
        let t = SimTime::from_micros(7_300);
        m.on_msg(t, Endpoint::Ne(AP1), data_msg(2), &mut out);
        assert!(m.needs_hop_tick(t));
        let at = crate::upkeep::next_grid_point(SimTime::ZERO, t, m.cfg.hop_tick);
        assert_eq!(at, ms(10));
        m.tick_hop(at, &mut out);
        let nacks: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Msg::DataNack { missing, .. },
                    ..
                } => Some(missing.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nacks, vec![vec![GlobalSeq(1)]]);
        // The retransmission fills the gap: the tick is no longer needed.
        m.on_msg(ms(12), Endpoint::Ne(AP1), data_msg(1), &mut out);
        assert!(!m.needs_hop_tick(ms(12)));
        assert_eq!(delivered_gsns(&out), vec![1, 2]);
    }

    #[test]
    fn stalled_mh_falls_back_to_per_grid_acks() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(ms(0), AP1, &mut out);
        let _ = fed(&mut m, 1, 1, 1..=5);
        // The stream stops at 5 ms; a whole ack period later it has
        // stalled and needs the tick again.
        assert!(!m.needs_hop_tick(ms(14)));
        assert!(m.needs_hop_tick(ms(15)));
        // On the grid it acks once per period, progress or not: the ack
        // stream keeps the AP's liveness view fresh through the stall.
        let mut out = Vec::new();
        let mut per_tick = Vec::new();
        for k in 3..=10u64 {
            let t = ms(5 * k);
            assert!(m.needs_hop_tick(t));
            let before = acks(&out).len();
            m.tick_hop(t, &mut out);
            per_tick.push(acks(&out).len() - before);
        }
        assert_eq!(per_tick, vec![1, 0, 1, 0, 1, 0, 1, 0]);
        assert!(acks(&out).iter().all(|&u| u == 5));
        // Data flowing again ends the fallback.
        m.on_msg(ms(51), Endpoint::Ne(AP1), data_msg(6), &mut out);
        assert!(!m.needs_hop_tick(ms(51)));
    }

    /// Drive an MH and its AP through a stall and an uplink loss burst
    /// on the demand-driven schedule (grid ticks while needed, heartbeat
    /// ticks every 50 ms); `lost(t)` drops MH → AP packets sent at `t`.
    fn run_stall(m: &mut MhState, ap: &mut NeState, until_ms: u64, lost: impl Fn(u64) -> bool) {
        let mut t = 0;
        while t <= until_ms {
            let mut out = Vec::new();
            let now = ms(t);
            if m.needs_hop_tick(now) {
                m.tick_hop(now, &mut out);
            }
            if t % 50 == 0 && t > 0 {
                m.tick_heartbeat(now, &mut out);
                let mut ap_out = Vec::new();
                ap.tick_heartbeat(now, &mut ap_out);
            }
            for a in out {
                if let Action::Send { msg, .. } = a {
                    if !lost(t) {
                        let mut ap_out = Vec::new();
                        ap.on_msg(now, Endpoint::Mh(m.guid), msg, &mut ap_out);
                    }
                }
            }
            t += 5;
        }
    }

    #[test]
    fn stalled_mh_on_lossy_uplink_is_not_evicted() {
        let cfg = ProtocolConfig::default();
        let mut ap = NeState::new_ap(G, AP1, vec![NodeId(20)], true, vec![], cfg);
        let mut m = mh();
        let mut out = Vec::new();
        m.join(ms(0), AP1, &mut out);
        for a in out.drain(..) {
            if let Action::Send { msg, .. } = a {
                ap.on_msg(ms(0), Endpoint::Mh(m.guid), msg, &mut Vec::new());
            }
        }
        let _ = fed(&mut m, 1, 1, 1..=5);
        // The stream stalls from 5 ms on. The liveness window is four
        // heartbeat periods (200 ms); a burst eats every uplink packet
        // from 300 to 460 ms — three of the four heartbeat instants.
        run_stall(&mut m, &mut ap, 1_000, |t| (300..=460).contains(&t));
        let known = ap.ap.as_ref().unwrap().wt.progress(m.guid);
        assert_eq!(known, Some(GlobalSeq(5)), "stalled MH was evicted");
        assert_eq!(ap.subtree_members, 1);
    }

    #[test]
    fn amnesiac_ap_reregisters_an_acking_mh() {
        let cfg = ProtocolConfig::default();
        let mut ap = NeState::new_ap(G, AP1, vec![NodeId(20)], true, vec![], cfg);
        let mut m = mh();
        let mut out = Vec::new();
        m.join(ms(0), AP1, &mut out);
        let _ = fed(&mut m, 1, 1, 1..=5);
        // The AP restarted and forgot the MH; the MH's stream stalls and
        // its grid acks reach the amnesiac AP.
        ap.restart(ms(10), &mut Vec::new());
        let mut up = Vec::new();
        m.tick_hop(ms(15), &mut up);
        assert_eq!(acks(&up), vec![5]);
        let mut down = Vec::new();
        for a in up {
            if let Action::Send { msg, .. } = a {
                ap.on_msg(ms(16), Endpoint::Mh(m.guid), msg, &mut down);
            }
        }
        assert!(
            ap.ap.as_ref().unwrap().last_heard.is_empty(),
            "an unknown MH's ack is not liveness"
        );
        let solicit: Vec<Msg> = down
            .into_iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Mh(g),
                    msg,
                } if g == m.guid => Some(msg),
                _ => None,
            })
            .collect();
        assert!(
            matches!(solicit[..], [Msg::ReRegister { .. }]),
            "{solicit:?}"
        );
        // The MH answers with its resume point and the AP knows it again.
        let mut up = Vec::new();
        m.on_msg(ms(17), Endpoint::Ne(AP1), solicit[0].clone(), &mut up);
        for a in up {
            if let Action::Send { msg, .. } = a {
                ap.on_msg(ms(18), Endpoint::Mh(m.guid), msg, &mut Vec::new());
            }
        }
        assert_eq!(
            ap.ap.as_ref().unwrap().wt.progress(m.guid),
            Some(GlobalSeq(5))
        );
        assert_eq!(ap.subtree_members, 1);
    }

    #[test]
    fn final_stats_record() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        out.clear();
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::FlushStats { group: G },
            &mut out,
        );
        assert!(matches!(
            out[0],
            Action::Record(ProtoEvent::MhFinal { delivered: 1, .. })
        ));
    }

    #[test]
    fn kill_silences() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Kill { group: G },
            &mut out,
        );
        out.clear();
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        m.tick_hop(SimTime::from_millis(5), &mut out);
        assert!(out.is_empty());
    }
}
