//! The local-scope retransmission scheme (§4.2.3) — the hop tick.
//!
//! The paper implements reliability *within each local scope* (ring link,
//! parent→child link, AP→MH wireless link) in a best-effort way. Ring
//! members (BRs, AGs) run this tick on every point of their `hop_tick`
//! grid; a leaf AP runs it on its grid only while its stream has a gap or
//! has stalled, and otherwise acks from its data path
//! ([`NeState::ack_progress`], see [`crate::upkeep`]). One tick:
//!
//! 1. NACK missing `MQ` messages to the upstream hop; slots whose budget is
//!    exhausted become *really lost* and the front skips them.
//! 2. NACK missing `WQ` entries (top ring) to the previous ring node.
//! 3. Once per ack period (`ack_every × hop_tick`), send cumulative ACKs
//!    upstream (and to the previous ring node, whose garbage collection
//!    depends on them).
//! 4. Retry an unacknowledged ordering-token transfer; give up after the
//!    budget (the Token-Loss machinery then takes over).
//! 5. Garbage-collect `MQ`/`WQ` up to the collective progress watermark.

use simnet::SimTime;

use crate::actions::{Action, Outbox};
use crate::ids::GlobalSeq;
use crate::msg::Msg;
use crate::node::NeState;

impl NeState {
    /// Run one hop-maintenance tick.
    pub fn tick_hop(&mut self, now: SimTime, out: &mut Outbox) {
        if !self.alive {
            return;
        }
        let group = self.group;

        // (1) MQ gap chasing.
        let (to_request, newly_lost) = self.mq.collect_nacks(self.cfg.nack_budget);
        if !to_request.is_empty() {
            if let Some(up) = self.upstream() {
                self.telemetry.count_n(
                    crate::telemetry::metric::NACKS_SENT,
                    to_request.len() as u64,
                );
                out.push(Action::to_ne(
                    up,
                    Msg::DataNack {
                        group,
                        missing: to_request,
                    },
                ));
                self.counters.control_sent += 1;
            }
        }
        if !newly_lost.is_empty() {
            // The front may now step over the lost slots.
            self.drive_delivery(now, out);
        }

        // (2) WQ gap chasing (top ring only).
        let prev = self.ring_prev();
        if let Some(wq) = self.wq.as_mut() {
            let (requests, _lost) = wq.collect_nacks(self.cfg.nack_budget);
            if let Some(prev) = prev {
                if prev != self.id {
                    for (corr, missing) in requests {
                        if corr == self.id {
                            continue; // own source's stream has no ring upstream
                        }
                        self.telemetry.count_n(
                            crate::telemetry::metric::PREORDER_NACKS_SENT,
                            missing.len() as u64,
                        );
                        out.push(Action::to_ne(
                            prev,
                            Msg::PreOrderNack {
                                group,
                                corresponding: corr,
                                missing,
                            },
                        ));
                        self.counters.control_sent += 1;
                    }
                }
            }
        }

        // (3) Cumulative ACKs, once per ack period.
        if self.upkeep.ack_due(now, self.cfg.ack_period()) {
            let front = self.mq.front();
            self.upkeep.note_ack(now, front);
            // At most two ack targets: upstream, plus — for ring members —
            // the previous node, so its retention window can advance even
            // when their own upstream is a parent (non-top ring leaders).
            // A fixed pair instead of a Vec: this runs every ack tick.
            let up = self.upstream();
            let ring_prev = prev.filter(|&p| p != self.id && Some(p) != up);
            for t in [up, ring_prev].into_iter().flatten() {
                out.push(Action::to_ne(t, Msg::DataAck { group, upto: front }));
                self.counters.control_sent += 1;
            }
            // Per-stream WQ acks to the previous ring node.
            if let Some(prev) = prev {
                if prev != self.id {
                    if let Some(wq) = self.wq.as_ref() {
                        let me = self.id;
                        let mut sent = 0u32;
                        for (corr, upto) in wq
                            .sources()
                            .filter(|&c| c != me)
                            .map(|c| (c, wq.contiguous_prefix(c)))
                        {
                            out.push(Action::to_ne(
                                prev,
                                Msg::PreOrderAck {
                                    group,
                                    corresponding: corr,
                                    upto,
                                },
                            ));
                            sent += 1;
                        }
                        self.counters.control_sent += sent;
                    }
                }
            }
        }

        // (4) Token transfer retry / sole-survivor self-pass.
        self.token_maintenance(now, out);

        // (5) Garbage collection.
        self.collect_garbage();
    }

    /// The data-path ACK of a leaf AP whose stream is flowing: report the
    /// front to the parent when it moved and a whole ack period passed
    /// since the last ACK, then collect garbage. Also run from the
    /// heartbeat tick, so progress at the tail of a burst is reported.
    pub(crate) fn ack_progress(&mut self, now: SimTime, out: &mut Outbox) {
        let front = self.mq.front();
        if !self
            .upkeep
            .progress_ack_due(now, front, self.cfg.ack_period())
        {
            return;
        }
        let Some(up) = self.upstream() else { return };
        self.upkeep.note_ack(now, front);
        out.push(Action::to_ne(
            up,
            Msg::DataAck {
                group: self.group,
                upto: front,
            },
        ));
        self.counters.control_sent += 1;
        self.collect_garbage();
    }

    /// Retry an unacknowledged token transfer; drive the degenerate
    /// single-node ring; give up after the retry budget.
    fn token_maintenance(&mut self, now: SimTime, out: &mut Outbox) {
        let me = self.id;
        if self.is_partition_fenced() {
            // The minority side neither retries nor self-passes: its token
            // lineage is fenced off until the merge (see `ring_epoch`).
            return;
        }
        let Some(ring) = self.ring.as_ref() else {
            return;
        };
        let sole = ring.alive_count() == 1;
        let next_now = ring.next_of(me);
        if self.ord.is_none() {
            return;
        }

        if sole {
            if !self.top_ring_primary() {
                // A lone survivor outside the primary component must not
                // keep the GSN stream alive (belt-and-suspenders: the
                // fence entry above normally catches this first).
                return;
            }
            // Single-node top ring: re-process the kept token locally so
            // ordering keeps making progress.
            let token = {
                let ord = self.ord.as_mut().expect("checked above");
                if ord.inflight.is_some() {
                    return;
                }
                ord.last_token_seen = now;
                ord.new_token.clone()
            };
            if let Some(tok) = token {
                self.process_and_forward_token(now, tok, out);
            }
            return;
        }

        let ord = self.ord.as_mut().expect("checked above");
        let Some(inf) = ord.inflight.as_mut() else {
            return;
        };
        if now.saturating_since(inf.sent_at) < self.cfg.token_retry_after {
            return;
        }
        if inf.attempts >= self.cfg.token_retry_budget {
            // Give up; this copy is considered lost. Token-Regeneration
            // (§4.2.1) recovers from the per-node NewOrderingToken snapshots.
            ord.inflight = None;
            return;
        }
        // Re-send, possibly to a different next node after a ring repair.
        inf.to = next_now;
        inf.attempts += 1;
        inf.sent_at = now;
        let token = inf.token.clone();
        out.push(Action::to_ne(next_now, Msg::Token(Box::new(token))));
        self.counters.control_sent += 1;
    }

    /// Advance `ValidFront` up to the collective downstream progress.
    pub(crate) fn collect_garbage(&mut self) {
        let mut watermark = self.mq.front();
        if let Some(min) = self.wt_children.min_progress() {
            watermark = watermark.min(min);
        }
        if let Some(ap) = self.ap.as_ref() {
            if let Some(min) = ap.wt.min_progress() {
                watermark = watermark.min(min);
            }
        }
        if let Some(r) = self.ring.as_ref() {
            if r.next_of(self.id) != self.id {
                watermark = watermark.min(r.next_acked_mq);
            }
        }
        // Keep a small service tail so immediate re-requests can be served.
        let tail = GlobalSeq(watermark.0.saturating_sub(1));
        self.mq.gc_to(tail);
        if let Some(wq) = self.wq.as_mut() {
            wq.gc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::ids::{Endpoint, GroupId, LocalSeq, NodeId, PayloadId};
    use crate::mq::MsgData;
    use simnet::SimDuration;

    const G: GroupId = GroupId(1);

    fn data(g: u64) -> MsgData {
        MsgData {
            source: NodeId(0),
            local_seq: LocalSeq(g),
            ordering_node: NodeId(0),
            payload: PayloadId(g),
        }
    }

    fn ag20() -> NeState {
        NeState::new_ag(
            G,
            NodeId(20),
            vec![NodeId(10), NodeId(20), NodeId(30)],
            vec![NodeId(1)],
            ProtocolConfig::default(),
        )
    }

    #[test]
    fn gap_produces_nack_to_upstream() {
        let mut n = ag20();
        let mut out = Vec::new();
        n.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(10)),
            GlobalSeq(3),
            data(3),
            &mut out,
        );
        out.clear();
        n.tick_hop(SimTime::from_millis(5), &mut out);
        let nacks: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(t),
                    msg: Msg::DataNack { missing, .. },
                } => Some((*t, missing.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(nacks.len(), 1);
        assert_eq!(
            nacks[0].0,
            NodeId(10),
            "nack goes to the previous ring node"
        );
        assert_eq!(nacks[0].1, vec![GlobalSeq(1), GlobalSeq(2)]);
    }

    fn acks_to(out: &Outbox) -> Vec<(NodeId, GlobalSeq)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(t),
                    msg: Msg::DataAck { upto, .. },
                } => Some((*t, *upto)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn acks_flow_upstream_on_schedule() {
        let mut n = ag20();
        let mut out = Vec::new();
        n.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(10)),
            GlobalSeq(1),
            data(1),
            &mut out,
        );
        assert!(acks_to(&out).is_empty(), "ring members ack from the tick");
        // One ack per ack period (2 ticks): the first tick acks, the next
        // one inside the period does not, the one after does.
        let mut per_tick = Vec::new();
        for k in 1..=4u64 {
            out.clear();
            n.tick_hop(SimTime::from_millis(5 * k), &mut out);
            per_tick.push(acks_to(&out));
        }
        let one = vec![(NodeId(10), GlobalSeq(1))];
        assert_eq!(per_tick, vec![one.clone(), vec![], one, vec![]]);
    }

    /// A leaf AP grafted under AG 20.
    fn leaf_ap() -> NeState {
        let mut ap = NeState::new_ap(
            G,
            NodeId(99),
            vec![NodeId(20)],
            true,
            vec![],
            ProtocolConfig::default(),
        );
        ap.parent = Some(NodeId(20));
        ap.ap.as_mut().unwrap().grafted = true;
        ap
    }

    #[test]
    fn quiescent_leaf_ap_schedules_no_hop_tick() {
        let mut ap = leaf_ap();
        // Grafted, no stream yet.
        assert!(!ap.needs_hop_tick(SimTime::from_millis(500)));
        // A steady in-order stream: acked from the data path, once per
        // ack period, and no tick needed between arrivals.
        let mut out = Vec::new();
        let mut sent = Vec::new();
        for g in 1..=20u64 {
            let t = SimTime::from_millis(3 * g);
            out.clear();
            ap.on_data(t, Endpoint::Ne(NodeId(20)), GlobalSeq(g), data(g), &mut out);
            assert!(!ap.needs_hop_tick(t));
            assert!(!ap.needs_hop_tick(t + SimDuration::from_millis(2)));
            sent.extend(acks_to(&out).into_iter().map(|(to, upto)| (g, to, upto.0)));
        }
        let up = NodeId(20);
        assert_eq!(
            sent,
            vec![
                (1, up, 1),
                (5, up, 5),
                (9, up, 9),
                (13, up, 13),
                (17, up, 17)
            ]
        );
        // A pruned AP expects no stream, so it never stalls.
        ap.ap.as_mut().unwrap().grafted = false;
        assert!(!ap.needs_hop_tick(SimTime::from_secs(5)));
    }

    #[test]
    fn leaf_ap_ticks_while_gap_or_stall() {
        let mut ap = leaf_ap();
        let mut out = Vec::new();
        ap.on_data(
            SimTime::from_millis(1),
            Endpoint::Ne(NodeId(20)),
            GlobalSeq(1),
            data(1),
            &mut out,
        );
        ap.on_data(
            SimTime::from_millis(2),
            Endpoint::Ne(NodeId(20)),
            GlobalSeq(3),
            data(3),
            &mut out,
        );
        assert!(ap.needs_hop_tick(SimTime::from_millis(2)), "gap");
        out.clear();
        ap.tick_hop(SimTime::from_millis(5), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::Ne(NodeId(20)),
                msg: Msg::DataNack { .. }
            }
        )));
        ap.on_data(
            SimTime::from_millis(6),
            Endpoint::Ne(NodeId(20)),
            GlobalSeq(2),
            data(2),
            &mut out,
        );
        assert!(!ap.needs_hop_tick(SimTime::from_millis(6)), "filled");
        // No data for an ack period: the stream stalled, the tick acks on
        // the grid whether or not the front moved.
        let stall = SimTime::from_millis(16);
        assert!(ap.needs_hop_tick(stall));
        out.clear();
        ap.tick_hop(SimTime::from_millis(20), &mut out);
        ap.tick_hop(SimTime::from_millis(30), &mut out);
        assert_eq!(acks_to(&out), vec![(NodeId(20), GlobalSeq(3)); 2]);
    }

    #[test]
    fn leader_acks_both_parent_and_prev() {
        let mut n = NeState::new_ag(
            G,
            NodeId(10),
            vec![NodeId(10), NodeId(20), NodeId(30)],
            vec![NodeId(1)],
            ProtocolConfig::default(),
        );
        n.parent = Some(NodeId(1));
        let mut out = Vec::new();
        n.tick_hop(SimTime::from_millis(5), &mut out);
        n.tick_hop(SimTime::from_millis(10), &mut out);
        let targets: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(t),
                    msg: Msg::DataAck { .. },
                } => Some(*t),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![NodeId(1), NodeId(30)]);
    }

    #[test]
    fn budget_exhaustion_skips_and_delivers() {
        let cfg = ProtocolConfig::default().with_nack_budget(1);
        let mut n = NeState::new_ag(G, NodeId(20), vec![NodeId(10), NodeId(20)], vec![], cfg);
        let mut out = Vec::new();
        n.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(10)),
            GlobalSeq(2),
            data(2),
            &mut out,
        );
        out.clear();
        n.tick_hop(SimTime::from_millis(5), &mut out); // nack #1
        assert_eq!(n.mq.front(), GlobalSeq::ZERO);
        n.tick_hop(SimTime::from_millis(10), &mut out); // budget exhausted → lost
        assert_eq!(n.mq.front(), GlobalSeq(2), "front skipped the lost slot");
    }

    #[test]
    fn token_retry_and_giveup() {
        let cfg = ProtocolConfig::default();
        let retry_after = cfg.token_retry_after;
        let budget = cfg.token_retry_budget;
        let mut n = NeState::new_br(G, NodeId(0), vec![NodeId(0), NodeId(1)], true, cfg);
        let mut out = Vec::new();
        n.originate_token(SimTime::ZERO, &mut out);
        assert_eq!(
            n.ord.as_ref().unwrap().inflight.as_ref().unwrap().attempts,
            1
        );
        // Before the retry timeout: nothing happens.
        out.clear();
        n.tick_hop(SimTime::ZERO + retry_after / 2, &mut out);
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Token(_),
                ..
            }
        )));
        // After the timeout: resend.
        let mut t = SimTime::ZERO + retry_after;
        n.tick_hop(t, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Token(_),
                ..
            }
        )));
        assert_eq!(
            n.ord.as_ref().unwrap().inflight.as_ref().unwrap().attempts,
            2
        );
        // Exhaust the budget.
        for _ in 0..budget {
            t += retry_after;
            out.clear();
            n.tick_hop(t, &mut out);
        }
        assert!(
            n.ord.as_ref().unwrap().inflight.is_none(),
            "gave up after budget"
        );
    }

    #[test]
    fn sole_survivor_keeps_ordering_alive() {
        let cfg = ProtocolConfig::default();
        let mut n = NeState::new_br(G, NodeId(0), vec![NodeId(0)], true, cfg);
        let mut out = Vec::new();
        n.originate_token(SimTime::ZERO, &mut out);
        n.on_source_data(SimTime::ZERO, LocalSeq(1), PayloadId(1), &mut out);
        out.clear();
        n.tick_hop(SimTime::from_millis(5), &mut out);
        // The self-pass assigned the pending message.
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(crate::events::ProtoEvent::Ordered {
                gsn: GlobalSeq(1),
                ..
            })
        )));
    }

    #[test]
    fn gc_waits_for_all_downstreams() {
        let mut n = ag20();
        let mut out = Vec::new();
        for g in 1..=4u64 {
            n.on_data(
                SimTime::ZERO,
                Endpoint::Ne(NodeId(10)),
                GlobalSeq(g),
                data(g),
                &mut out,
            );
        }
        // A child lagging at 1 pins the watermark.
        n.children.insert(NodeId(99), SimTime::ZERO);
        n.wt_children.register(NodeId(99), GlobalSeq(1));
        // Ring next acked everything.
        n.on_data_ack(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(30)),
            GlobalSeq(4),
            &mut out,
        );
        n.tick_hop(SimTime::from_millis(5), &mut out);
        assert!(
            n.mq.get(GlobalSeq(1)).is_some(),
            "retained for lagging child"
        );
        // Child catches up → GC proceeds (keeping the one-slot service tail).
        n.on_data_ack(
            SimTime::from_millis(6),
            Endpoint::Ne(NodeId(99)),
            GlobalSeq(4),
            &mut out,
        );
        n.tick_hop(SimTime::from_millis(10), &mut out);
        assert!(n.mq.get(GlobalSeq(2)).is_none());
        assert!(n.mq.get(GlobalSeq(4)).is_some());
        assert_eq!(n.mq.valid_front(), GlobalSeq(4));
    }

    #[test]
    fn dead_entity_tick_is_silent() {
        let mut n = ag20();
        n.kill();
        let mut out = Vec::new();
        n.tick_hop(SimTime::from_millis(5), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn wq_nacks_go_to_prev_excluding_own_stream() {
        let cfg = ProtocolConfig::default();
        let mut n = NeState::new_br(
            G,
            NodeId(1),
            vec![NodeId(0), NodeId(1), NodeId(2)],
            true,
            cfg,
        );
        let mut out = Vec::new();
        // Hole in source 0's stream (ls 1 missing), own stream complete.
        n.on_pre_order(
            SimTime::ZERO,
            NodeId(0),
            LocalSeq(2),
            PayloadId(2),
            &mut out,
        );
        n.on_source_data(SimTime::ZERO, LocalSeq(1), PayloadId(1), &mut out);
        out.clear();
        n.tick_hop(SimTime::from_millis(5), &mut out);
        let nacks: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(t),
                    msg:
                        Msg::PreOrderNack {
                            corresponding,
                            missing,
                            ..
                        },
                } => Some((*t, *corresponding, missing.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(nacks, vec![(NodeId(0), NodeId(0), vec![LocalSeq(1)])]);
    }

    #[test]
    fn config_timing_is_respected() {
        // Sanity: default config passes its own validation (used heavily here).
        assert!(ProtocolConfig::default().validate().is_empty());
        assert!(ProtocolConfig::default().token_retry_after >= SimDuration::from_millis(1));
    }
}
