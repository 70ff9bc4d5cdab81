//! Demand-driven hop upkeep for the leaves of the hierarchy: walkers
//! ([`crate::mh::MhState`]) and leaf APs.
//!
//! The local-scope reliability scheme (§4.2.3) asks for per-hop cumulative
//! ACKs and gap NACKs, not for a fixed poll. A leaf therefore runs its hop
//! tick only when its stream needs it:
//!
//! * **Flowing.** While data arrives without a gap, the leaf acks from its
//!   data path: at most once per ack period (`ack_every × hop_tick`), and
//!   only when its front advanced. No hop tick is scheduled.
//! * **Gap or stall.** While its `MQ` has a gap, or no data arrived for a
//!   whole ack period (noticed at the heartbeat tick at the latest), the
//!   leaf ticks on its hop-tick grid exactly as a periodic tick would: gap
//!   NACKs go out at the same grid instants, and one cumulative ACK per
//!   ack period goes out whether or not the front moved. That steady ack
//!   stream is what keeps a stalled walker on a lossy uplink from being
//!   evicted by its AP's liveness sweep.
//!
//! Ring members (BRs, AGs) keep the periodic tick: token retry and `WQ`
//! gap chasing live there. They use the same ack pacing.

use simnet::{SimDuration, SimTime};

use crate::ids::GlobalSeq;

/// Ack pacing and stall detection for one hop's receiving side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopUpkeep {
    /// When the last cumulative ACK went upstream.
    last_ack_at: Option<SimTime>,
    /// The front that ACK reported.
    acked: GlobalSeq,
    /// When the last data message arrived (duplicates included).
    last_data_at: Option<SimTime>,
}

impl HopUpkeep {
    /// A data message arrived at `now`.
    #[inline]
    pub fn on_data(&mut self, now: SimTime) {
        self.last_data_at = Some(now);
    }

    /// True when at least one ack period passed since the last ACK (or
    /// none was ever sent).
    #[inline]
    pub fn ack_due(&self, now: SimTime, period: SimDuration) -> bool {
        self.last_ack_at
            .is_none_or(|t| now.saturating_since(t) >= period)
    }

    /// [`HopUpkeep::ack_due`], and `front` moved past the last ACK: the
    /// data-path rule.
    #[inline]
    pub fn progress_ack_due(&self, now: SimTime, front: GlobalSeq, period: SimDuration) -> bool {
        front > self.acked && self.ack_due(now, period)
    }

    /// An ACK reporting `front` went upstream at `now`.
    #[inline]
    pub fn note_ack(&mut self, now: SimTime, front: GlobalSeq) {
        self.last_ack_at = Some(now);
        self.acked = front;
    }

    /// The stream has stalled: data arrived before, but none for a whole
    /// `period`. A stream that never started has not stalled.
    #[inline]
    pub fn stalled(&self, now: SimTime, period: SimDuration) -> bool {
        self.last_data_at
            .is_some_and(|t| now.saturating_since(t) >= period)
    }
}

/// The first point of the hop-tick grid `origin + k × tick` strictly after
/// `now`: where a demand-armed tick fires, so it lands on the instant a
/// periodic tick started at `origin` would have fired.
pub fn next_grid_point(origin: SimTime, now: SimTime, tick: SimDuration) -> SimTime {
    let tick = tick.as_nanos().max(1);
    let elapsed = now.saturating_since(origin).as_nanos();
    origin + SimDuration::from_nanos((elapsed / tick + 1) * tick)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD: SimDuration = SimDuration::from_millis(10);

    fn ms(m: u64) -> SimTime {
        SimTime::from_millis(m)
    }

    #[test]
    fn grid_points_follow_the_origin() {
        let tick = SimDuration::from_millis(5);
        assert_eq!(next_grid_point(ms(0), ms(0), tick), ms(5));
        assert_eq!(next_grid_point(ms(0), ms(7), tick), ms(10));
        assert_eq!(
            next_grid_point(ms(0), ms(10), tick),
            ms(15),
            "strictly after"
        );
        // A revived actor's grid starts at its revival instant.
        assert_eq!(next_grid_point(ms(3), ms(7), tick), ms(8));
        assert_eq!(
            next_grid_point(SimTime::from_micros(3_100), ms(7), tick),
            SimTime::from_micros(8_100)
        );
    }

    #[test]
    fn data_path_acks_need_progress_and_a_full_period() {
        let mut u = HopUpkeep::default();
        assert!(!u.progress_ack_due(ms(1), GlobalSeq::ZERO, PERIOD));
        assert!(u.progress_ack_due(ms(1), GlobalSeq(1), PERIOD));
        u.note_ack(ms(1), GlobalSeq(1));
        assert!(!u.progress_ack_due(ms(5), GlobalSeq(3), PERIOD), "too soon");
        assert!(
            !u.progress_ack_due(ms(20), GlobalSeq(1), PERIOD),
            "no progress"
        );
        assert!(u.ack_due(ms(20), PERIOD), "a ticking leaf acks anyway");
        assert!(u.progress_ack_due(ms(11), GlobalSeq(2), PERIOD));
    }

    #[test]
    fn stall_needs_a_stream_that_started() {
        let mut u = HopUpkeep::default();
        assert!(!u.stalled(ms(500), PERIOD), "never started");
        u.on_data(ms(100));
        assert!(!u.stalled(ms(109), PERIOD));
        assert!(u.stalled(ms(110), PERIOD));
        u.on_data(ms(111));
        assert!(!u.stalled(ms(111), PERIOD));
    }
}
