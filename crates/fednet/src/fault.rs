//! Fault injection.
//!
//! The paper "make\[s\] no further liveness guarantees once federation
//! members become non-responsive" (§4). This module lets tests and
//! examples create exactly those conditions: crashed peers, dropped
//! messages, partitions, crash-restart windows and seeded probabilistic
//! link chaos (drop / duplicate / reorder), so the protocol's abort
//! behaviour, the runtime's per-link sequencing and the service's lane
//! rebuild can be exercised deterministically.

use std::collections::HashSet;
use std::time::Duration;

/// Seeded probabilistic link faults, evaluated per send with a
/// deterministic splitmix64 stream so a given seed always produces the
/// same fault schedule for the same send sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosFaults {
    /// PRNG seed; the whole fault schedule is a pure function of it.
    pub seed: u64,
    /// Probability in `[0, 1]` that a frame is silently dropped.
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that a delivered frame is sent twice.
    pub duplicate_rate: f64,
    /// Maximum reorder hold in milliseconds; each delivered frame is
    /// delayed by a uniform `0..=reorder_window_ms` so later frames can
    /// overtake it. `0` disables reordering.
    pub reorder_window_ms: u32,
}

impl ChaosFaults {
    /// The default chaos profile of the seeded chaos tests: no loss, some
    /// duplication, small reorder window — faults the runtime's per-link
    /// sequencing must absorb without changing the release.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.1,
            reorder_window_ms: 3,
        }
    }
}

/// The outcome of evaluating one send attempt against a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendDecision {
    /// Whether the frame is delivered at all.
    pub deliver: bool,
    /// Extra copies to deliver immediately (duplicate fault).
    pub duplicates: u32,
    /// Hold the frame for this long before delivery (reorder fault);
    /// frames sent during the hold may overtake it.
    pub delay: Option<Duration>,
}

impl SendDecision {
    const DELIVER: Self = Self {
        deliver: true,
        duplicates: 0,
        delay: None,
    };
    const DROP: Self = Self {
        deliver: false,
        duplicates: 0,
        delay: None,
    };
}

/// A crash-restart window expressed in send attempts involving the peer,
/// so the schedule is deterministic and clock-free.
#[derive(Debug, Clone)]
struct RestartWindow {
    peer: u32,
    after: u64,    // attempts involving the peer before it goes dark
    down_for: u64, // attempts involving the peer that fall into the outage
    seen: u64,
}

impl RestartWindow {
    fn dark(&self) -> bool {
        self.seen > self.after && self.seen <= self.after + self.down_for
    }
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f64(x: u64) -> f64 {
    // 53 uniform mantissa bits → [0, 1).
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic fault plan evaluated on every send.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    crashed: HashSet<u32>,
    drop_links: HashSet<(u32, u32)>,
    drop_after: Vec<(u32, u64)>, // peer, sends allowed before it goes dark
    sends_seen: Vec<(u32, u64)>,
    restarts: Vec<RestartWindow>,
    chaos: Option<ChaosFaults>,
    chaos_state: u64,
}

impl FaultPlan {
    /// No faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Marks `peer` as crashed: it neither sends nor receives.
    pub fn crash(&mut self, peer: u32) {
        self.crashed.insert(peer);
    }

    /// Silently drops every message on the directed link `from → to`.
    pub fn partition_link(&mut self, from: u32, to: u32) {
        self.drop_links.insert((from, to));
    }

    /// Lets `peer` send `sends` messages, then crashes it (models a member
    /// dying mid-protocol). The final allowed send still departs, but the
    /// peer is reported crashed from that exact boundary on.
    pub fn crash_after_sends(&mut self, peer: u32, sends: u64) {
        self.drop_after.push((peer, sends));
        self.sends_seen.push((peer, 0));
    }

    /// Crash-restart: after `after` send attempts involving `peer` (in
    /// either direction), the next `down_for` attempts involving it are
    /// dropped, then the peer is reachable again. Clock-free, so tests
    /// stay deterministic.
    pub fn crash_restart(&mut self, peer: u32, after: u64, down_for: u64) {
        self.restarts.push(RestartWindow {
            peer,
            after,
            down_for,
            seen: 0,
        });
    }

    /// Enables seeded probabilistic link faults on every non-crashed link.
    pub fn chaos(&mut self, chaos: ChaosFaults) {
        self.chaos_state = chaos.seed;
        self.chaos = Some(chaos);
    }

    /// Whether probabilistic faults (and thus delayed deliveries) are
    /// possible under this plan.
    #[must_use]
    pub fn has_chaos(&self) -> bool {
        self.chaos.is_some()
    }

    /// Whether `peer` is (currently) crashed.
    #[must_use]
    pub fn is_crashed(&self, peer: u32) -> bool {
        if self.crashed.contains(&peer) {
            return true;
        }
        self.restarts.iter().any(|w| w.peer == peer && w.dark())
    }

    /// Evaluates a send attempt; returns `true` if the message must be
    /// dropped. Mutates internal counters for `crash_after_sends`.
    pub fn on_send(&mut self, from: u32, to: u32) -> bool {
        !self.decide(from, to).deliver
    }

    /// Evaluates a send attempt, returning the full fault decision
    /// (drop / duplicate / delayed delivery). Mutates internal counters
    /// and the chaos PRNG stream.
    pub fn decide(&mut self, from: u32, to: u32) -> SendDecision {
        if self.crashed.contains(&from) || self.crashed.contains(&to) {
            return SendDecision::DROP;
        }
        if self.drop_links.contains(&(from, to)) {
            return SendDecision::DROP;
        }
        for (i, &(peer, limit)) in self.drop_after.iter().enumerate() {
            if peer == from {
                let seen = &mut self.sends_seen[i].1;
                *seen += 1;
                if *seen >= limit {
                    // The peer dies at this exact boundary: the final
                    // allowed send still departs, but `is_crashed` must
                    // already report it.
                    self.crashed.insert(peer);
                }
                if *seen > limit {
                    return SendDecision::DROP;
                }
            }
        }
        let mut dark = false;
        for w in &mut self.restarts {
            if w.peer == from || w.peer == to {
                w.seen += 1;
                dark |= w.dark();
            }
        }
        if dark {
            return SendDecision::DROP;
        }
        let Some(chaos) = self.chaos else {
            return SendDecision::DELIVER;
        };
        // Always draw the same number of values per send so the fault
        // schedule depends only on the send sequence, not on outcomes.
        let drop_draw = unit_f64(splitmix64(&mut self.chaos_state));
        let dup_draw = unit_f64(splitmix64(&mut self.chaos_state));
        let delay_draw = splitmix64(&mut self.chaos_state);
        if drop_draw < chaos.drop_rate {
            return SendDecision::DROP;
        }
        let duplicates = u32::from(dup_draw < chaos.duplicate_rate);
        let delay = if chaos.reorder_window_ms > 0 {
            let ms = delay_draw % (u64::from(chaos.reorder_window_ms) + 1);
            (ms > 0).then(|| Duration::from_millis(ms))
        } else {
            None
        };
        SendDecision {
            deliver: true,
            duplicates,
            delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_by_default() {
        let mut plan = FaultPlan::none();
        assert!(!plan.on_send(0, 1));
        assert!(!plan.is_crashed(0));
    }

    #[test]
    fn crashed_peer_drops_both_directions() {
        let mut plan = FaultPlan::none();
        plan.crash(1);
        assert!(plan.on_send(1, 0), "crashed sender");
        assert!(plan.on_send(0, 1), "crashed receiver");
        assert!(!plan.on_send(0, 2));
    }

    #[test]
    fn partition_is_directional() {
        let mut plan = FaultPlan::none();
        plan.partition_link(0, 1);
        assert!(plan.on_send(0, 1));
        assert!(!plan.on_send(1, 0));
    }

    #[test]
    fn crash_after_sends_counts() {
        let mut plan = FaultPlan::none();
        plan.crash_after_sends(3, 2);
        assert!(!plan.on_send(3, 0));
        assert!(!plan.on_send(3, 1));
        assert!(plan.on_send(3, 2), "third send crashes the peer");
        assert!(plan.is_crashed(3));
        assert!(plan.on_send(0, 3), "now unreachable too");
    }

    #[test]
    fn crash_at_send_boundary_is_reported() {
        let mut plan = FaultPlan::none();
        plan.crash_after_sends(3, 2);
        assert!(!plan.on_send(3, 0));
        assert!(!plan.is_crashed(3), "one send left");
        assert!(!plan.on_send(3, 1), "final allowed send still departs");
        assert!(
            plan.is_crashed(3),
            "peer must be reported crashed at the exact boundary"
        );
    }

    #[test]
    fn crash_restart_window_is_deterministic() {
        let mut plan = FaultPlan::none();
        plan.crash_restart(1, 2, 3);
        assert!(!plan.on_send(1, 0)); // 1
        assert!(!plan.on_send(0, 1)); // 2: last attempt before outage
        assert!(!plan.is_crashed(1));
        assert!(plan.on_send(1, 2)); // 3: dark
        assert!(plan.is_crashed(1));
        assert!(plan.on_send(2, 1)); // 4: dark
        assert!(plan.on_send(1, 0)); // 5: dark
        assert!(!plan.on_send(0, 1), "peer restarted"); // 6
        assert!(!plan.is_crashed(1));
    }

    #[test]
    fn chaos_schedule_is_a_function_of_the_seed() {
        let schedule = |seed: u64| -> Vec<SendDecision> {
            let mut plan = FaultPlan::none();
            plan.chaos(ChaosFaults {
                seed,
                drop_rate: 0.2,
                duplicate_rate: 0.2,
                reorder_window_ms: 5,
            });
            (0..64).map(|i| plan.decide(i % 3, (i + 1) % 3)).collect()
        };
        assert_eq!(schedule(9), schedule(9), "same seed, same schedule");
        assert_ne!(schedule(9), schedule(10), "different seed differs");
        let touched = schedule(9)
            .iter()
            .any(|d| !d.deliver || d.duplicates > 0 || d.delay.is_some());
        assert!(touched, "chaos at these rates must inject something");
    }

    #[test]
    fn chaos_rates_zero_is_clean() {
        let mut plan = FaultPlan::none();
        plan.chaos(ChaosFaults {
            seed: 4,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_window_ms: 0,
        });
        for i in 0..32 {
            assert_eq!(plan.decide(i % 2, 1 - i % 2), SendDecision::DELIVER);
        }
    }
}
