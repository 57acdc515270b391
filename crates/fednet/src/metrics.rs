//! Traffic metrics.
//!
//! The paper's Table 3 discussion quantifies GenDPR's bandwidth: count
//! vectors cost `4·L_des` bytes plus ~30% encryption overhead, while *not*
//! shipping genomes saves `2·L_des·N_T` bits. These counters let the bench
//! harness reproduce that accounting: every envelope records its plaintext
//! and on-wire (ciphertext) sizes per directed link.

/// Counters for one directed link or the whole network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Messages delivered.
    pub messages: u64,
    /// Application payload bytes before encryption/framing.
    pub plaintext_bytes: u64,
    /// Bytes actually put on the wire.
    pub wire_bytes: u64,
}

impl TrafficStats {
    /// Adds one message's sizes.
    pub fn record(&mut self, plaintext: usize, wire: usize) {
        self.messages += 1;
        self.plaintext_bytes += plaintext as u64;
        self.wire_bytes += wire as u64;
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.messages += other.messages;
        self.plaintext_bytes += other.plaintext_bytes;
        self.wire_bytes += other.wire_bytes;
    }

    /// Ciphertext expansion factor (wire / plaintext); 1.0 when nothing was
    /// sent.
    #[must_use]
    pub fn expansion(&self) -> f64 {
        if self.plaintext_bytes == 0 {
            1.0
        } else {
            self.wire_bytes as f64 / self.plaintext_bytes as f64
        }
    }
}

/// Per-link traffic accounting, keyed by `(from, to)` peer indices.
///
/// One entry per link that carried traffic, in order of first use, found
/// by a linear scan: a federation has a few dozen links at most, and a
/// scan of them costs less than hashing the key. It is not indexed by
/// peer id, since a TCP frame's sender id is the peer's own claim and
/// must not size the table.
#[derive(Debug, Clone, Default)]
pub struct TrafficMatrix {
    links: Vec<((u32, u32), TrafficStats)>,
}

impl TrafficMatrix {
    /// Records one message on the `(from, to)` link.
    pub fn record(&mut self, from: u32, to: u32, plaintext: usize, wire: usize) {
        let key = (from, to);
        let stats = match self.links.iter().position(|(link, _)| *link == key) {
            Some(i) => &mut self.links[i].1,
            None => {
                self.links.push((key, TrafficStats::default()));
                &mut self.links.last_mut().expect("just pushed").1
            }
        };
        stats.record(plaintext, wire);
    }

    /// Stats for one directed link.
    #[must_use]
    pub fn link(&self, from: u32, to: u32) -> TrafficStats {
        self.sum(|link| link == (from, to))
    }

    /// Network-wide totals.
    #[must_use]
    pub fn total(&self) -> TrafficStats {
        self.sum(|_| true)
    }

    /// Total bytes received by `peer` from anyone.
    #[must_use]
    pub fn ingress(&self, peer: u32) -> TrafficStats {
        self.sum(|(_, to)| to == peer)
    }

    /// Total bytes sent by `peer` to anyone.
    #[must_use]
    pub fn egress(&self, peer: u32) -> TrafficStats {
        self.sum(|(from, _)| from == peer)
    }

    fn sum(&self, pick: impl Fn((u32, u32)) -> bool) -> TrafficStats {
        let mut t = TrafficStats::default();
        for (link, s) in &self.links {
            if pick(*link) {
                t.merge(s);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut m = TrafficMatrix::default();
        m.record(0, 1, 100, 130);
        m.record(0, 1, 50, 66);
        m.record(2, 1, 10, 26);
        assert_eq!(m.link(0, 1).messages, 2);
        assert_eq!(m.link(0, 1).plaintext_bytes, 150);
        assert_eq!(m.link(1, 0), TrafficStats::default());
        let total = m.total();
        assert_eq!(total.messages, 3);
        assert_eq!(total.wire_bytes, 222);
    }

    #[test]
    fn ingress_egress() {
        let mut m = TrafficMatrix::default();
        m.record(0, 1, 10, 20);
        m.record(2, 1, 30, 40);
        m.record(1, 0, 5, 15);
        assert_eq!(m.ingress(1).plaintext_bytes, 40);
        assert_eq!(m.egress(1).plaintext_bytes, 5);
        assert_eq!(m.ingress(0).wire_bytes, 15);
    }

    #[test]
    fn expansion_factor() {
        let mut s = TrafficStats::default();
        assert_eq!(s.expansion(), 1.0);
        s.record(100, 130);
        assert!((s.expansion() - 1.3).abs() < 1e-12);
    }
}
