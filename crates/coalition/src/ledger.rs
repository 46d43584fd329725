//! The append-only, hash-chained audit ledger.
//!
//! A coalition renegotiating its policy at run time needs an audit trail
//! that outlives any single member: *which* policy was active when, and
//! *what* was decided under it. The ledger records every policy change
//! and a sample of verdicts as a chain of entries, each carrying the
//! FNV-1a hash of (previous hash ‖ sequence number ‖ kind ‖ payload) —
//! so truncation, reordering or in-place edits of the serialized ledger
//! are detectable offline by anyone holding only the file
//! (`stacl ledger verify`).
//!
//! The chain is *tamper-evident*, not tamper-proof: FNV-1a is not a
//! cryptographic hash, and there is no signing. That matches the paper's
//! trust model — coalition members are mutually trusting; the ledger
//! defends against accidents (lost writes, interleaved appends, file
//! corruption), not adversaries.
//!
//! ## Serialized form
//!
//! One line per entry, `|`-separated, hashes in fixed-width hex:
//!
//! ```text
//! 0|policy|epoch=1 policy-fnv=6b0c9f1e22334455|0000000000000000|9ae16a3b2f90404f
//! 1|verdict|t=3 obj=n0 access=read:r0@s1 verdict=granted epoch=1|9ae16a3b2f90404f|c3a5298e61f4b021
//! ```
//!
//! Payloads never contain `|` or newlines (appends sanitize them away),
//! so the format needs no quoting.

use std::fmt;
use std::hash::Hasher;

use stacl_ids::hash::FnvHasher;
use stacl_obs::Counter;

/// The 64-bit FNV-1a hash of a byte string, from the standard fixed
/// basis (FNV is small, fast and good enough for a tamper-evident — not
/// cryptographic — chain, and any process must re-derive the same
/// chain).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// What an entry records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LedgerKind {
    /// A policy change: an epoch was activated.
    PolicyChange,
    /// A (sampled) access verdict.
    Verdict,
    /// Free-form annotation (episode boundaries, operator notes).
    Note,
}

impl LedgerKind {
    /// Stable serialized tag.
    pub fn label(self) -> &'static str {
        match self {
            LedgerKind::PolicyChange => "policy",
            LedgerKind::Verdict => "verdict",
            LedgerKind::Note => "note",
        }
    }

    /// Parse the serialized tag.
    pub fn parse(s: &str) -> Option<LedgerKind> {
        match s {
            "policy" => Some(LedgerKind::PolicyChange),
            "verdict" => Some(LedgerKind::Verdict),
            "note" => Some(LedgerKind::Note),
            _ => None,
        }
    }
}

impl fmt::Display for LedgerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One chained entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LedgerEntry {
    /// Position in the chain, starting at 0.
    pub seq: u64,
    /// What the entry records.
    pub kind: LedgerKind,
    /// The record itself (no `|` or newlines).
    pub payload: String,
    /// The previous entry's hash (0 for the first entry).
    pub prev: u64,
    /// FNV-1a over `prev ‖ seq ‖ kind ‖ payload`.
    pub hash: u64,
}

impl LedgerEntry {
    /// Recompute the hash this entry *should* carry given its fields.
    fn expected_hash(&self) -> u64 {
        hash_entry(self.prev, self.seq, self.kind, &self.payload)
    }
}

fn hash_entry(prev: u64, seq: u64, kind: LedgerKind, payload: &str) -> u64 {
    let mut buf = Vec::with_capacity(payload.len() + 32);
    buf.extend_from_slice(&prev.to_be_bytes());
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(kind.label().as_bytes());
    buf.push(b'|');
    buf.extend_from_slice(payload.as_bytes());
    fnv1a(&buf)
}

/// The append-only hash chain.
#[derive(Clone, Default, Debug)]
pub struct Ledger {
    entries: Vec<LedgerEntry>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in chain order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Append one entry. The payload is sanitized (`|` and newlines
    /// become spaces) so the line format stays unambiguous.
    pub fn append(&mut self, kind: LedgerKind, payload: impl Into<String>) -> &LedgerEntry {
        let payload: String = payload
            .into()
            .chars()
            .map(|c| {
                if c == '|' || c == '\n' || c == '\r' {
                    ' '
                } else {
                    c
                }
            })
            .collect();
        let seq = self.entries.len() as u64;
        let prev = self.entries.last().map(|e| e.hash).unwrap_or(0);
        let hash = hash_entry(prev, seq, kind, &payload);
        stacl_obs::count(Counter::LedgerAppend);
        self.entries.push(LedgerEntry {
            seq,
            kind,
            payload,
            prev,
            hash,
        });
        self.entries.last().expect("just pushed")
    }

    /// Record a policy activation: the epoch and the FNV-1a of the
    /// rendered policy text (the text itself may be large and may contain
    /// arbitrary constraint syntax; the fingerprint is what offline
    /// verification needs).
    pub fn record_policy_change(&mut self, epoch: u64, policy_fnv: u64) {
        self.append(
            LedgerKind::PolicyChange,
            format!("epoch={epoch} policy-fnv={policy_fnv:016x}"),
        );
    }

    /// Record one (sampled) verdict.
    pub fn record_verdict(&mut self, time: f64, object: &str, access: &str, verdict: &Verdict) {
        self.append(
            LedgerKind::Verdict,
            format!(
                "t={time} obj={object} access={access} verdict={} epoch={}",
                verdict.kind.label(),
                verdict.epoch
            ),
        );
    }

    /// Serialize to the line format.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{}|{}|{}|{:016x}|{:016x}",
                e.seq, e.kind, e.payload, e.prev, e.hash
            );
        }
        out
    }

    /// Parse a serialized ledger. Structural errors (wrong field count,
    /// bad numbers) are reported with their 1-based line; chain
    /// *integrity* is [`Ledger::verify`]'s job.
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let mut entries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line_no = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split('|').collect();
            let [seq, kind, payload, prev, hash] = parts.as_slice() else {
                return Err(format!(
                    "ledger line {line_no}: expected 5 `|`-separated fields, found {}",
                    parts.len()
                ));
            };
            let seq: u64 = seq
                .parse()
                .map_err(|_| format!("ledger line {line_no}: bad seq `{seq}`"))?;
            let kind = LedgerKind::parse(kind)
                .ok_or_else(|| format!("ledger line {line_no}: unknown kind `{kind}`"))?;
            let prev = u64::from_str_radix(prev, 16)
                .map_err(|_| format!("ledger line {line_no}: bad prev hash `{prev}`"))?;
            let hash = u64::from_str_radix(hash, 16)
                .map_err(|_| format!("ledger line {line_no}: bad hash `{hash}`"))?;
            entries.push(LedgerEntry {
                seq,
                kind,
                payload: payload.to_string(),
                prev,
                hash,
            });
        }
        Ok(Ledger { entries })
    }

    /// Recompute the whole chain and report the first inconsistency:
    /// a gap or reordering in sequence numbers, a broken `prev` link, or
    /// an entry whose recorded hash does not match its contents.
    pub fn verify(&self) -> Result<(), String> {
        let mut prev = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            if e.seq != i as u64 {
                return Err(format!(
                    "entry {i}: sequence number {} (chain truncated or reordered)",
                    e.seq
                ));
            }
            if e.prev != prev {
                return Err(format!(
                    "entry {i}: prev hash {:016x} does not match predecessor's {prev:016x}",
                    e.prev
                ));
            }
            let expect = e.expected_hash();
            if e.hash != expect {
                return Err(format!(
                    "entry {i}: recorded hash {:016x} != recomputed {expect:016x} \
                     (payload altered?)",
                    e.hash
                ));
            }
            prev = e.hash;
        }
        Ok(())
    }
}

use crate::log::Verdict;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::DecisionKind;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn chain_round_trips_and_verifies() {
        let mut l = Ledger::new();
        l.record_policy_change(1, fnv1a(b"role r\n"));
        l.record_verdict(3.0, "n0", "read:r0@s1", &Verdict::granted().with_epoch(1));
        l.append(LedgerKind::Note, "episode seed=7 done");
        assert_eq!(l.len(), 3);
        l.verify().expect("fresh chain verifies");

        let text = l.render();
        let back = Ledger::parse(&text).expect("parses");
        assert_eq!(back.entries(), l.entries());
        back.verify().expect("parsed chain verifies");
    }

    #[test]
    fn tampering_is_detected() {
        let mut l = Ledger::new();
        l.record_policy_change(1, 42);
        l.record_policy_change(2, 43);
        l.record_policy_change(3, 44);
        let text = l.render();

        // Payload edit.
        let edited = text.replace("epoch=2", "epoch=9");
        let bad = Ledger::parse(&edited).unwrap();
        assert!(bad.verify().is_err(), "payload edit must break the chain");

        // Dropped middle line (truncation is caught by seq/prev checks).
        let dropped: String = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let bad = Ledger::parse(&dropped).unwrap();
        assert!(bad.verify().is_err(), "dropped entry must break the chain");

        // Swapped lines.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(0, 1);
        let swapped = lines.join("\n");
        let bad = Ledger::parse(&swapped).unwrap();
        assert!(bad.verify().is_err(), "reordering must break the chain");
    }

    #[test]
    fn payload_sanitization_keeps_lines_parseable() {
        let mut l = Ledger::new();
        l.append(LedgerKind::Note, "weird|payload\nwith breaks");
        let text = l.render();
        let back = Ledger::parse(&text).unwrap();
        back.verify().unwrap();
        assert_eq!(back.entries()[0].payload, "weird payload with breaks");
    }

    #[test]
    fn verdict_entries_carry_epochs() {
        let mut l = Ledger::new();
        let v = Verdict::denied(DecisionKind::DeniedSpatial, "count(0, 5, all)").with_epoch(4);
        l.record_verdict(1.5, "n1", "write:r1@s0", &v);
        let p = &l.entries()[0].payload;
        assert!(p.contains("verdict=denied-spatial"), "{p}");
        assert!(p.contains("epoch=4"), "{p}");
    }
}
