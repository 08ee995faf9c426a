//! Output checks made apart from the program: a hash join of the inputs
//! computed by the benchmark, compared by count and by an
//! order-independent digest accumulated as outputs arrive, plus the
//! punctuation rules: no output punctuation is invented or emitted
//! twice, no joined tuple follows an output punctuation that matches
//! it, and, since every feed ends in wildcards, every input punctuation
//! is emitted. Outputs are checked and dropped; nothing the checker
//! keeps grows with the number of outputs.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use punct_types::{Pattern, StreamElement, Value};
use stream_sim::Side;

use crate::gen::{Feed, WIDTH};
use crate::stats::{DueTimes, Histogram};

/// A multiplicative hasher for the benchmark's own `i64` key maps; the
/// default SipHash would dominate the per-output check.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }
    fn write_i64(&mut self, v: i64) {
        self.0 = mix(self.0 ^ v as u64);
    }
}

type KeyMap<V> = HashMap<i64, V, BuildHasherDefault<KeyHasher>>;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent digest of a multiset of joined tuples: a count and
/// two wrapping sums of independent row hashes. A row is `(k, l, k, r)`,
/// key and the two inputs' feed positions; positions are below 2^32, so
/// one word holds both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    sum_a: u64,
    sum_b: u64,
}

impl Digest {
    fn add(&mut self, k: i64, l: i64, r: i64) {
        let h = mix(mix(l as u64 | (r as u64) << 32) ^ k as u64);
        self.count += 1;
        self.sum_a = self.sum_a.wrapping_add(h);
        self.sum_b = self.sum_b.wrapping_add(mix(h ^ 0xA5A5_A5A5_A5A5_A5A5));
    }
}

const LEFT: usize = 0;
const RIGHT: usize = 1;

fn side_index(side: Side) -> usize {
    match side {
        Side::Left => LEFT,
        Side::Right => RIGHT,
    }
}

/// Per join key: the feed position of each side's closing punctuation
/// and the key's slot in the checker's emitted flags.
#[derive(Clone, Copy)]
struct KeyInfo {
    closing: [Option<usize>; 2],
    slot: usize,
}

/// `Reference::slot_at` of an element whose key no constant
/// punctuation closes, or that is not a tuple.
const NO_SLOT: u32 = u32::MAX;

/// What the program must produce for one feed.
pub struct Reference {
    expected: Digest,
    keys: KeyMap<KeyInfo>,
    /// Per feed position: the key slot of the tuple there, so that a
    /// joined tuple, which names its inputs' positions, finds its key's
    /// emitted flags without a hash lookup.
    slot_at: Vec<u32>,
    /// Feed positions of the closing wildcards, left then right.
    wildcards: [usize; 2],
    puncts: usize,
    feed_len: usize,
}

impl Reference {
    /// Computes the join of `feed` with a hash join of its own.
    pub fn new(feed: &Feed) -> Reference {
        assert!(feed.len() < 1 << 32, "feed positions fit in 32 bits");
        let mut by_key: [KeyMap<Vec<i64>>; 2] = Default::default();
        let mut keys: KeyMap<KeyInfo> = KeyMap::default();
        let mut wildcards = [usize::MAX; 2];
        let mut puncts = 0;
        for (at, (side, e)) in feed.elements.iter().enumerate() {
            let s = side_index(*side);
            match &e.item {
                StreamElement::Tuple(t) => {
                    let k = t.values()[0].as_int().expect("integer keys");
                    by_key[s].entry(k).or_default().push(at as i64);
                }
                StreamElement::Punctuation(p) => match p.pattern(0) {
                    Some(Pattern::Constant(Value::Int(k))) => {
                        let next = keys.len();
                        let info = keys.entry(*k).or_insert(KeyInfo {
                            closing: [None; 2],
                            slot: next,
                        });
                        assert!(
                            info.closing[s].is_none(),
                            "each key is closed once per side"
                        );
                        info.closing[s] = Some(at);
                        puncts += 1;
                    }
                    Some(Pattern::Wildcard) => wildcards[s] = at,
                    other => panic!("generators emit constants and wildcards only: {other:?}"),
                },
            }
        }
        assert!(
            wildcards.iter().all(|&w| w != usize::MAX),
            "every feed ends in wildcards"
        );
        let mut slot_at = vec![NO_SLOT; feed.len()];
        for (k, positions) in by_key.iter().flatten() {
            if let Some(info) = keys.get(k) {
                for &at in positions {
                    slot_at[at as usize] = info.slot as u32;
                }
            }
        }
        let mut expected = Digest::default();
        for (k, lefts) in &by_key[LEFT] {
            if let Some(rights) = by_key[RIGHT].get(k) {
                for &l in lefts {
                    for &r in rights {
                        expected.add(*k, l, r);
                    }
                }
            }
        }
        Reference {
            expected,
            keys,
            slot_at,
            wildcards,
            puncts: puncts + 2,
            feed_len: feed.len(),
        }
    }
}

/// Joined tuples per recorded result latency, in traced and untraced
/// runs alike, so that the traced run's `bench.check_ns` is what the
/// check costs an untraced run. On the probe-heavy feed results
/// outnumber inputs ~19 to 1, and pricing each would make the
/// benchmark's own work a large share of what a run times.
const RESULT_EVERY: u64 = 16;

/// Latency samples of one run, in ns: every punctuation's and every
/// [`RESULT_EVERY`]-th joined tuple's.
#[derive(Default)]
pub struct Latencies {
    pub result: Histogram,
    pub punct: Histogram,
    results: u64,
}

impl Latencies {
    /// Whether the next result's latency is recorded.
    #[inline]
    fn wants_result(&mut self) -> bool {
        self.results += 1;
        self.results.is_multiple_of(RESULT_EVERY)
    }

    pub fn clear(&mut self) {
        self.result.clear();
        self.punct.clear();
        self.results = 0;
    }
}

/// Checks one round's outputs against a [`Reference`] as they arrive.
pub struct Checker<'r> {
    reference: &'r Reference,
    seen: Digest,
    /// Per key slot: bit 0 = left closing punctuation emitted, bit 1 =
    /// right. Sized up front so checking allocates nothing.
    emitted: Vec<u8>,
    wildcards_emitted: usize,
    puncts_emitted: usize,
}

impl<'r> Checker<'r> {
    pub fn new(reference: &'r Reference) -> Checker<'r> {
        Checker {
            reference,
            seen: Digest::default(),
            emitted: vec![0; reference.keys.len()],
            wildcards_emitted: 0,
            puncts_emitted: 0,
        }
    }

    /// Starts a new round, keeping the allocations.
    pub fn reset(&mut self) {
        self.seen = Digest::default();
        self.emitted.fill(0);
        self.wildcards_emitted = 0;
        self.puncts_emitted = 0;
    }

    /// Checks one output received at `now` (ns into the round) and
    /// records its latency against the due times of its inputs.
    pub fn on_output(
        &mut self,
        element: &StreamElement,
        now: u64,
        due: &DueTimes,
        lat: &mut Latencies,
    ) -> Result<(), String> {
        match element {
            StreamElement::Tuple(t) => {
                let v = t.values();
                let row = match v {
                    [Value::Int(a), Value::Int(b), Value::Int(c), Value::Int(d)] => {
                        [*a, *b, *c, *d]
                    }
                    _ => return Err(format!("joined tuple of unexpected shape: {t:?}")),
                };
                let [k, l, k2, r] = row;
                let n = self.reference.feed_len as i64;
                if k != k2 || !(0..n).contains(&l) || !(0..n).contains(&r) {
                    return Err(format!("joined tuple that no input pair makes: {row:?}"));
                }
                if self.wildcards_emitted > 0 {
                    return Err(format!("joined tuple {row:?} after a wildcard punctuation"));
                }
                let slot = self.reference.slot_at[l as usize];
                if slot != NO_SLOT && self.emitted[slot as usize] != 0 {
                    return Err(format!(
                        "joined tuple {row:?} after its closing punctuation"
                    ));
                }
                self.seen.add(k, l, r);
                if lat.wants_result() {
                    lat.result
                        .record(due.latency([l as usize, r as usize], now));
                }
                Ok(())
            }
            StreamElement::Punctuation(p) => {
                let patterns = p.patterns();
                if patterns.len() != 2 * WIDTH {
                    return Err(format!("output punctuation of width {}", patterns.len()));
                }
                let mut fixed = (0..patterns.len()).filter(|&i| patterns[i] != Pattern::Wildcard);
                let inputs: [usize; 2] = match (fixed.next(), fixed.next()) {
                    (None, _) => {
                        if self.wildcards_emitted == 2 {
                            return Err("wildcard punctuation emitted more than twice".into());
                        }
                        self.wildcards_emitted += 1;
                        self.reference.wildcards
                    }
                    (Some(attr), None) if attr == 0 || attr == WIDTH => {
                        let side = attr / WIDTH;
                        let Pattern::Constant(Value::Int(k)) = &patterns[attr] else {
                            return Err(format!("invented output punctuation {p:?}"));
                        };
                        let Some(info) = self.reference.keys.get(k) else {
                            return Err(format!("invented output punctuation {p:?}"));
                        };
                        if info.closing[side].is_none() {
                            return Err(format!("invented output punctuation {p:?}"));
                        }
                        let bit = 1u8 << side;
                        if self.emitted[info.slot] & bit != 0 {
                            return Err(format!("output punctuation {p:?} emitted twice"));
                        }
                        self.emitted[info.slot] |= bit;
                        // A side that never closes the key with a
                        // constant closes it with its final wildcard.
                        let w = &self.reference.wildcards;
                        [
                            info.closing[0].unwrap_or(w[0]),
                            info.closing[1].unwrap_or(w[1]),
                        ]
                    }
                    _ => return Err(format!("invented output punctuation {p:?}")),
                };
                self.puncts_emitted += 1;
                let pushed = inputs.into_iter().filter(|&i| due.is_pushed(i));
                lat.punct.record(due.latency(pushed, now));
                Ok(())
            }
        }
    }

    /// Checks completeness once the program has finished.
    pub fn finish(&self) -> Result<(), String> {
        let expected = &self.reference.expected;
        if self.seen.count != expected.count {
            return Err(format!(
                "{} joined tuples, the reference join has {}",
                self.seen.count, expected.count
            ));
        }
        if self.seen != *expected {
            return Err("joined tuples differ from the reference join".into());
        }
        if self.puncts_emitted != self.reference.puncts {
            return Err(format!(
                "{} of {} input punctuations emitted",
                self.puncts_emitted, self.reference.puncts
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::close_per_key;
    use pjoin::{PJoin, PJoinConfig};
    use stream_sim::{BinaryStreamOp, OpOutput};

    /// A correct output stream, produced by the program.
    fn correct_outputs(feed: &Feed) -> Vec<StreamElement> {
        let mut op = PJoin::new(PJoinConfig::new(WIDTH, WIDTH));
        let mut out = OpOutput::new();
        let mut all = Vec::new();
        for (side, e) in &feed.elements {
            op.on_element(*side, e.item.clone(), e.ts, &mut out);
            all.extend(out.drain());
        }
        while op.on_end(feed.elements.last().unwrap().1.ts, &mut out) {}
        all.extend(out.drain());
        all
    }

    fn check(feed: &Feed, outputs: &[StreamElement]) -> Result<(), String> {
        let reference = Reference::new(feed);
        let mut checker = Checker::new(&reference);
        let mut due = DueTimes::on_push(feed.len());
        for i in 0..feed.len() {
            due.push(i, i as u64);
        }
        let mut lat = Latencies::default();
        for e in outputs {
            checker.on_output(e, feed.len() as u64, &due, &mut lat)?;
        }
        checker.finish()
    }

    fn position(outputs: &[StreamElement], f: impl Fn(&StreamElement) -> bool) -> usize {
        outputs.iter().position(f).expect("element present")
    }

    #[test]
    fn records_every_nth_result_latency() {
        let mut lat = Latencies::default();
        let n = 10 * RESULT_EVERY as usize;
        let recorded = (0..n).filter(|_| lat.wants_result()).count();
        assert_eq!(recorded, 10);
        lat.clear();
        assert!(!lat.wants_result(), "the count restarts with the round");
    }

    #[test]
    fn accepts_the_program_output() {
        let feed = close_per_key(200, 1);
        let out = correct_outputs(&feed);
        assert_eq!(Reference::new(&feed).expected.count, 200);
        check(&feed, &out).unwrap();
    }

    #[test]
    fn rejects_a_dropped_result() {
        let feed = close_per_key(200, 2);
        let mut out = correct_outputs(&feed);
        let i = position(&out, StreamElement::is_tuple);
        out.remove(i);
        assert!(check(&feed, &out).unwrap_err().contains("joined tuples"));
    }

    #[test]
    fn rejects_a_changed_result() {
        let feed = close_per_key(200, 3);
        let mut out = correct_outputs(&feed);
        let i = position(&out, StreamElement::is_tuple);
        let j = out[i + 1..]
            .iter()
            .position(StreamElement::is_tuple)
            .unwrap()
            + i
            + 1;
        // Same count, one tuple duplicated in place of another.
        out[j] = out[i].clone();
        assert!(check(&feed, &out).unwrap_err().contains("differ"));
    }

    #[test]
    fn rejects_a_duplicated_punctuation() {
        let feed = close_per_key(200, 4);
        let mut out = correct_outputs(&feed);
        let i = position(&out, StreamElement::is_punctuation);
        out.insert(i + 1, out[i].clone());
        assert!(check(&feed, &out).unwrap_err().contains("twice"));
    }

    #[test]
    fn rejects_a_result_after_its_closing_punctuation() {
        let feed = close_per_key(200, 5);
        let mut out = correct_outputs(&feed);
        let i = position(&out, StreamElement::is_punctuation);
        let key = out[i]
            .as_punctuation()
            .unwrap()
            .patterns()
            .iter()
            .find_map(|p| match p {
                Pattern::Constant(Value::Int(k)) => Some(*k),
                _ => None,
            });
        let j = position(&out, |e| {
            e.as_tuple().is_some_and(|t| t.values()[0].as_int() == key)
        });
        assert!(j < i, "the key's result precedes its punctuation");
        let result = out.remove(j);
        out.insert(i, result);
        assert!(check(&feed, &out)
            .unwrap_err()
            .contains("after its closing"));
    }

    #[test]
    fn rejects_invented_and_missing_punctuations() {
        let feed = close_per_key(200, 6);
        let mut out = correct_outputs(&feed);
        let mut invented = out.clone();
        invented.insert(
            0,
            punct_types::Punctuation::close_value(2 * WIDTH, 0, -1i64).into(),
        );
        assert!(check(&feed, &invented).unwrap_err().contains("invented"));
        let i = position(&out, StreamElement::is_punctuation);
        out.remove(i);
        assert!(check(&feed, &out)
            .unwrap_err()
            .contains("punctuations emitted"));
    }
}
