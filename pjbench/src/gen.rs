//! Input generation. Every tuple is `(key, payload)` on both sides and
//! its payload is its own position in the feed, so a joined tuple names
//! the two inputs that made it and latency can be charged to the later
//! one. Every feed ends with a wildcard punctuation on each side.

use punct_types::{Pattern, Punctuation, StreamElement, Timestamp, Timestamped, Tuple};
use stream_sim::Side;
use streamgen::{generate_pair, interleave_sides, StreamConfig};

/// Tuple width on both sides: `(key, payload)`.
pub const WIDTH: usize = 2;

/// An interleaved two-sided input, in push order.
pub struct Feed {
    pub elements: Vec<(Side, Timestamped<StreamElement>)>,
}

impl Feed {
    pub fn len(&self) -> usize {
        self.elements.len()
    }
}

/// splitmix64: a small seeded generator for the benchmark's own inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn wildcard() -> Punctuation {
    Punctuation::on_attr(WIDTH, 0, Pattern::Wildcard)
}

fn ends_in_wildcards(elements: &mut Vec<(Side, Timestamped<StreamElement>)>) {
    let ts = elements.last().map_or(Timestamp::ZERO, |(_, e)| e.ts);
    for side in [Side::Left, Side::Right] {
        elements.push((side, Timestamped::new(ts, wildcard().into())));
    }
}

/// How far behind the newest key the close-per-key shape closes.
pub const CLOSE_LAG: usize = 4;

/// The close-per-key shape: for each of `keys` distinct keys, one tuple
/// per side and one constant punctuation per side closing the key
/// [`CLOSE_LAG`] positions back. The seed draws the key values and the
/// order of the four elements of each group. Timestamps are feed
/// positions in µs.
pub fn close_per_key(keys: usize, seed: u64) -> Feed {
    let mut rng = Rng::new(seed);
    // Distinct keys in a seeded order: a random odd multiplier makes
    // i -> i * m + c a bijection on u32.
    let mul = rng.next_u64() | 1;
    let add = rng.next_u64();
    let key_of = |i: usize| ((i as u64).wrapping_mul(mul).wrapping_add(add) & 0xFFFF_FFFF) as i64;
    let mut elements = Vec::with_capacity(4 * keys + 2);
    // Each group member is a tuple key (`Ok`) or a punctuation (`Err`).
    let mut group: Vec<(Side, Result<i64, Punctuation>)> = Vec::with_capacity(4);
    for i in 0..keys {
        let k = key_of(i);
        group.clear();
        group.push((Side::Left, Ok(k)));
        group.push((Side::Right, Ok(k)));
        if i >= CLOSE_LAG {
            let closed = key_of(i - CLOSE_LAG);
            group.push((Side::Left, Err(Punctuation::close_value(WIDTH, 0, closed))));
            group.push((Side::Right, Err(Punctuation::close_value(WIDTH, 0, closed))));
        }
        // Fisher-Yates over the group.
        for j in (1..group.len()).rev() {
            group.swap(j, rng.below(j as u64 + 1) as usize);
        }
        for (side, member) in group.drain(..) {
            let at = elements.len();
            let item = match member {
                Ok(k) => Tuple::of((k, at as i64)).into(),
                Err(p) => p.into(),
            };
            elements.push((side, Timestamped::new(Timestamp(at as u64), item)));
        }
    }
    ends_in_wildcards(&mut elements);
    Feed { elements }
}

/// The paper's §4 generator (`streamgen`): Poisson arrivals with mean
/// gap `gap_us` per side, one constant punctuation per ~`punct_every`
/// tuples closing the oldest key of a sliding window of `key_window`
/// keys. Payloads are replaced by feed positions.
pub fn paper(
    tuples_per_side: usize,
    punct_every: f64,
    key_window: u64,
    gap_us: f64,
    seed: u64,
) -> Feed {
    let cfg = StreamConfig {
        tuple_mean_gap_us: gap_us,
        punct_mean_tuples: punct_every,
        tuples: tuples_per_side,
        key_window,
        payload_attrs: 1,
        seed,
        ..StreamConfig::default()
    };
    let (a, b) = generate_pair(&cfg, punct_every, punct_every);
    let mut elements = interleave_sides(&a.elements, &b.elements);
    for (at, (_, e)) in elements.iter_mut().enumerate() {
        if let StreamElement::Tuple(t) = &e.item {
            let key = t.values()[0].clone();
            e.item = Tuple::new(vec![key, punct_types::Value::Int(at as i64)]).into();
        }
    }
    ends_in_wildcards(&mut elements);
    Feed { elements }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_feed_and_payloads_are_positions() {
        for feed in [close_per_key(100, 7), paper(500, 8.0, 4, 2000.0, 7)] {
            for (at, (_, e)) in feed.elements.iter().enumerate() {
                if let Some(t) = e.item.as_tuple() {
                    assert_eq!(t.values()[1].as_int(), Some(at as i64));
                }
            }
            let n = feed.len();
            assert!(feed.elements[n - 2].1.item.is_punctuation());
            assert!(feed.elements[n - 1].1.item.is_punctuation());
        }
        let a = close_per_key(50, 3);
        let b = close_per_key(50, 3);
        let c = close_per_key(50, 4);
        let show = |f: &Feed| format!("{:?}", f.elements);
        assert_eq!(show(&a), show(&b));
        assert_ne!(show(&a), show(&c));
        assert_eq!(a.len(), 4 * 50 - 2 * CLOSE_LAG + 2);
        assert_eq!(
            a.elements.iter().filter(|(_, e)| e.item.is_tuple()).count(),
            100
        );
    }
}
