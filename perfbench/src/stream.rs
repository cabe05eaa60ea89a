//! Seeded operation streams and self-checking values.
//!
//! Every input the program sees is generated here from `--seed`: which
//! key each operation addresses (Zipfian rank), whether it reads or
//! writes, and the bytes it writes. A value encodes the rank of the key it
//! belongs to and the stream index of the write that produced it, so any
//! reply can be checked on its own: another key's bytes, a wrong length or
//! a torn value fail the check.

use hemlock_harness::{Mt19937, Zipf};

/// The shape of one workload's operation mix.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Key-space size; ranks are `0..keys`, rank 0 the hottest.
    pub keys: u64,
    /// Zipf skew of the key choice.
    pub theta: f64,
    /// Percentage of operations that write.
    pub write_pct: u32,
    /// Bytes per value.
    pub value_len: usize,
}

/// One generated operation. `index` is its position in the stream; a
/// write stores version `index + 1` (version 0 is the preload).
#[derive(Clone, Copy, Debug)]
pub struct GenOp {
    pub index: u64,
    pub rank: u64,
    pub write: bool,
}

impl GenOp {
    pub fn version(&self) -> u64 {
        self.index + 1
    }
}

/// The deterministic operation stream of one mix, one seed and one
/// stream number (threads of one workload draw separate streams).
pub struct OpStream {
    rng: Mt19937,
    zipf: Zipf,
    write_pct: u32,
    next: u64,
}

impl OpStream {
    pub fn new(mix: &Mix, seed: u64, stream: u64) -> Self {
        Self {
            rng: Mt19937::new(seed32(seed, stream)),
            zipf: Zipf::new(mix.keys, mix.theta).expect("workload mixes use a valid zipf"),
            write_pct: mix.write_pct,
            next: 0,
        }
    }

    pub fn next_op(&mut self) -> GenOp {
        let rank = self.zipf.sample(&mut self.rng);
        let write = self.rng.below(100) < self.write_pct;
        let index = self.next;
        self.next += 1;
        GenOp { index, rank, write }
    }

    pub fn take(&mut self, n: usize) -> Vec<GenOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

/// Folds a 64-bit seed and a stream number into the generator's 32-bit
/// seed (splitmix64 finalizer, so nearby seeds give unrelated streams).
fn seed32(seed: u64, stream: u64) -> u32 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

/// The 16-byte key of rank `rank` (db_bench's zero-padded decimal form).
pub fn key(rank: u64) -> [u8; 16] {
    hemlock_minikv::key_for(rank)
}

fn filler(rank: u64, version: u64, i: usize) -> u8 {
    (rank.wrapping_mul(31) ^ version.wrapping_mul(17)).wrapping_add(i as u64) as u8
}

/// The value written by version `version` of key `rank`: rank and version
/// as little-endian words, then filler derived from both.
pub fn value(rank: u64, version: u64, len: usize) -> Vec<u8> {
    assert!(len >= 16, "values carry a 16-byte header");
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&rank.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v.extend((16..len).map(|i| filler(rank, version, i)));
    v
}

/// Checks a value read back for key `rank`: expected length, the key's
/// own rank, a version no newer than any write issued so far, and intact
/// filler.
pub fn value_ok(bytes: &[u8], rank: u64, len: usize, max_version: u64) -> bool {
    if bytes.len() != len || len < 16 {
        return false;
    }
    let r = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
    let ver = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    r == rank
        && ver <= max_version
        && bytes[16..]
            .iter()
            .enumerate()
            .all(|(i, &b)| b == filler(rank, ver, i + 16))
}

/// Running checksum of the values a replay read, in stream order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xCBF2_9CE4_8422_2325)
    }
}

impl Checksum {
    fn mix(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds one read result: its length, header and last word — enough to
    /// tell any two values of this module apart without hashing every byte
    /// inside the timed loop.
    pub fn read(&mut self, value: Option<&[u8]>) {
        match value {
            None => self.mix(0xDEAD),
            Some(v) => {
                self.mix(v.len() as u64);
                for w in [&v[..8], &v[8..16], &v[v.len() - 8..]] {
                    self.mix(u64::from_le_bytes(w.try_into().expect("8 bytes")));
                }
            }
        }
    }

    pub fn get(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_check_themselves() {
        let v = value(7, 3, 100);
        assert!(value_ok(&v, 7, 100, 3));
        assert!(!value_ok(&v, 8, 100, 3), "another key's bytes");
        assert!(!value_ok(&v, 7, 100, 2), "a version never written");
        assert!(!value_ok(&v[..99], 7, 100, 3), "wrong length");
        let mut torn = v.clone();
        torn[50] ^= 1;
        assert!(!value_ok(&torn, 7, 100, 3));
    }

    #[test]
    fn streams_repeat_per_seed() {
        let mix = Mix {
            keys: 1024,
            theta: 0.99,
            write_pct: 10,
            value_len: 100,
        };
        let a: Vec<_> = OpStream::new(&mix, 1, 0).take(100);
        let b: Vec<_> = OpStream::new(&mix, 1, 0).take(100);
        let c: Vec<_> = OpStream::new(&mix, 2, 0).take(100);
        let key = |v: &[GenOp]| v.iter().map(|o| (o.rank, o.write)).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }
}
