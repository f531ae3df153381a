//! Digests of simulated statistics, and the digests recorded for the
//! default and the hold-out seed. A change meant only to make the
//! simulator faster must leave every simulated statistic identical, so
//! it must leave these digests unchanged.

use gvf_sim::Stats;

/// The recorded digests, one `workload seed digest` line each.
const RECORDED: &str = include_str!("../digests.txt");

/// The hold-out seed: recorded alongside the default seed, so a claim
/// can be checked on a seed that was not used while writing a change.
pub const HOLDOUT_SEED: u64 = 0xbeef;

/// Streaming FNV-1a (64-bit).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a sequence of cells' statistics, in cell order. A failed
/// cell is passed as `None` and still moves the digest.
pub fn stats_digest<'a>(cells: impl IntoIterator<Item = Option<&'a Stats>>) -> u64 {
    let mut h = Fnv::default();
    for s in cells {
        match s {
            Some(s) => h.push(format!("{s:?}").as_bytes()),
            None => h.push(b"failed"),
        }
        h.push(b"\n");
    }
    h.value()
}

/// The digest recorded for `workload` at `seed`, if any.
pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Whether `digest` agrees with the record for `(workload, seed)`.
/// Seeds without a record pass; the digest goes to stderr so it can be
/// recorded.
pub fn matches_record(workload: &str, seed: u64, digest: u64) -> bool {
    match recorded(workload, seed) {
        Some(want) if want != digest => {
            eprintln!(
                "[perfbench] {workload} seed {seed}: stats digest {digest:016x}, recorded {want:016x}"
            );
            false
        }
        Some(_) => true,
        None => {
            eprintln!("[perfbench] {workload} seed {seed}: stats digest {digest:016x} (no record)");
            true
        }
    }
}
