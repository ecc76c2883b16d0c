//! Support shared by the integration-test targets: a seeded generator, unique
//! scratch directories, the differential oracles' op generator and model
//! ([`oracle`]) and the spouse KB the serving tests run ([`spouses`]).

// Each test target compiles this module and uses its own subset of it.
#![allow(dead_code)]

pub mod oracle;
pub mod spouses;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic splitmix64 generator: no external crates, same sequence on
/// every platform.
pub struct Rng(pub u64);

impl Rng {
    /// The stream of `seed` under a harness's `salt`.
    pub fn seeded(seed: u64, salt: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// A path under the system temp directory that no other process and no other
/// call of this process gets; whatever a crashed run left there is removed.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dd-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
