//! Sharded concurrent maps and single-flight coalescing — the
//! concurrency substrate under [`crate::search::SearchContext`]'s caches.
//!
//! Two primitives live here:
//!
//! * [`ShardedMap`] — a hash map split over [`SHARDS`] independent
//!   `RwLock`ed shards, so concurrent solvers touching *different* keys
//!   (different models through one [`crate::pool::ContextPool`], or
//!   different candidates of one batch) stop serializing on a single
//!   lock. Lock acquisitions first `try_lock`; a failed try is counted
//!   as one observed **wait** before blocking, which is the
//!   `shard_waits` statistic [`crate::search::SearchStats`] surfaces.
//! * [`FlightTable`] — single-flight claims per key. When N concurrent
//!   solves miss on the same key, exactly one claimant becomes the
//!   **leader** (and computes), the rest become **followers** that park
//!   on the in-flight [`Flight`] — helping the shared runtime drain
//!   tasks while they wait, so a follower never convoys behind the
//!   leader's own fan-out — and then observe the identical stored value.
//!
//! Both hash with [`WordHasher`]: their keys are small fixed-shape
//! records built by the solver, never strings from clients, so a
//! multiply-rotate word hash does the work of SipHash at a fraction of
//! the cost, and one hash value picks both the shard (top bits) and the
//! bucket inside it (low bits).
//!
//! The leader's claim is a [`FlightLease`]: dropping it (normally or by
//! panic) retires the flight and wakes every follower. Followers
//! re-check the destination cache after waking; a leader that died
//! without publishing simply leaves the key missing, and the retry loop
//! in the caller elects a new leader.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Duration;

/// Number of independent shards (a power of two; shard choice takes the
/// top hash bits so it stays independent of `HashMap`'s bucket bits).
pub const SHARDS: usize = 16;

/// How long a follower sleeps between help attempts when the runtime has
/// nothing to steal. Short enough that a completed flight is observed
/// promptly even if the wake-up notification raced the sleep.
const FOLLOWER_NAP: Duration = Duration::from_micros(200);

/// A dependency-free hasher for the solver's internal cache keys: each
/// machine word is folded in with one rotate, xor and multiply, and
/// [`Hasher::finish`] folds the well-mixed high half down into the low
/// bits `HashMap` picks buckets by. It is not DoS-resistant; keys that
/// come from clients (such as `temp-serve`'s pool names) stay on SipHash.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

/// Odd multiplier of [`WordHasher`] (2^64 over the golden ratio).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(WORD_MUL);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The [`BuildHasher`] of every map keyed by [`WordHasher`].
pub type WordBuildHasher = BuildHasherDefault<WordHasher>;

/// A `HashMap` hashed by [`WordHasher`].
pub type WordHashMap<K, V> = HashMap<K, V, WordBuildHasher>;

/// The shard a hash value lands in: its top bits, which stay independent
/// of the low bits `HashMap` picks buckets by.
fn shard_of_hash(hash: u64) -> usize {
    (hash >> 60) as usize & (SHARDS - 1)
}

fn shard_of<K: Hash>(key: &K) -> usize {
    shard_of_hash(WordBuildHasher::default().hash_one(key))
}

/// A concurrent map over [`SHARDS`] `RwLock`ed shards with contention
/// accounting: every lock acquisition that could not be satisfied
/// immediately counts one wait in [`ShardedMap::waits`].
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<WordHashMap<K, V>>>,
    waits: AtomicU64,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            waits: AtomicU64::new(0),
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, WordHashMap<K, V>> {
        match self.shards[i].try_read() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.waits.fetch_add(1, Ordering::Relaxed);
                self.shards[i].read().expect("shard lock")
            }
            Err(TryLockError::Poisoned(_)) => panic!("shard lock poisoned"),
        }
    }

    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, WordHashMap<K, V>> {
        match self.shards[i].try_write() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.waits.fetch_add(1, Ordering::Relaxed);
                self.shards[i].write().expect("shard lock")
            }
            Err(TryLockError::Poisoned(_)) => panic!("shard lock poisoned"),
        }
    }

    /// A clone of the value under `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.read_shard(shard_of(key)).get(key).cloned()
    }

    /// Inserts `value` unless `key` is already present; either way,
    /// returns a clone of the value the map holds afterwards. Stored
    /// entries win races, so every observer of a key sees one consistent
    /// value.
    pub fn insert_if_absent(&self, key: K, value: V) -> V {
        let shard = shard_of(&key);
        self.write_shard(shard).entry(key).or_insert(value).clone()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.read_shard(i).len()).sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every entry (shard by shard — concurrent
    /// inserts between shards may or may not be included). Callers that
    /// need deterministic output sort the result; shard order never
    /// leaks.
    pub fn snapshot(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for i in 0..SHARDS {
            let shard = self.read_shard(i);
            out.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Lock acquisitions that found the shard contended (had to block).
    pub fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// The value under `key`, built at most once across concurrent
    /// callers: the first claimant of `key` in `flights` runs `build`,
    /// publishes its value and retires the flight; concurrent claimants
    /// wait on the flight (calling `help` meanwhile, see [`Flight::wait`])
    /// and read the stored value. Returns the value and, when this call
    /// built it, `build`'s by-product.
    pub fn get_or_build<T>(
        &self,
        flights: &FlightTable<K>,
        key: K,
        mut help: impl FnMut() -> bool,
        build: impl FnOnce() -> (V, T),
    ) -> (V, Option<T>) {
        let mut build = Some(build);
        loop {
            if let Some(stored) = self.get(&key) {
                return (stored, None);
            }
            match flights.claim(key.clone()) {
                Claim::Leader(lease) => {
                    // A previous leader may have published between the
                    // miss and the claim.
                    if let Some(stored) = self.get(&key) {
                        return (stored, None);
                    }
                    let (value, extra) = (build.take().expect("one build per call"))();
                    let stored = self.insert_if_absent(key, value);
                    drop(lease);
                    return (stored, Some(extra));
                }
                // Loop: the leader published (next peek hits), or died
                // without publishing (we claim leadership).
                Claim::Follower(flight) => flight.wait(&mut help),
            }
        }
    }
}

/// One in-flight computation: followers park on it until the leader's
/// [`FlightLease`] retires it.
#[derive(Debug, Default)]
pub struct Flight {
    done: Mutex<bool>,
    wake: Condvar,
}

impl Flight {
    /// Whether the leader has retired this flight.
    pub fn is_done(&self) -> bool {
        *self.done.lock().expect("flight lock")
    }

    fn finish(&self) {
        *self.done.lock().expect("flight lock") = true;
        self.wake.notify_all();
    }

    /// Parks until the flight retires. `help` is invoked whenever the
    /// flight is still running; it should try to execute one unit of
    /// useful work (e.g. [`crate::runtime::WorkPool::help_one`] on the
    /// shared runtime) and return whether it did. While the leader's own
    /// fan-out occupies the runtime, followers drain it instead of
    /// convoying; once there is nothing to steal they nap briefly on the
    /// flight's condvar.
    pub fn wait(&self, mut help: impl FnMut() -> bool) {
        loop {
            {
                let done = self.done.lock().expect("flight lock");
                if *done {
                    return;
                }
            }
            if help() {
                continue;
            }
            let done = self.done.lock().expect("flight lock");
            if *done {
                return;
            }
            let (done, _timeout) = self
                .wake
                .wait_timeout(done, FOLLOWER_NAP)
                .expect("flight lock");
            if *done {
                return;
            }
        }
    }
}

/// The leader's claim on a key. Dropping the lease — after publishing
/// the computed value, or because the computation panicked — removes the
/// flight from its table and wakes every follower.
#[derive(Debug)]
pub struct FlightLease<'t, K: Hash + Eq + Clone> {
    table: &'t FlightTable<K>,
    key: K,
    flight: Arc<Flight>,
}

impl<K: Hash + Eq + Clone> Drop for FlightLease<'_, K> {
    fn drop(&mut self) {
        let mut shard = self.table.shards[shard_of(&self.key)]
            .lock()
            .expect("flight table lock");
        if let Some(current) = shard.get(&self.key) {
            if Arc::ptr_eq(current, &self.flight) {
                shard.remove(&self.key);
            }
        }
        drop(shard);
        self.flight.finish();
    }
}

/// The outcome of [`FlightTable::claim`].
pub enum Claim<'t, K: Hash + Eq + Clone> {
    /// No one is computing this key: the caller must compute it, publish
    /// the result, then drop the lease.
    Leader(FlightLease<'t, K>),
    /// Another thread is computing this key: park on the flight (see
    /// [`Flight::wait`]), then re-read the destination cache.
    Follower(Arc<Flight>),
}

/// Per-key single-flight claims, sharded like [`ShardedMap`].
#[derive(Debug)]
pub struct FlightTable<K> {
    shards: Vec<Mutex<WordHashMap<K, Arc<Flight>>>>,
}

impl<K> Default for FlightTable<K> {
    fn default() -> Self {
        FlightTable {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }
}

impl<K: Hash + Eq + Clone> FlightTable<K> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims `key`: the first claimant becomes the leader, concurrent
    /// claimants follow the leader's flight.
    pub fn claim(&self, key: K) -> Claim<'_, K> {
        let mut shard = self.shards[shard_of(&key)]
            .lock()
            .expect("flight table lock");
        match shard.get(&key) {
            Some(flight) => Claim::Follower(Arc::clone(flight)),
            None => {
                let flight = Arc::new(Flight::default());
                shard.insert(key.clone(), Arc::clone(&flight));
                Claim::Leader(FlightLease {
                    table: self,
                    key,
                    flight,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn insert_if_absent_keeps_the_stored_entry() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        assert_eq!(map.get(&7), None);
        assert_eq!(map.insert_if_absent(7, 70), 70);
        assert_eq!(map.insert_if_absent(7, 71), 70, "stored entries win");
        assert_eq!(map.get(&7), Some(70));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn snapshot_covers_every_shard() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        for k in 0..1000u64 {
            map.insert_if_absent(k, k * 2);
        }
        assert_eq!(map.len(), 1000);
        let mut snap = map.snapshot();
        snap.sort_unstable();
        assert_eq!(snap.len(), 1000);
        assert!(snap.iter().all(|&(k, v)| v == k * 2));
        // With 1000 keys over 16 shards, every shard must be populated —
        // this is the guard against a degenerate shard function.
        let used: std::collections::HashSet<usize> = (0..1000u64).map(|k| shard_of(&k)).collect();
        assert_eq!(used.len(), SHARDS);
    }

    #[test]
    fn word_hasher_spreads_candidate_keys_over_every_shard() {
        use temp_graph::workload::RecomputeMode;
        use temp_mapping::engines::MappingEngine;
        let candidates = crate::search::SearchContext::enumerate_base_candidates(128);
        let mut per_shard = [0usize; SHARDS];
        for cfg in &candidates {
            for engine in [
                MappingEngine::SMap,
                MappingEngine::GMap,
                MappingEngine::Tcme,
            ] {
                per_shard[shard_of(&(*cfg, engine, RecomputeMode::Selective))] += 1;
            }
        }
        let keys = 3 * candidates.len();
        assert!(keys >= 16 * SHARDS, "{keys} keys");
        // Every shard is used, and none holds more than twice its share.
        assert!(
            per_shard.iter().all(|&n| n > 0 && n <= 2 * keys / SHARDS),
            "{per_shard:?}"
        );
    }

    #[test]
    fn word_hasher_mixes_high_bits_into_the_bucket_bits() {
        // Keys that differ only in one small field must differ in the low
        // bits `HashMap` masks buckets with, not just in the top bits.
        let low: std::collections::HashSet<u64> = (0..64u64)
            .map(|k| WordBuildHasher::default().hash_one((k, 7u8)) & 0xff)
            .collect();
        assert!(low.len() > 40, "{} distinct low bytes", low.len());
    }

    #[test]
    fn single_flight_elects_one_leader_per_key() {
        let table: FlightTable<u32> = FlightTable::new();
        let first = table.claim(5);
        let Claim::Leader(lease) = first else {
            panic!("first claim must lead");
        };
        let Claim::Follower(flight) = table.claim(5) else {
            panic!("second claim must follow");
        };
        assert!(!flight.is_done());
        // A different key is independent.
        assert!(matches!(table.claim(6), Claim::Leader(_)));
        drop(lease);
        assert!(flight.is_done(), "dropping the lease retires the flight");
        // The key is claimable again (e.g. after an abandoned leader).
        assert!(matches!(table.claim(5), Claim::Leader(_)));
    }

    #[test]
    fn followers_wake_even_when_the_leader_panics() {
        let table: Arc<FlightTable<u32>> = Arc::new(FlightTable::new());
        let Claim::Leader(lease) = table.claim(9) else {
            panic!("first claim must lead");
        };
        let Claim::Follower(flight) = table.claim(9) else {
            panic!("second claim must follow");
        };
        let helps = AtomicUsize::new(0);
        let waiter = std::thread::spawn({
            let flight = Arc::clone(&flight);
            move || {
                flight.wait(|| {
                    helps.fetch_add(1, Ordering::Relaxed);
                    false
                })
            }
        });
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = lease;
            panic!("leader dies mid-computation");
        }));
        waiter.join().expect("follower must wake, not hang");
        assert!(matches!(table.claim(9), Claim::Leader(_)));
    }
}
