//! The `ExecPlan` cache: load and lower each model once, amortize it
//! across every job the daemon serves.
//!
//! Entries are keyed by a 64-bit **content hash** of the model source
//! text ([`content_hash`], FNV-1a — no external crates) mixed with the
//! requested optimization level ([`cache_key`]), so two clients
//! submitting the same model text at the same level share one parsed
//! [`RtModel`] and one compiled [`OptPlan`] (the lowered plan plus its
//! micro-op stream) regardless of file paths — and a level change can
//! never serve a stream compiled under different pass toggles. Eviction is
//! least-recently-used with a fixed capacity; hit/miss/eviction counters
//! (total and per level) are surfaced through [`PlanCache::stats`] and
//! the daemon's `{"op":"stats"}` job, so `BENCH_serve.json` and
//! operators read the same numbers.
//!
//! Build failures are **not** cached: a malformed model answers with an
//! error and leaves the cache untouched, so a typo cannot evict a warm
//! plan.

use std::sync::Arc;

use clockless_core::plan::ExecPlan;
use clockless_core::{ExecOptions, ExecOutcome, OptLevel, OptPlan, RtModel};
use clockless_kernel::KernelError;

/// One cached model: the parsed [`RtModel`] and its lowered plan
/// compiled to the micro-op stream of its level, shared between jobs via
/// [`Arc`].
#[derive(Debug)]
pub struct CachedPlan {
    /// The parsed, validated model.
    pub model: RtModel,
    /// The level the entry was compiled at (part of the cache key).
    pub opt: OptLevel,
    /// The lowered plan and its stream, compiled at `opt`.
    pub compiled: OptPlan,
}

impl CachedPlan {
    /// Walks the cached stream. Observables are byte-identical at every
    /// level.
    ///
    /// # Errors
    ///
    /// Exactly [`OptPlan::execute`]'s.
    pub fn execute(&self, options: &ExecOptions) -> Result<ExecOutcome, KernelError> {
        self.compiled.execute(options)
    }
}

/// Counter snapshot of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to parse + lower.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Per-level `(hits, misses)`, indexed like [`OptLevel::ALL`] —
    /// the totals above are their sums.
    pub by_level: [(u64, u64); 3],
}

struct Entry {
    key: u64,
    /// Monotonic last-use stamp; the smallest stamp is evicted first.
    stamp: u64,
    plan: Arc<CachedPlan>,
}

/// A capacity-bounded, least-recently-used cache of lowered execution
/// plans.
///
/// # Examples
///
/// ```
/// use clockless_core::text::parse_model;
/// use clockless_core::OptLevel;
/// use clockless_serve::cache::{cache_key, PlanCache};
///
/// let text = "model tiny steps 1\nregister R init 3\n";
/// let mut cache = PlanCache::new(8);
/// let key = cache_key(text.as_bytes(), false, OptLevel::O2);
/// let first = cache.get_or_insert(key, OptLevel::O2, || {
///     parse_model(text).map_err(|e| e.to_string())
/// })?;
/// let second =
///     cache.get_or_insert(key, OptLevel::O2, || unreachable!("warm key never rebuilds"))?;
/// assert_eq!(first.model.name(), second.model.name());
/// assert_eq!(second.compiled.config(), OptLevel::O2.config());
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().by_level[2], (1, 1));
/// # Ok::<(), String>(())
/// ```
pub struct PlanCache {
    entries: Vec<Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Per-level `(hits, misses)`, indexed like [`OptLevel::ALL`].
    by_level: [(u64, u64); 3],
}

/// FNV-1a content hash of model source text.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The full cache key: content hash mixed with the source flavor (VHDL
/// sources parse differently from the same bytes) and the optimization
/// level (each level caches its own compiled artifact).
pub fn cache_key(bytes: &[u8], vhdl: bool, opt: OptLevel) -> u64 {
    // Golden-ratio multiples keep the three level keys far apart.
    content_hash(bytes) ^ u64::from(vhdl) ^ (opt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (clamped to at
    /// least one — a cache that can hold nothing would make every lookup
    /// a miss *and* an eviction).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            by_level: [(0, 0); 3],
        }
    }

    /// Looks up `key`, building (parse via `build`, lower, then compile
    /// the stream for `opt`) and inserting on a miss. The LRU entry is
    /// evicted when the cache is full. `opt` must be the level `key` was
    /// derived with ([`cache_key`]) — it selects the compiled artifact
    /// and attributes the per-level counters.
    ///
    /// # Errors
    ///
    /// The `build` error, verbatim. Failures are not cached.
    pub fn get_or_insert(
        &mut self,
        key: u64,
        opt: OptLevel,
        build: impl FnOnce() -> Result<RtModel, String>,
    ) -> Result<Arc<CachedPlan>, String> {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.stamp = self.tick;
            self.hits += 1;
            self.by_level[opt as usize].0 += 1;
            return Ok(Arc::clone(&e.plan));
        }
        self.misses += 1;
        self.by_level[opt as usize].1 += 1;
        let model = build()?;
        let compiled = OptPlan::from_plan(ExecPlan::lower(&model), opt.config());
        let cached = Arc::new(CachedPlan {
            model,
            opt,
            compiled,
        });
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("full cache has entries");
            self.entries.swap_remove(lru);
            self.evictions += 1;
        }
        self.entries.push(Entry {
            key,
            stamp: self.tick,
            plan: Arc::clone(&cached),
        });
        Ok(cached)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            capacity: self.capacity,
            by_level: self.by_level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockless_core::text::parse_model;

    fn model_text(i: usize) -> String {
        format!("model m{i} steps 1\nregister R init {i}\n")
    }

    fn insert(cache: &mut PlanCache, i: usize) -> Arc<CachedPlan> {
        insert_at(cache, i, OptLevel::O2)
    }

    fn insert_at(cache: &mut PlanCache, i: usize, opt: OptLevel) -> Arc<CachedPlan> {
        let text = model_text(i);
        cache
            .get_or_insert(cache_key(text.as_bytes(), false, opt), opt, || {
                parse_model(&text).map_err(|e| e.to_string())
            })
            .expect("builds")
    }

    #[test]
    fn content_hash_distinguishes_texts() {
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut cache = PlanCache::new(4);
        insert(&mut cache, 0);
        insert(&mut cache, 0);
        insert(&mut cache, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 2, 0, 2));
    }

    #[test]
    fn eviction_removes_the_least_recently_used_entry() {
        let mut cache = PlanCache::new(2);
        insert(&mut cache, 0);
        insert(&mut cache, 1);
        insert(&mut cache, 0); // touch 0 so 1 is now LRU
        insert(&mut cache, 2); // evicts 1
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        // 0 and 2 are warm (hits), 1 was evicted (miss).
        let before = cache.stats().hits;
        insert(&mut cache, 0);
        insert(&mut cache, 2);
        assert_eq!(cache.stats().hits, before + 2);
        let misses_before = cache.stats().misses;
        insert(&mut cache, 1);
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn build_failures_are_not_cached() {
        let mut cache = PlanCache::new(2);
        let err = cache
            .get_or_insert(content_hash(b"not a model"), OptLevel::O2, || {
                Err("nope".to_string())
            })
            .expect_err("fails");
        assert_eq!(err, "nope");
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 1);
        // The same key rebuilds — and can succeed this time.
        let text = model_text(9);
        cache
            .get_or_insert(content_hash(b"not a model"), OptLevel::O2, || {
                parse_model(&text).map_err(|e| e.to_string())
            })
            .expect("second build succeeds");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn levels_key_and_count_separately() {
        let mut cache = PlanCache::new(8);
        let o0 = insert_at(&mut cache, 0, OptLevel::O0);
        let o2 = insert_at(&mut cache, 0, OptLevel::O2);
        // Same text, different level: distinct entries and artifacts.
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(o0.compiled.config(), OptLevel::O0.config());
        assert_eq!(o2.compiled.config(), OptLevel::O2.config());
        insert_at(&mut cache, 0, OptLevel::O2); // warm at O2 only
        let s = cache.stats();
        assert_eq!(s.by_level[0], (0, 1));
        assert_eq!(s.by_level[1], (0, 0));
        assert_eq!(s.by_level[2], (1, 1));
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn cached_artifacts_execute_byte_identically_across_levels() {
        use clockless_core::ExecOptions;
        let mut cache = PlanCache::new(8);
        let o0 = insert_at(&mut cache, 3, OptLevel::O0);
        let base = o0.execute(&ExecOptions::traced()).expect("runs");
        for level in [OptLevel::O1, OptLevel::O2] {
            let c = insert_at(&mut cache, 3, level);
            let out = c.execute(&ExecOptions::traced()).expect("runs");
            assert_eq!(base.summary.registers, out.summary.registers);
            assert_eq!(base.summary.stats, out.summary.stats);
            assert_eq!(base.vcd(), out.vcd());
        }
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let mut cache = PlanCache::new(0);
        insert(&mut cache, 0);
        assert_eq!(cache.stats().capacity, 1);
        assert_eq!(cache.stats().entries, 1);
        insert(&mut cache, 0);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cached_plan_executes_like_a_fresh_lowering() {
        use clockless_core::{Backend, ExecOptions};
        let mut cache = PlanCache::new(2);
        let cached = insert(&mut cache, 5);
        let from_cache = cached.execute(&ExecOptions::traced()).expect("runs");
        let fresh = Backend::Compiled
            .execute(&cached.model, &ExecOptions::traced())
            .expect("runs");
        assert_eq!(from_cache.summary.registers, fresh.summary.registers);
        assert_eq!(from_cache.summary.stats, fresh.summary.stats);
    }
}
