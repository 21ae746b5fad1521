//! Cross-model context pool: share wafer-level search state across the
//! models of a zoo sweep.
//!
//! A [`crate::search::SearchContext`] memoizes evaluations for **one**
//! `(wafer, model, workload)` triple. Zoo sweeps (fig13's seven-system
//! comparison, fig18's scale/sequence grid) plan many models on the same
//! wafer; before the pool each model rebuilt the wafer-level state from
//! scratch — re-enumerating the candidate space — and repeated sweeps
//! over the same model rebuilt the whole context, discarding its warm
//! evaluation cache.
//!
//! [`ContextPool`] fixes both:
//!
//! * the **candidate enumeration** (a function of the die count alone) is
//!   computed once and shared by `Arc` across every pooled context;
//! * contexts are **keyed by `(model, workload)`** and handed out as
//!   shared `Arc`s, so asking for the same model twice returns the same
//!   warm context — a second sweep over the zoo is answered entirely from
//!   the caches the first sweep filled.
//!
//! Warmth also survives the process: [`ContextPool::save_to`] persists
//! every context's cost table and plan memo as one text file per context
//! (named by the
//! [`crate::cost::WaferCostModel::fingerprint`] of its `(wafer, model,
//! workload, cost-model version)`), and a pool pointed at that directory
//! with [`ContextPool::load_from`] imports the matching file whenever a
//! context is built — a second *process* answers every solve the first
//! one memoized from the restored plan, and re-solves others with
//! near-zero exact evaluations.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use temp_graph::models::ModelConfig;
use temp_graph::workload::Workload;
use temp_parallel::strategy::HybridConfig;
use temp_wsc::config::WaferConfig;

use crate::cost::WaferCostModel;
use crate::dlws::Dlws;
use crate::search::SearchContext;

/// A pool of shared search contexts for one wafer configuration.
#[derive(Debug)]
pub struct ContextPool {
    wafer: WaferConfig,
    base_candidates: Arc<Vec<HybridConfig>>,
    contexts: Mutex<HashMap<String, Arc<SearchContext>>>,
    /// Warm-start directory: freshly built contexts import their matching
    /// cache file from here (set by [`ContextPool::load_from`]).
    cache_dir: Mutex<Option<PathBuf>>,
}

impl ContextPool {
    /// Creates a pool for one wafer, enumerating the candidate space once.
    pub fn new(wafer: WaferConfig) -> Self {
        let base_candidates = Arc::new(SearchContext::enumerate_base_candidates(wafer.die_count()));
        ContextPool {
            wafer,
            base_candidates,
            contexts: Mutex::new(HashMap::new()),
            cache_dir: Mutex::new(None),
        }
    }

    /// The on-disk name of one context's cache file, keyed by the full
    /// `(wafer, model, workload, cost-model version)` fingerprint — see
    /// [`crate::cost::WaferCostModel::fingerprint`].
    fn cache_file_name(ctx: &SearchContext) -> String {
        format!("cache-{:016x}.txt", ctx.cost_model().fingerprint())
    }

    /// Persists every pooled context's warm state (cost table and plan
    /// memo) into `dir`, one text file per context, named by
    /// fingerprint. Returns the number of files written. Re-saving over an
    /// existing directory overwrites the matching files and leaves foreign
    /// files alone.
    ///
    /// Each file is written **atomically**: the bytes go to a temporary
    /// sibling (`.cache-<fp>.txt.tmp-<pid>`) which is then renamed over
    /// the final name, so a shutdown mid-write (a serving process killed
    /// while draining) can never leave a torn `cache-<fp>.txt` for the
    /// quarantine path to eat on the next start — the old file survives
    /// intact or the new one is complete.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, file writes,
    /// the final rename).
    pub fn save_to(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let contexts = self.contexts();
        for ctx in &contexts {
            let name = Self::cache_file_name(ctx);
            let tmp = dir.join(format!(".{name}.tmp-{}", std::process::id()));
            let finale = dir.join(&name);
            std::fs::write(&tmp, ctx.export_cost_table())?;
            if let Err(e) = std::fs::rename(&tmp, &finale) {
                // Never leave the temporary behind on a failed rename.
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
        Ok(contexts.len())
    }

    /// Points the pool at a warm-start directory written by
    /// [`ContextPool::save_to`]: every context built from now on imports
    /// its matching cache file (by fingerprint) on construction, and
    /// contexts the pool already holds import theirs immediately. Returns
    /// the number of cache files the directory holds; files for other
    /// `(model, workload)` pairs — or from an incompatible cost-model
    /// version — simply never match and are ignored.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the directory must exist and be
    /// readable).
    pub fn load_from(&self, dir: &Path) -> std::io::Result<usize> {
        let mut available = 0usize;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("cache-") && name.ends_with(".txt") {
                available += 1;
            }
        }
        *self.cache_dir.lock().expect("pool cache dir lock") = Some(dir.to_path_buf());
        for ctx in &self.contexts() {
            Self::try_warm_import(dir, ctx);
        }
        Ok(available)
    }

    /// Best-effort warm import: a missing file means "no cache for this
    /// context yet"; a corrupt one — unreadable, truncated mid-record,
    /// bit-flipped, or carrying a mismatched header — is rejected whole
    /// (imports are all-or-nothing) and **quarantined** by renaming it to
    /// `<name>.quarantined`, so warm starts can never corrupt a live
    /// context, the next run does not trip over the same file, and the
    /// evidence survives for a post-mortem instead of being deleted.
    fn try_warm_import(dir: &Path, ctx: &SearchContext) {
        let path = dir.join(Self::cache_file_name(ctx));
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
            Err(e) => {
                // Exists but cannot be read as text (permissions, binary
                // garbage): quarantine rather than retry forever.
                Self::quarantine(&path, &e.to_string());
                return;
            }
        };
        if let Err(reason) = ctx.import_cost_table(&text) {
            Self::quarantine(&path, &reason);
        }
    }

    /// Moves a corrupt cache file aside (`<name>.quarantined`), keeping
    /// the bytes for inspection. Renaming is best-effort: on a read-only
    /// directory the file simply stays put and keeps being skipped.
    fn quarantine(path: &Path, reason: &str) {
        let mut target = path.as_os_str().to_os_string();
        target.push(".quarantined");
        let renamed = std::fs::rename(path, &target).is_ok();
        eprintln!(
            "warm-start cache {} is corrupt ({reason}); {}",
            path.display(),
            if renamed {
                "quarantined as .quarantined"
            } else {
                "quarantine rename failed, skipping it"
            }
        );
    }

    /// The wafer every pooled context plans on.
    pub fn wafer(&self) -> &WaferConfig {
        &self.wafer
    }

    /// The shared candidate enumeration (pointer-identical across every
    /// context this pool hands out).
    pub fn candidates(&self) -> Arc<Vec<HybridConfig>> {
        Arc::clone(&self.base_candidates)
    }

    /// The shared context for a `(model, workload)` pair: built on first
    /// request, returned warm afterwards. Distinct workloads on the same
    /// model get distinct contexts (the evaluation cache is only valid
    /// per workload).
    ///
    /// Sharing is by `Arc`, so context-scoped knobs — the pruning and
    /// parallel switches — are shared too: flipping one holder's switch
    /// flips it for every solver built from this entry.
    pub fn context(&self, model: &ModelConfig, workload: &Workload) -> Arc<SearchContext> {
        let key = format!("{model:?}#{workload:?}");
        let mut contexts = self.contexts.lock().expect("pool lock");
        Arc::clone(contexts.entry(key).or_insert_with(|| {
            let ctx = Arc::new(SearchContext::with_shared_candidates(
                WaferCostModel::new(self.wafer.clone(), model.clone(), workload.clone()),
                Arc::clone(&self.base_candidates),
            ));
            if let Some(dir) = self.cache_dir.lock().expect("pool cache dir lock").as_ref() {
                Self::try_warm_import(dir, &ctx);
            }
            ctx
        }))
    }

    /// A solver over the pooled context for a `(model, workload)` pair.
    pub fn solver(&self, model: &ModelConfig, workload: &Workload) -> Dlws {
        Dlws::from_context(self.context(model, workload))
    }

    /// Every context the pool currently holds (unordered).
    pub fn contexts(&self) -> Vec<Arc<SearchContext>> {
        let map = self.contexts.lock().expect("pool lock");
        map.values().map(Arc::clone).collect()
    }

    /// Pool-wide search statistics: the per-context
    /// [`SearchContext::stats`] counters summed over every pooled
    /// context, plus the total number of distinct evaluation keys held
    /// (the denominator of the duplicate-work ratio). Serving layers
    /// report these; the phase timings are per-context wall times, so
    /// their sum is total time spent, not elapsed time.
    pub fn aggregate_stats(&self) -> (crate::search::SearchStats, usize) {
        let mut total = crate::search::SearchStats::default();
        let mut unique_keys = 0usize;
        for ctx in self.contexts() {
            total += ctx.stats();
            unique_keys += ctx.eval_cache_len();
        }
        (total, unique_keys)
    }

    /// How many distinct `(model, workload)` contexts the pool holds.
    pub fn len(&self) -> usize {
        self.contexts.lock().expect("pool lock").len()
    }

    /// Whether the pool has handed out any context yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::models::ModelZoo;

    #[test]
    fn contexts_are_shared_per_model_and_workload() {
        let pool = ContextPool::new(WaferConfig::hpca());
        assert!(pool.is_empty());
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let a = pool.context(&model, &workload);
        let b = pool.context(&model, &workload);
        assert!(Arc::ptr_eq(&a, &b), "same key must return the same context");
        assert_eq!(pool.len(), 1);
        // A different workload on the same model is a distinct context.
        let other = pool.context(&model, &workload.clone().with_micro_batches(4));
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn save_and_load_round_trip_a_directory() {
        let dir = std::env::temp_dir().join(format!(
            "temp-pool-save-load-round-trip-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let cfg = HybridConfig::tuple(2, 2, 1, 8);

        let cold = ContextPool::new(WaferConfig::hpca());
        let ctx = cold.context(&model, &workload);
        ctx.cost_of(&cfg, temp_mapping::engines::MappingEngine::Tcme);
        let cold_misses = ctx.stats().misses;
        assert!(cold_misses > 0);
        assert_eq!(cold.save_to(&dir).expect("save"), 1);

        // A fresh pool pointed at the directory builds warm contexts.
        let warm = ContextPool::new(WaferConfig::hpca());
        assert_eq!(warm.load_from(&dir).expect("load"), 1);
        let warm_ctx = warm.context(&model, &workload);
        let (cold_cost, _) = ctx.cost_of(&cfg, temp_mapping::engines::MappingEngine::Tcme);
        let (warm_cost, _) = warm_ctx.cost_of(&cfg, temp_mapping::engines::MappingEngine::Tcme);
        assert_eq!(warm_cost, cold_cost);
        assert_eq!(warm_ctx.stats().misses, 0, "warm solve must not evaluate");

        // Loading into a pool that already holds the context warms it too.
        let late = ContextPool::new(WaferConfig::hpca());
        let late_ctx = late.context(&model, &workload);
        assert_eq!(late.load_from(&dir).expect("load"), 1);
        late_ctx.cost_of(&cfg, temp_mapping::engines::MappingEngine::Tcme);
        assert_eq!(late_ctx.stats().misses, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_files_are_rejected_whole_and_quarantined() {
        let dir = std::env::temp_dir().join(format!("temp-pool-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let cold = ContextPool::new(WaferConfig::hpca());
        let ctx = cold.context(&model, &workload);
        ctx.cost_of(&cfg, temp_mapping::engines::MappingEngine::Tcme);
        let cold_plan = cold.solver(&model, &workload).solve().expect("cold solve");
        cold.save_to(&dir).expect("save");
        let name = ContextPool::cache_file_name(&ctx);
        let good = std::fs::read_to_string(dir.join(&name)).expect("read good cache");
        let (tables, plans) = good.split_at(good.find("plans ").expect("plans section"));
        assert_eq!(plans.lines().count(), 2, "one memoized plan: {plans:?}");

        let truncated = {
            // Cut mid-line so the last record is torn, not merely absent.
            let cut = good.len() * 2 / 3;
            let cut = (cut..good.len())
                .find(|&i| good.is_char_boundary(i))
                .unwrap();
            good.as_bytes()[..cut].to_vec()
        };
        let bit_flipped = good.replacen('.', "x", 1).into_bytes();
        let version_skewed = good
            .replacen("temp-cache v6", "temp-cache v9", 1)
            .into_bytes();
        // The sections every older format kept ahead of its plans: the
        // closed-form segment table (up to v5) and the collective-kernel
        // table (up to v4).
        let segs = "segs 1\nS 3 2 0 2 1 1 8 1 1 1 0.5 0.25 0.125 0.0 1024.0 1\n";
        // The previous format: the header at v5, and the segment table
        // between the evals and the plans.
        let v5_format = good
            .replacen("temp-cache v6", "temp-cache v5", 1)
            .replacen("\nplans ", &format!("\n{segs}plans "), 1)
            .into_bytes();
        // Two formats back: the header at v4, and a collective-kernel
        // section after the segment table.
        let v4_format = good
            .replacen("temp-cache v6", "temp-cache v4", 1)
            .replacen("\nplans ", &format!("\n{segs}coll 0\nplans "), 1)
            .into_bytes();
        // Three formats back: the header at v3, and no plans section.
        let v3_body = format!(
            "{}{segs}coll 0\n",
            tables.replacen("temp-cache v6", "temp-cache v3", 1)
        );
        // Five formats back: the header at v1, and segment records
        // stored once per engine (an engine code after the config).
        let v1_format = v3_body
            .replacen("temp-cache v3", "temp-cache v1", 1)
            .lines()
            .map(|line| match line.strip_prefix("S ") {
                Some(rest) => {
                    let mut fields: Vec<&str> = rest.split(' ').collect();
                    fields.insert(9, "2");
                    format!("S {}\n", fields.join(" "))
                }
                None => format!("{line}\n"),
            })
            .collect::<String>()
            .into_bytes();
        // Four formats back: the header at v2, with the winner-rank and
        // gate-predictor sections ahead of the collective section.
        let v2_format = v3_body
            .replacen("temp-cache v3", "temp-cache v2", 1)
            .replacen("\ncoll ", "\nwinner_rank 0\ngate 0\ncoll ", 1)
            .into_bytes();
        // Section counts the file cannot hold must be rejected, not
        // reserved: 10^12 once aborted on a failed allocation, 10^17 on a
        // capacity overflow.
        let evals_line = good
            .lines()
            .find(|l| l.starts_with("evals "))
            .expect("evals section");
        let huge_count = |n: &str| {
            good.replacen(evals_line, &format!("evals {n}"), 1)
                .into_bytes()
        };
        // An engine code of 258 must not wrap to 2 (TCME).
        let e_record = good
            .lines()
            .find(|l| l.starts_with("E "))
            .expect("E record");
        let mut fields: Vec<&str> = e_record.split(' ').collect();
        fields[9] = "258";
        let wrapped_code = good.replacen(e_record, &fields.join(" "), 1).into_bytes();
        // `P <engine> <pp> <words> <word>... <cfg x8> <mode> <report x22>
        // <segments> <kind> ...`: damage one field of the plan record.
        let p_record = plans.lines().nth(1).expect("P record");
        let p_fields: Vec<&str> = p_record.split(' ').collect();
        let words: usize = p_fields[3].parse().expect("mask word count");
        let with_p =
            |fields: Vec<String>| good.replacen(p_record, &fields.join(" "), 1).into_bytes();
        let owned = || p_fields.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        let extra_word = {
            let mut fields = owned();
            fields[3] = (words + 1).to_string();
            fields.insert(4 + words, "0".to_string());
            with_p(fields)
        };
        let bit_past_end = {
            let n = ctx.candidates().len();
            assert!(n % 64 != 0, "{n} candidates leave no spare mask bit");
            let mut fields = owned();
            let last: u64 = u64::from_str_radix(&fields[3 + words], 16).expect("mask word");
            fields[3 + words] = format!("{:x}", last | 1 << (n % 64));
            with_p(fields)
        };
        let torn_plan = {
            let mut fields = owned();
            fields.truncate(fields.len() / 2);
            with_p(fields)
        };
        let bad_segment_kind = {
            let mut fields = owned();
            let first_kind = 4 + words + 8 + 1 + 22 + 1;
            assert_eq!(
                fields[first_kind], "0",
                "the chain opens with the embedding"
            );
            fields[first_kind] = "9".to_string();
            with_p(fields)
        };
        // Masks index the candidate enumeration: plans saved under
        // another order must not decode against this one.
        let foreign_enumeration = {
            let plans_header = plans.lines().next().expect("plans header");
            let mut reordered = ctx.candidates().to_vec();
            reordered.reverse();
            let hash = crate::persist::enumeration_hash(&reordered);
            good.replacen(plans_header, &format!("plans 1 {hash:016x}"), 1)
                .into_bytes()
        };
        let unreadable = vec![0xff, 0xfe, 0x80, 0x00, b'\n'];
        let cases: [(&str, Vec<u8>); 17] = [
            ("truncated", truncated),
            ("bit-flipped", bit_flipped),
            ("version-skewed", version_skewed),
            ("v1 format", v1_format),
            ("v2 format", v2_format),
            ("v3 format", v3_body.into_bytes()),
            ("v4 format", v4_format),
            ("v5 format", v5_format),
            ("P mask with an extra word", extra_word),
            ("P mask bit past the enumeration", bit_past_end),
            ("truncated P record", torn_plan),
            ("out-of-range segment kind in a P record", bad_segment_kind),
            ("plans over another enumeration", foreign_enumeration),
            ("evals 10^12", huge_count("1000000000000")),
            ("evals 10^17", huge_count("100000000000000000")),
            ("out-of-range engine code", wrapped_code),
            ("unreadable (non-UTF-8)", unreadable),
        ];
        for (what, bytes) in cases {
            std::fs::write(dir.join(&name), &bytes).expect("plant corrupt cache");
            let warm = ContextPool::new(WaferConfig::hpca());
            warm.load_from(&dir)
                .expect("load_from must not fail on corruption");
            let wctx = warm.context(&model, &workload);
            // All-or-nothing: nothing from the corrupt file was applied,
            // and the context still costs correctly from scratch.
            assert_eq!(wctx.plan_memo_len(), 0, "{what}: no plan may be restored");
            let (cost, _) = wctx.cost_of(&cfg, temp_mapping::engines::MappingEngine::Tcme);
            assert!(cost.is_finite(), "{what}: pool context must stay usable");
            assert!(
                wctx.stats().misses > 0,
                "{what}: a corrupt import must be rejected whole, not partially applied"
            );
            // Quarantined, not deleted: bytes moved aside for post-mortem.
            assert!(
                !dir.join(&name).exists(),
                "{what}: corrupt file must be moved out of the warm path"
            );
            let quarantined = dir.join(format!("{name}.quarantined"));
            assert!(
                quarantined.exists(),
                "{what}: quarantined copy must survive"
            );
            assert_eq!(
                std::fs::read(&quarantined).expect("read quarantined"),
                bytes,
                "{what}: quarantine must preserve the corrupt bytes verbatim"
            );
        }

        // A healthy file still round-trips after all that.
        std::fs::write(dir.join(&name), good.as_bytes()).expect("restore good cache");
        let warm = ContextPool::new(WaferConfig::hpca());
        warm.load_from(&dir).expect("load");
        let wctx = warm.context(&model, &workload);
        wctx.cost_of(&cfg, temp_mapping::engines::MappingEngine::Tcme);
        assert_eq!(
            wctx.stats().misses,
            0,
            "good cache must import after quarantines"
        );
        assert_eq!(warm.solver(&model, &workload).solve(), Ok(cold_plan));
        assert_eq!(wctx.stats().plan_hits, 1);
        assert!(dir.join(&name).exists());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn models_share_one_candidate_enumeration() {
        let pool = ContextPool::new(WaferConfig::hpca());
        let m1 = ModelZoo::gpt3_6_7b();
        let m2 = ModelZoo::llama2_7b();
        let c1 = pool.context(&m1, &Workload::for_model(&m1));
        let c2 = pool.context(&m2, &Workload::for_model(&m2));
        assert!(!Arc::ptr_eq(&c1, &c2), "distinct models, distinct caches");
        assert!(
            Arc::ptr_eq(&c1.candidates_arc(), &c2.candidates_arc()),
            "wafer-level enumeration must be shared"
        );
        assert!(Arc::ptr_eq(&c1.candidates_arc(), &pool.candidates()));
    }
}
