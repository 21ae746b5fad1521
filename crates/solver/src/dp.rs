//! Level 1 of the DLS algorithm: dynamic programming over a segment chain.
//!
//! After the residual-aware graph partition (see
//! [`temp_graph::graph::ComputeGraph::segments`]), the model is a chain of
//! segments. Each segment independently picks a strategy from **its own**
//! candidate list (lists may be ragged — the embedding can admit
//! strategies the blocks cannot, and vice versa); adjacent segments with
//! different strategies pay a resharding (transition) cost. The DP finds
//! the optimal assignment in `O(segments x candidates^2)` — the "recursive
//! dynamic-programming routine [that] iteratively optimizes one operator
//! at a time" of Fig. 12(b).
//!
//! The solver's own chains price every boundary by one law — staying on
//! an equal configuration is free, any other move costs the same
//! resharding charge — and [`solve_keyed_chain`] exploits it to solve
//! them in `O(segments x candidates x log candidates)`, bit-identical to
//! [`solve_chain`] (which stays the generic reference).
//! [`keyed_chain_through`] prices, under the same law, the cheapest rest
//! of the chain through each candidate of one segment — what the
//! bound-pruned search adds to each block candidate's bound and exact
//! block time.

use std::hash::Hash;

use crate::shard::WordHashMap;

/// Typed failure of a chain solve — malformed chains surface as errors
/// instead of aborting a sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    /// Segment `segment` has an empty candidate list.
    EmptyCandidateList {
        /// Index of the offending segment.
        segment: usize,
    },
    /// A stage partition cannot be formed: fewer blocks than interior
    /// stages, or degenerate stage times.
    InfeasibleCut {
        /// Block instances available.
        blocks: u64,
        /// Pipeline stages requested.
        stages: usize,
    },
}

impl std::fmt::Display for DpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpError::EmptyCandidateList { segment } => {
                write!(f, "segment {segment} has an empty candidate list")
            }
            DpError::InfeasibleCut { blocks, stages } => {
                write!(f, "{blocks} blocks cannot fill {stages} pipeline stages")
            }
        }
    }
}

impl std::error::Error for DpError {}

/// Result of a chain DP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DpSolution {
    /// Chosen candidate index per segment (into that segment's own list).
    pub choices: Vec<usize>,
    /// Total cost (segment costs + transitions).
    pub cost: f64,
}

/// Solves the segment-chain assignment problem.
///
/// `segment_costs[s][c]` is the cost of running segment `s` under its
/// candidate `c` (use `f64::INFINITY` for infeasible pairs); the lists may
/// have different lengths per segment. `transition(s, a, b)` prices
/// switching from segment `s-1`'s candidate `a` to segment `s`'s candidate
/// `b` — with ragged lists the segment index disambiguates what `a` and
/// `b` refer to.
///
/// # Errors
///
/// Returns [`DpError::EmptyCandidateList`] when any segment has no
/// candidates (an empty chain is trivially solvable and returns an empty
/// solution).
pub fn solve_chain(
    segment_costs: &[Vec<f64>],
    transition: impl Fn(usize, usize, usize) -> f64,
) -> Result<DpSolution, DpError> {
    if segment_costs.is_empty() {
        return Ok(DpSolution {
            choices: Vec::new(),
            cost: 0.0,
        });
    }
    if let Some(segment) = segment_costs.iter().position(Vec::is_empty) {
        return Err(DpError::EmptyCandidateList { segment });
    }
    // best[c] = min cost of prefix ending with candidate c of the current
    // segment.
    let mut best: Vec<f64> = segment_costs[0].clone();
    let mut back: Vec<Vec<usize>> = vec![vec![0; best.len()]];
    for (s, costs) in segment_costs.iter().enumerate().skip(1) {
        let mut next = vec![f64::INFINITY; costs.len()];
        let mut bk = vec![0usize; costs.len()];
        for (c, &seg_cost) in costs.iter().enumerate() {
            for (p, &prev_cost) in best.iter().enumerate() {
                let total = prev_cost + transition(s, p, c) + seg_cost;
                if total < next[c] {
                    next[c] = total;
                    bk[c] = p;
                }
            }
        }
        best = next;
        back.push(bk);
    }
    Ok(backtrack(&best, &back))
}

/// Reads the optimal assignment out of the last segment's prefix costs
/// and the per-segment back pointers.
fn backtrack(best: &[f64], back: &[Vec<usize>]) -> DpSolution {
    let (mut cur, &cost) = best
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite or inf"))
        .expect("non-empty candidates");
    let mut choices = vec![0; back.len()];
    for s in (0..back.len()).rev() {
        choices[s] = cur;
        cur = back[s][cur];
    }
    DpSolution { choices, cost }
}

/// [`solve_chain`] for chains whose transitions follow one law: moving
/// between candidates with equal keys is free, any other move costs
/// `switch`. `keys[s][c]` is the key (the strategy) of segment `s`'s
/// candidate `c`. Returns exactly what
/// `solve_chain(segment_costs, |s, a, b| if keys[s - 1][a] == keys[s][b] { 0.0 } else { switch })`
/// returns — the same choices and the same cost, bit for bit — in
/// `O(segments x candidates x log candidates)` instead of quadratic time.
///
/// At each boundary the paid arrivals `best[p] + switch` are sorted once.
/// Adding a candidate's own cost is monotone in them, so the minimum is
/// the first sorted entry and the entries that round to the same sum form
/// a prefix, found by binary search; a prefix minimum of indices gives
/// the first predecessor among them, which is the one the reference scan
/// keeps. The free arrivals from equal-key predecessors are then compared
/// directly. As in [`solve_chain`], `NaN` and infinite totals never win.
///
/// # Errors
///
/// As [`solve_chain`].
///
/// # Panics
///
/// When `keys` does not give one key per candidate.
pub fn solve_keyed_chain<K: Eq + Hash>(
    segment_costs: &[Vec<f64>],
    keys: &[&[K]],
    switch: f64,
) -> Result<DpSolution, DpError> {
    assert!(
        keys.len() == segment_costs.len()
            && keys
                .iter()
                .zip(segment_costs)
                .all(|(k, c)| k.len() == c.len()),
        "one key per candidate"
    );
    if switch.is_nan() || switch < 0.0 {
        // A free move is no worse than a paid one only when the charge
        // is non-negative; anything else takes the generic scan.
        return solve_chain(segment_costs, |s, a, b| {
            if keys[s - 1][a] == keys[s][b] {
                0.0
            } else {
                switch
            }
        });
    }
    if segment_costs.is_empty() {
        return Ok(DpSolution {
            choices: Vec::new(),
            cost: 0.0,
        });
    }
    if let Some(segment) = segment_costs.iter().position(Vec::is_empty) {
        return Err(DpError::EmptyCandidateList { segment });
    }
    const NONE: usize = usize::MAX;
    let mut best: Vec<f64> = segment_costs[0].clone();
    let mut back: Vec<Vec<usize>> = vec![vec![0; best.len()]];
    // Paid arrivals sorted by value, with the smallest index seen so far.
    let mut paid: Vec<(f64, usize)> = Vec::new();
    let mut first_index: Vec<usize> = Vec::new();
    // The first predecessor holding each key, and the next one after it.
    let mut first_of_key: WordHashMap<&K, usize> = WordHashMap::default();
    let mut next_of_key: Vec<usize> = Vec::new();
    for (s, costs) in segment_costs.iter().enumerate().skip(1) {
        paid.clear();
        paid.extend(best.iter().enumerate().filter_map(|(p, &b)| {
            let arrival = b + switch;
            (arrival < f64::INFINITY).then_some((arrival, p))
        }));
        paid.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        first_index.clear();
        first_index.extend(paid.iter().scan(NONE, |first, &(_, p)| {
            *first = p.min(*first);
            Some(*first)
        }));
        first_of_key.clear();
        next_of_key.clear();
        next_of_key.resize(best.len(), NONE);
        for (p, key) in keys[s - 1].iter().enumerate().rev() {
            if let Some(later) = first_of_key.insert(key, p) {
                next_of_key[p] = later;
            }
        }

        let mut next = vec![f64::INFINITY; costs.len()];
        let mut bk = vec![0usize; costs.len()];
        for (c, &seg_cost) in costs.iter().enumerate() {
            let mut win: Option<(f64, usize)> = None;
            if seg_cost < f64::INFINITY {
                if let Some(&(lowest, _)) = paid.first() {
                    let floor = lowest + seg_cost;
                    if floor < f64::INFINITY {
                        let ties = paid.partition_point(|&(g, _)| g + seg_cost <= floor);
                        let p = first_index[ties - 1];
                        win = Some((best[p] + switch + seg_cost, p));
                    }
                }
            }
            let mut q = first_of_key.get(&keys[s][c]).copied().unwrap_or(NONE);
            while q != NONE {
                // The reference adds the zero transition too (it turns a
                // `-0.0` prefix into `+0.0`).
                let total = best[q] + 0.0 + seg_cost;
                let better = match win {
                    None => total < f64::INFINITY,
                    Some((value, p)) => total < value || (total == value && q < p),
                };
                if better {
                    win = Some((total, q));
                }
                q = next_of_key[q];
            }
            if let Some((total, p)) = win {
                next[c] = total;
                bk[c] = p;
            }
        }
        best = next;
        back.push(bk);
    }
    Ok(backtrack(&best, &back))
}

/// The cheapest rest of a keyed chain through each candidate of segment
/// `row`, under [`solve_keyed_chain`]'s transition law (equal keys move
/// free, any other move costs `switch`): entry `i` is the best prefix
/// arriving at candidate `i` plus the best suffix leaving it — every
/// segment cost and boundary of the chain except `row`'s own costs,
/// which are not read (`segment_costs[row]` may be empty). So
/// `through[i] + segment_costs[row][i]` is the best chain that assigns
/// candidate `i`, and its minimum over the row is the chain optimum (up
/// to float association). Infinite when no finite chain passes through
/// `i`; as in [`solve_chain`], `NaN` entries never win.
///
/// One forward and one backward sweep, `O(segments x candidates)` hash
/// operations: each boundary keeps its per-key minimum (the free
/// arrivals) and its overall minimum (the paid arrival).
///
/// # Panics
///
/// When `keys` does not give one key per candidate of every segment
/// other than `row`, `row` is out of range, or `switch` is negative (a
/// paid move would then undercut a free one).
pub fn keyed_chain_through<K: Eq + Hash>(
    segment_costs: &[Vec<f64>],
    keys: &[&[K]],
    switch: f64,
    row: usize,
) -> Vec<f64> {
    assert!(switch.is_nan() || switch >= 0.0, "negative switch charge");
    assert!(
        row < keys.len()
            && keys.len() == segment_costs.len()
            && keys
                .iter()
                .zip(segment_costs)
                .enumerate()
                .all(|(s, (k, c))| s == row || k.len() == c.len()),
        "one key per candidate"
    );
    let into = sweep(segment_costs, keys, switch, 0..row);
    let out = sweep(segment_costs, keys, switch, (row + 1..keys.len()).rev());
    keys[row]
        .iter()
        .map(|key| arrival(&into, key, switch) + arrival(&out, key, switch))
        .collect()
}

/// The best values the segments visited in `order` offer across the
/// boundary after the last of them (`None` for an empty order).
fn sweep<'a, K: Eq + Hash>(
    segment_costs: &[Vec<f64>],
    keys: &[&'a [K]],
    switch: f64,
    order: impl Iterator<Item = usize>,
) -> Option<Arrivals<'a, K>> {
    let mut side = None;
    for s in order {
        let values: Vec<f64> = segment_costs[s]
            .iter()
            .zip(keys[s])
            .map(|(&cost, key)| arrival(&side, key, switch) + cost)
            .collect();
        side = Some(Arrivals::new(&values, keys[s]));
    }
    side
}

/// The cheapest arrival across a boundary; nothing to pay at a chain end.
fn arrival<K: Eq + Hash>(side: &Option<Arrivals<'_, K>>, key: &K, switch: f64) -> f64 {
    side.as_ref().map_or(0.0, |side| side.best(key, switch))
}

/// The best values one side of a keyed boundary offers the other side.
struct Arrivals<'a, K> {
    /// Smallest value per key: what a candidate of that key gets free.
    per_key: WordHashMap<&'a K, f64>,
    /// Smallest value overall: the paid move's source for any key (an
    /// equal-key source is never cheaper paid than free).
    least: f64,
}

impl<'a, K: Eq + Hash> Arrivals<'a, K> {
    fn new(values: &[f64], keys: &'a [K]) -> Self {
        let mut per_key: WordHashMap<&K, f64> = WordHashMap::default();
        let mut least = f64::INFINITY;
        for (&v, key) in values.iter().zip(keys) {
            let slot = per_key.entry(key).or_insert(f64::INFINITY);
            if v < *slot {
                *slot = v;
            }
            if v < least {
                least = v;
            }
        }
        Arrivals { per_key, least }
    }

    /// The cheapest arrival at a candidate keyed `key`: the free move
    /// from an equal key, or the paid move from the cheapest source.
    fn best(&self, key: &K, switch: f64) -> f64 {
        let free = self.per_key.get(key).copied().unwrap_or(f64::INFINITY);
        let paid = self.least + switch;
        if paid < free {
            paid
        } else {
            free
        }
    }
}

/// Result of a stage-cut solve: how many block instances each pipeline
/// stage owns, and the per-micro-batch bottleneck stage time the
/// allocation achieves.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCuts {
    /// Block instances per stage, in pipeline order (sums to the chain's
    /// block count). The first stage additionally owns the embedding, the
    /// last the LM head.
    pub blocks: Vec<u64>,
    /// The achieved bottleneck: `max_s` of stage `s`'s per-micro-batch
    /// time under this allocation.
    pub bottleneck: f64,
}

/// The stage-cut solver (level 1 of the multi-wafer planning pass): split
/// `blocks` identical block instances across `stages` pipeline stages so
/// the *bottleneck* stage time is minimal. One block instance costs
/// `unit` seconds per micro-batch; the first stage carries `first_extra`
/// on top (embedding + any intra-stage resharding), the last `last_extra`
/// (LM head). `min_blocks` is the per-stage floor on block counts: pass
/// an empty slice for the default — interior stages own at least one
/// block, the end stages may own zero (their end segment keeps them
/// non-empty) — or one entry per stage (multi-stage wafers raise the
/// floors so every *virtual* stage inside a wafer stays non-empty).
///
/// In a 1F1B pipeline the step time is
/// `sum_s t_s + (micro - 1) x max_s t_s` — the cut positions only enter
/// through the bottleneck term (the sum is invariant), so minimizing the
/// bottleneck is exact. The solver runs a parametric search over the
/// `O(blocks)` candidate bottleneck values (each is `k x unit` plus one
/// of the end extras) and then water-fills blocks under the winning
/// threshold, yielding a balanced allocation.
///
/// # Errors
///
/// Returns [`DpError::InfeasibleCut`] when the floors cannot be met
/// (`blocks < sum(min_blocks)`), when `stages` is zero or `min_blocks`
/// has the wrong length, or when the stage times are degenerate (`unit`
/// non-finite or negative).
pub fn balance_stage_cuts(
    blocks: u64,
    stages: usize,
    unit: f64,
    first_extra: f64,
    last_extra: f64,
    min_blocks: &[u64],
) -> Result<StageCuts, DpError> {
    let infeasible = DpError::InfeasibleCut { blocks, stages };
    if stages == 0 || !unit.is_finite() || unit < 0.0 {
        return Err(infeasible);
    }
    if !first_extra.is_finite() || !last_extra.is_finite() {
        return Err(infeasible);
    }
    if !min_blocks.is_empty() && min_blocks.len() != stages {
        return Err(infeasible);
    }
    let min_of = |s: usize| -> u64 {
        if min_blocks.is_empty() {
            u64::from(stages > 1 && s != 0 && s != stages - 1)
        } else {
            min_blocks[s]
        }
    };
    let floor_total: u64 = (0..stages).map(min_of).sum();
    if blocks < floor_total {
        return Err(infeasible);
    }
    if stages == 1 {
        return Ok(StageCuts {
            blocks: vec![blocks],
            bottleneck: blocks as f64 * unit + first_extra + last_extra,
        });
    }
    let extra = |s: usize| -> f64 {
        if s == 0 {
            first_extra
        } else if s == stages - 1 {
            last_extra
        } else {
            0.0
        }
    };
    // Zero-cost blocks: any allocation works; balance counts evenly
    // above the floors.
    if unit == 0.0 {
        let mut alloc: Vec<u64> = (0..stages).map(min_of).collect();
        let mut remaining = blocks - floor_total;
        let mut s = 0;
        while remaining > 0 {
            alloc[s] += 1;
            remaining -= 1;
            s = (s + 1) % stages;
        }
        let bottleneck = first_extra.max(last_extra);
        return Ok(StageCuts {
            blocks: alloc,
            bottleneck,
        });
    }

    // Capacity of stage `s` under a bottleneck threshold `b`: the largest
    // block count keeping `k x unit + extra(s) <= b`. The tiny relative
    // slack absorbs float noise in thresholds built as `k x unit + extra`.
    let capacity = |s: usize, b: f64| -> u64 {
        let room = b - extra(s);
        if room < 0.0 {
            return 0;
        }
        (((room / unit) * (1.0 + 1e-12) + 1e-9).floor() as u64).min(blocks)
    };
    let feasible = |b: f64| -> bool {
        let mut total = 0u64;
        for s in 0..stages {
            let cap = capacity(s, b);
            if cap < min_of(s) {
                return false;
            }
            total += cap;
        }
        total >= blocks
    };

    // Candidate bottlenecks: `k x unit` plus each distinct extra.
    let mut thresholds: Vec<f64> = Vec::with_capacity(3 * (blocks as usize + 1));
    for k in 0..=blocks {
        let base = k as f64 * unit;
        thresholds.push(base);
        thresholds.push(base + first_extra);
        thresholds.push(base + last_extra);
    }
    thresholds.retain(|b| b.is_finite());
    thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite thresholds"));
    // Binary search the smallest feasible threshold (feasibility is
    // monotone in `b`).
    let mut lo = 0usize;
    let mut hi = thresholds.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible(thresholds[mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if lo == thresholds.len() {
        return Err(infeasible);
    }
    let bound = thresholds[lo];

    // Water-fill under the winning threshold: start from the floors, then
    // repeatedly grow the currently-fastest stage that still has
    // capacity — a balanced assignment with bottleneck <= bound.
    let mut alloc: Vec<u64> = (0..stages).map(min_of).collect();
    let mut remaining = blocks - floor_total;
    let caps: Vec<u64> = (0..stages).map(|s| capacity(s, bound)).collect();
    while remaining > 0 {
        let next = (0..stages)
            .filter(|&s| alloc[s] < caps[s])
            .min_by(|&a, &b| {
                let ta = alloc[a] as f64 * unit + extra(a);
                let tb = alloc[b] as f64 * unit + extra(b);
                ta.partial_cmp(&tb).expect("finite stage times")
            })
            .ok_or(infeasible.clone())?;
        alloc[next] += 1;
        remaining -= 1;
    }
    let bottleneck = (0..stages)
        .map(|s| alloc[s] as f64 * unit + extra(s))
        .fold(0.0f64, f64::max);
    Ok(StageCuts {
        blocks: alloc,
        bottleneck,
    })
}

/// The weighted stage-cut solver: partition a **heterogeneous** sequence
/// of interior instances (dense blocks and MoE blocks carry different
/// per-micro-batch times) into `stages` contiguous slices so the
/// bottleneck stage time is minimal. `weights[i]` is instance `i`'s
/// per-micro-batch time in chain order; `first_extra`/`last_extra` and
/// `min_items` behave exactly as in [`balance_stage_cuts`] (which this
/// generalizes — uniform weights reproduce it). This is what lets
/// pipeline cuts isolate expert-heavy stretches onto their own wafers:
/// a run of expensive MoE instances simply fills a stage with fewer
/// items.
///
/// The search is parametric like the uniform solver: candidate
/// bottlenecks are the `O(n^2)` contiguous window sums (each optionally
/// plus an end extra), feasibility of a threshold is an exact
/// `O(stages x n)` reachability DP (a greedy maximal-prefix fill is
/// *not* exact once floors exceed one item: over-extending a cheap
/// stage can force a later stage's floor onto a heavy instance), and
/// the smallest feasible threshold is found by binary search.
///
/// # Errors
///
/// Returns [`DpError::InfeasibleCut`] when the floors cannot be met, any
/// weight or extra is non-finite/negative, or `stages`/`min_items` are
/// malformed.
pub fn balance_weighted_cuts(
    weights: &[f64],
    stages: usize,
    first_extra: f64,
    last_extra: f64,
    min_items: &[u64],
) -> Result<StageCuts, DpError> {
    let n = weights.len();
    let infeasible = DpError::InfeasibleCut {
        blocks: n as u64,
        stages,
    };
    if stages == 0
        || !first_extra.is_finite()
        || !last_extra.is_finite()
        || first_extra < 0.0
        || last_extra < 0.0
        || weights.iter().any(|w| !w.is_finite() || *w < 0.0)
    {
        return Err(infeasible);
    }
    if !min_items.is_empty() && min_items.len() != stages {
        return Err(infeasible);
    }
    let min_of = |s: usize| -> usize {
        if min_items.is_empty() {
            usize::from(stages > 1 && s != 0 && s != stages - 1)
        } else {
            min_items[s] as usize
        }
    };
    let floor_total: usize = (0..stages).map(min_of).sum();
    if n < floor_total {
        return Err(infeasible);
    }
    let extra = |s: usize| -> f64 {
        let mut e = 0.0;
        if s == 0 {
            e += first_extra;
        }
        if s == stages - 1 {
            e += last_extra;
        }
        e
    };
    // Prefix sums: load of items [i, j) is prefix[j] - prefix[i].
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for w in weights {
        prefix.push(prefix.last().unwrap() + w);
    }
    let slack = |b: f64| -> f64 { b * (1.0 + 1e-12) + 1e-12 };
    // Exact feasibility under a threshold: reachability DP over stage end
    // positions. After stage `s`, position `q` is reachable iff some
    // reachable predecessor `p <= q - min_of(s)` keeps the window
    // `[p, q)` within the cap — and since a *larger* `p` means a smaller
    // window, checking only the largest reachable predecessor is exact.
    // (A greedy maximal-prefix fill is not: with an interior floor of two
    // or more items, over-extending a cheap stage can force that floor
    // onto a heavy instance downstream.)
    let fill = |b: f64| -> Option<Vec<u64>> {
        let cap = slack(b);
        let mut reach = vec![false; n + 1];
        reach[0] = true;
        // choice[s][q]: the predecessor that reached `q` after stage `s`.
        let mut choice: Vec<Vec<isize>> = Vec::with_capacity(stages);
        for s in 0..stages {
            let mn = min_of(s);
            let ex = extra(s);
            // last_true[i]: the largest reachable p <= i, or -1.
            let mut last_true = vec![-1isize; n + 1];
            let mut lt = -1isize;
            for (i, r) in reach.iter().enumerate() {
                if *r {
                    lt = i as isize;
                }
                last_true[i] = lt;
            }
            let mut next_reach = vec![false; n + 1];
            let mut ch = vec![-1isize; n + 1];
            for q in mn..=n {
                let p = last_true[q - mn];
                if p >= 0 && prefix[q] - prefix[p as usize] + ex <= cap {
                    next_reach[q] = true;
                    ch[q] = p;
                }
            }
            choice.push(ch);
            reach = next_reach;
        }
        if !reach[n] {
            return None;
        }
        // Backtrack the stage sizes from the end.
        let mut alloc = vec![0u64; stages];
        let mut q = n;
        for s in (0..stages).rev() {
            let p = choice[s][q];
            debug_assert!(p >= 0, "reachable end without predecessor");
            alloc[s] = (q - p as usize) as u64;
            q = p as usize;
        }
        (q == 0).then_some(alloc)
    };
    // Candidate bottlenecks: every contiguous window sum, bare and with
    // each end extra.
    let mut thresholds = Vec::with_capacity(3 * n * (n + 1) / 2 + 3);
    for i in 0..=n {
        for j in i..=n {
            let base = prefix[j] - prefix[i];
            thresholds.push(base);
            thresholds.push(base + first_extra);
            thresholds.push(base + last_extra);
            thresholds.push(base + first_extra + last_extra);
        }
    }
    thresholds.retain(|b| b.is_finite());
    thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite thresholds"));
    let mut lo = 0usize;
    let mut hi = thresholds.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if fill(thresholds[mid]).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if lo == thresholds.len() {
        return Err(infeasible);
    }
    let alloc = fill(thresholds[lo]).expect("feasible threshold");
    let mut bottleneck = 0.0f64;
    let mut idx = 0usize;
    for (s, &k) in alloc.iter().enumerate() {
        let load = prefix[idx + k as usize] - prefix[idx] + extra(s);
        bottleneck = bottleneck.max(load);
        idx += k as usize;
    }
    Ok(StageCuts {
        blocks: alloc,
        bottleneck,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_chain_is_free() {
        let s = solve_chain(&[], |_, _, _| 0.0).unwrap();
        assert_eq!(s.cost, 0.0);
        assert!(s.choices.is_empty());
    }

    #[test]
    fn empty_candidate_list_is_a_typed_error() {
        let costs = vec![vec![1.0, 2.0], Vec::new(), vec![3.0]];
        let err = solve_chain(&costs, |_, _, _| 0.0).unwrap_err();
        assert_eq!(err, DpError::EmptyCandidateList { segment: 1 });
        assert!(err.to_string().contains("segment 1"));
    }

    #[test]
    fn picks_per_segment_minimum_without_transitions() {
        let costs = vec![vec![3.0, 1.0, 2.0], vec![5.0, 9.0, 4.0]];
        let s = solve_chain(&costs, |_, _, _| 0.0).unwrap();
        assert_eq!(s.choices, vec![1, 2]);
        assert!((s.cost - 5.0).abs() < 1e-12);
    }

    #[test]
    fn transitions_keep_assignment_uniform_when_expensive() {
        // Candidate 0 slightly worse per segment, but switching costs 100.
        let costs = vec![vec![1.0, 0.9], vec![1.0, 0.9], vec![0.5, 2.0]];
        let s = solve_chain(&costs, |_, a, b| if a == b { 0.0 } else { 100.0 }).unwrap();
        // Uniform candidate 1: 0.9+0.9+2.0 = 3.8; uniform 0: 2.5 — wins.
        assert_eq!(s.choices, vec![0, 0, 0]);
        assert!((s.cost - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cheap_transitions_allow_switching() {
        let costs = vec![vec![1.0, 10.0], vec![10.0, 1.0]];
        let s = solve_chain(&costs, |_, a, b| if a == b { 0.0 } else { 0.5 }).unwrap();
        assert_eq!(s.choices, vec![0, 1]);
        assert!((s.cost - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ragged_candidate_lists_are_solved() {
        // Segment 0 has three candidates, segment 1 only one, segment 2
        // two; the transition keys on (segment, index) pairs.
        let costs = vec![vec![3.0, 1.0, 2.0], vec![4.0], vec![0.5, 0.1]];
        let s = solve_chain(&costs, |s, _a, b| {
            // Entering segment 2's candidate 0 is expensive; its cheaper
            // sibling is free to reach.
            if s == 2 && b == 0 {
                10.0
            } else {
                0.0
            }
        })
        .unwrap();
        assert_eq!(s.choices, vec![1, 0, 1]);
        assert!((s.cost - (1.0 + 4.0 + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn infeasible_candidates_are_avoided() {
        let costs = vec![vec![f64::INFINITY, 2.0], vec![1.0, f64::INFINITY]];
        let s = solve_chain(&costs, |_, _, _| 0.0).unwrap();
        assert_eq!(s.choices, vec![1, 0]);
        assert!(s.cost.is_finite());
    }

    #[test]
    fn balanced_cuts_split_evenly_without_extras() {
        let cuts = balance_stage_cuts(32, 4, 1.0, 0.0, 0.0, &[]).unwrap();
        assert_eq!(cuts.blocks, vec![8, 8, 8, 8]);
        assert!((cuts.bottleneck - 8.0).abs() < 1e-12);
        assert_eq!(cuts.blocks.iter().sum::<u64>(), 32);
    }

    #[test]
    fn end_extras_shift_blocks_off_the_end_stages() {
        // The first stage carries a 4-block-equivalent embedding, the last
        // a 2-block-equivalent head: the optimum sheds blocks from both.
        let cuts = balance_stage_cuts(32, 4, 1.0, 4.0, 2.0, &[]).unwrap();
        assert_eq!(cuts.blocks.iter().sum::<u64>(), 32);
        assert!(cuts.blocks[0] < cuts.blocks[1], "{cuts:?}");
        assert!(cuts.blocks[3] < cuts.blocks[2], "{cuts:?}");
        // Bottleneck strictly beats the naive even split's first-stage
        // time (8 blocks + the 4-block embedding).
        assert!(cuts.bottleneck < 8.0 + 4.0, "{cuts:?}");
        // And matches the brute-force optimum over all partitions.
        let mut best = f64::INFINITY;
        for k0 in 0..=32u64 {
            for k1 in 1..=32u64.saturating_sub(k0) {
                for k2 in 1..=32u64.saturating_sub(k0 + k1) {
                    let k3 = 32 - k0 - k1 - k2;
                    let b = (k0 as f64 + 4.0)
                        .max(k1 as f64)
                        .max(k2 as f64)
                        .max(k3 as f64 + 2.0);
                    best = best.min(b);
                }
            }
        }
        assert!(
            (cuts.bottleneck - best).abs() < 1e-9,
            "{} vs brute {best}",
            cuts.bottleneck
        );
    }

    #[test]
    fn single_stage_owns_everything() {
        let cuts = balance_stage_cuts(10, 1, 0.5, 1.0, 2.0, &[]).unwrap();
        assert_eq!(cuts.blocks, vec![10]);
        assert!((cuts.bottleneck - (5.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn infeasible_cuts_are_typed_errors() {
        // Fewer blocks than interior stages.
        assert_eq!(
            balance_stage_cuts(2, 6, 1.0, 0.0, 0.0, &[]).unwrap_err(),
            DpError::InfeasibleCut {
                blocks: 2,
                stages: 6
            }
        );
        assert!(balance_stage_cuts(8, 0, 1.0, 0.0, 0.0, &[]).is_err());
        assert!(balance_stage_cuts(8, 2, f64::NAN, 0.0, 0.0, &[]).is_err());
        assert!(balance_stage_cuts(8, 2, 1.0, f64::INFINITY, 0.0, &[]).is_err());
        // Zero-cost blocks balance by count alone.
        let cuts = balance_stage_cuts(9, 3, 0.0, 0.5, 0.25, &[]).unwrap();
        assert_eq!(cuts.blocks.iter().sum::<u64>(), 9);
        assert!((cuts.bottleneck - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cut_bottleneck_is_optimal_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..40 {
            let blocks = rng.gen_range(4..40u64);
            let stages = rng.gen_range(2..6usize);
            if blocks < (stages as u64).saturating_sub(2) {
                continue;
            }
            let unit = rng.gen_range(0.1..2.0);
            let e = rng.gen_range(0.0..5.0);
            let h = rng.gen_range(0.0..5.0);
            let cuts = balance_stage_cuts(blocks, stages, unit, e, h, &[]).unwrap();
            assert_eq!(cuts.blocks.iter().sum::<u64>(), blocks);
            for (s, &k) in cuts.blocks.iter().enumerate() {
                if s != 0 && s != stages - 1 {
                    assert!(k >= 1, "interior stage {s} empty: {cuts:?}");
                }
            }
            // Exhaustive check on small instances: enumerate partitions.
            let mut best = f64::INFINITY;
            let mut stack = vec![(0usize, 0u64, 0.0f64)];
            while let Some((s, used, worst)) = stack.pop() {
                if s == stages {
                    if used == blocks {
                        best = best.min(worst);
                    }
                    continue;
                }
                let min_k = u64::from(s != 0 && s != stages - 1);
                let extra = if s == 0 {
                    e
                } else if s == stages - 1 {
                    h
                } else {
                    0.0
                };
                for k in min_k..=(blocks - used) {
                    let t = k as f64 * unit + extra;
                    stack.push((s + 1, used + k, worst.max(t)));
                }
            }
            assert!(
                cuts.bottleneck <= best + 1e-9,
                "blocks={blocks} stages={stages} unit={unit} e={e} h={h}: \
                 {} vs brute {best}",
                cuts.bottleneck
            );
        }
    }

    #[test]
    fn weighted_cuts_reduce_to_uniform_on_equal_weights() {
        for (blocks, stages, unit, e, h) in [(32u64, 4usize, 1.0, 0.0, 0.0), (32, 4, 1.0, 4.0, 2.0)]
        {
            let uniform = balance_stage_cuts(blocks, stages, unit, e, h, &[]).unwrap();
            let weights = vec![unit; blocks as usize];
            let weighted = balance_weighted_cuts(&weights, stages, e, h, &[]).unwrap();
            assert_eq!(weighted.blocks.iter().sum::<u64>(), blocks);
            assert!(
                (weighted.bottleneck - uniform.bottleneck).abs() <= 1e-9,
                "{} vs {}",
                weighted.bottleneck,
                uniform.bottleneck
            );
        }
    }

    #[test]
    fn weighted_cuts_isolate_expert_heavy_stretches() {
        // Four cheap dense instances then four expensive MoE instances:
        // the optimal two-way cut gives the MoE stretch its own stage
        // with *fewer* items.
        let weights = [1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0];
        let cuts = balance_weighted_cuts(&weights, 2, 0.0, 0.0, &[]).unwrap();
        assert_eq!(cuts.blocks.iter().sum::<u64>(), 8);
        // Best split: [1,1,1,1,5,5] | [5,5] -> bottleneck 14 (an even
        // 4|4 count split would pay 20): the expert-heavy stretch gets a
        // stage with far fewer instances.
        assert_eq!(cuts.blocks, vec![6, 2]);
        assert!((cuts.bottleneck - 14.0).abs() < 1e-12, "{cuts:?}");
        assert!(cuts.blocks[1] < cuts.blocks[0]);
    }

    #[test]
    fn weighted_cuts_respect_multi_item_floors_exactly() {
        // The case a greedy maximal-prefix fill gets wrong: over-extending
        // the cheap first stage forces stage 1's two-item floor onto the
        // heavy instance. Optimal: [5] | [1,1] | [100] -> bottleneck 100.
        let cuts = balance_weighted_cuts(&[5.0, 1.0, 1.0, 100.0], 3, 0.0, 0.0, &[0, 2, 0]).unwrap();
        assert_eq!(cuts.blocks, vec![1, 2, 1], "{cuts:?}");
        assert!((cuts.bottleneck - 100.0).abs() < 1e-9, "{cuts:?}");
    }

    #[test]
    fn weighted_cuts_match_brute_force_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(37);
        for case in 0..80 {
            let n = rng.gen_range(3..14usize);
            let stages = rng.gen_range(2..5usize);
            if n < stages.saturating_sub(2) {
                continue;
            }
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0)).collect();
            let e = rng.gen_range(0.0..3.0);
            let h = rng.gen_range(0.0..3.0);
            // Half the cases use explicit floors (including multi-item
            // interior floors, the regime where greedy fills fail).
            let floors: Vec<u64> = if case % 2 == 0 {
                Vec::new()
            } else {
                (0..stages).map(|_| rng.gen_range(0..3u64)).collect()
            };
            let Ok(cuts) = balance_weighted_cuts(&weights, stages, e, h, &floors) else {
                continue;
            };
            assert_eq!(cuts.blocks.iter().sum::<u64>(), n as u64);
            let min_of = |s: usize| -> usize {
                if floors.is_empty() {
                    usize::from(s != 0 && s != stages - 1)
                } else {
                    floors[s] as usize
                }
            };
            for (s, &k) in cuts.blocks.iter().enumerate() {
                assert!(k as usize >= min_of(s), "floor violated: {cuts:?}");
            }
            // Brute force over all contiguous partitions.
            let mut best = f64::INFINITY;
            let mut stack = vec![(0usize, 0usize, 0.0f64)];
            while let Some((s, idx, worst)) = stack.pop() {
                if s == stages {
                    if idx == n {
                        best = best.min(worst);
                    }
                    continue;
                }
                let extra = if stages == 1 {
                    e + h
                } else if s == 0 {
                    e
                } else if s == stages - 1 {
                    h
                } else {
                    0.0
                };
                for k in min_of(s)..=(n - idx) {
                    let load: f64 = weights[idx..idx + k].iter().sum::<f64>() + extra;
                    stack.push((s + 1, idx + k, worst.max(load)));
                }
            }
            assert!(
                cuts.bottleneck <= best + 1e-9,
                "weights {weights:?} stages {stages} e {e} h {h} floors {floors:?}: \
                 {} vs brute {best}",
                cuts.bottleneck
            );
        }
    }

    #[test]
    fn weighted_cuts_reject_malformed_inputs() {
        assert!(balance_weighted_cuts(&[1.0; 4], 0, 0.0, 0.0, &[]).is_err());
        assert!(balance_weighted_cuts(&[1.0, f64::NAN], 2, 0.0, 0.0, &[]).is_err());
        assert!(balance_weighted_cuts(&[1.0, -1.0], 2, 0.0, 0.0, &[]).is_err());
        assert!(balance_weighted_cuts(&[1.0; 4], 2, f64::INFINITY, 0.0, &[]).is_err());
        // Floors above the item count.
        assert!(balance_weighted_cuts(&[1.0; 2], 2, 0.0, 0.0, &[2, 2]).is_err());
        // Wrong floor arity.
        assert!(balance_weighted_cuts(&[1.0; 4], 2, 0.0, 0.0, &[1]).is_err());
        // Single stage owns everything, extras included.
        let one = balance_weighted_cuts(&[1.0, 2.0], 1, 0.5, 0.25, &[]).unwrap();
        assert_eq!(one.blocks, vec![2]);
        assert!((one.bottleneck - 3.75).abs() < 1e-12);
    }

    #[test]
    fn keyed_chain_matches_the_reference_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        // A small cost alphabet makes ties (equal values, and sums that
        // round together) common; INFINITY marks infeasible candidates.
        let alphabet = [0.0, 0.1, 0.2, 0.3, 1.0, 1e16, 3.0, f64::INFINITY];
        for case in 0..600 {
            let segs = rng.gen_range(1..6usize);
            // Mostly short rows; long ones exercise the unstable sort.
            let width = if case % 5 == 0 { 40 } else { 9 };
            let sizes: Vec<usize> = (0..segs).map(|_| rng.gen_range(1..width)).collect();
            let costs: Vec<Vec<f64>> = sizes
                .iter()
                .enumerate()
                .map(|(s, &k)| match rng.gen_range(0..8) {
                    // Some rows are infeasible throughout.
                    0 if s > 0 => vec![f64::INFINITY; k],
                    // Huge rows: distinct predecessors round to the same
                    // total on the optimal path.
                    1 => (0..k)
                        .map(|_| [1e16, 1e16 + 2.0, 2e16][rng.gen_range(0..3)])
                        .collect(),
                    _ => (0..k)
                        .map(|_| match rng.gen_range(0..3) {
                            0 => alphabet[rng.gen_range(0..alphabet.len())],
                            _ => rng.gen_range(0.0..4.0),
                        })
                        .collect(),
                })
                .collect();
            // Keys from a small pool so neighbouring rows share some
            // configs and a row may repeat one.
            let pool = rng.gen_range(1..10u32);
            let keys: Vec<Vec<u32>> = sizes
                .iter()
                .map(|&k| (0..k).map(|_| rng.gen_range(0..pool)).collect())
                .collect();
            let key_rows: Vec<&[u32]> = keys.iter().map(Vec::as_slice).collect();
            let switch = match case % 4 {
                0 => 0.0,
                1 => alphabet[rng.gen_range(0..alphabet.len())],
                _ => rng.gen_range(0.0..2.0),
            };
            let reference = solve_chain(&costs, |s, a, b| {
                if keys[s - 1][a] == keys[s][b] {
                    0.0
                } else {
                    switch
                }
            })
            .unwrap();
            let keyed = solve_keyed_chain(&costs, &key_rows, switch).unwrap();
            assert_eq!(
                (keyed.choices.clone(), keyed.cost.to_bits()),
                (reference.choices.clone(), reference.cost.to_bits()),
                "case {case}: costs {costs:?} keys {keys:?} switch {switch}: \
                 keyed {keyed:?} vs reference {reference:?}"
            );
        }
    }

    #[test]
    fn keyed_chain_handles_degenerate_inputs_like_the_reference() {
        let empty: [Vec<f64>; 0] = [];
        let none: [&[u8]; 0] = [];
        assert_eq!(solve_keyed_chain(&empty, &none, 1.0).unwrap().cost, 0.0);
        let costs = vec![vec![1.0], Vec::new()];
        assert_eq!(
            solve_keyed_chain(&costs, &[&[0u8][..], &[]], 1.0).unwrap_err(),
            DpError::EmptyCandidateList { segment: 1 }
        );
        // NaN costs and switches never win, as in the reference scan.
        let costs = vec![vec![1.0, 2.0], vec![f64::NAN, 0.5]];
        let keys: [&[u8]; 2] = [&[0, 1], &[0, 1]];
        for switch in [f64::NAN, -1.0, f64::INFINITY] {
            let reference = solve_chain(&costs, |s, a, b| {
                if keys[s - 1][a] == keys[s][b] {
                    0.0
                } else {
                    switch
                }
            })
            .unwrap();
            let keyed = solve_keyed_chain(&costs, &keys, switch).unwrap();
            assert_eq!(keyed.choices, reference.choices, "switch {switch}");
            assert_eq!(keyed.cost.to_bits(), reference.cost.to_bits());
        }
    }

    #[test]
    fn chain_through_prices_the_best_chain_per_candidate() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let close = |a: f64, b: f64| a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        let mut rng = StdRng::seed_from_u64(43);
        let alphabet = [0.0, 0.1, 0.2, 1.0, 3.0, f64::INFINITY];
        for case in 0..600 {
            let segs = rng.gen_range(1..6usize);
            let sizes: Vec<usize> = (0..segs).map(|_| rng.gen_range(1..12usize)).collect();
            let costs: Vec<Vec<f64>> = sizes
                .iter()
                .map(|&k| match rng.gen_range(0..10) {
                    // Some rows are infeasible throughout.
                    0 => vec![f64::INFINITY; k],
                    _ => (0..k)
                        .map(|_| match rng.gen_range(0..3) {
                            0 => alphabet[rng.gen_range(0..alphabet.len())],
                            _ => rng.gen_range(0.0..4.0),
                        })
                        .collect(),
                })
                .collect();
            let pool = rng.gen_range(1..8u32);
            let keys: Vec<Vec<u32>> = sizes
                .iter()
                .map(|&k| (0..k).map(|_| rng.gen_range(0..pool)).collect())
                .collect();
            let key_rows: Vec<&[u32]> = keys.iter().map(Vec::as_slice).collect();
            let switch = match case % 4 {
                0 => 0.0,
                1 => alphabet[rng.gen_range(0..alphabet.len())],
                _ => rng.gen_range(0.0..2.0),
            };
            let row = rng.gen_range(0..segs);
            let dp = solve_keyed_chain(&costs, &key_rows, switch).unwrap();
            // The priced row's own costs are not read.
            let mut blanked = costs.clone();
            blanked[row].clear();
            let through = keyed_chain_through(&blanked, &key_rows, switch, row);
            let chains: Vec<f64> = through
                .iter()
                .zip(&costs[row])
                .map(|(t, c)| t + c)
                .collect();
            let best = chains.iter().copied().fold(f64::INFINITY, f64::min);
            let case =
                format!("case {case}: costs {costs:?} keys {keys:?} switch {switch} row {row}");
            assert!(
                close(best, dp.cost),
                "{case}: best {best} vs DP {}",
                dp.cost
            );
            assert!(
                close(chains[dp.choices[row]], best),
                "{case}: DP choice misses the minimum"
            );
            // Never above the uniform chain: every other segment on the
            // candidate's own key, every boundary free.
            for (i, key) in keys[row].iter().enumerate() {
                let uniform: f64 = (0..segs)
                    .filter(|&s| s != row)
                    .map(|s| {
                        keys[s]
                            .iter()
                            .zip(&costs[s])
                            .filter(|(k, _)| *k == key)
                            .map(|(_, &c)| c)
                            .fold(f64::INFINITY, f64::min)
                    })
                    .sum();
                assert!(
                    through[i] <= uniform || close(through[i], uniform),
                    "{case}: candidate {i} prices {} above its uniform chain {uniform}",
                    through[i]
                );
            }
        }
    }

    #[test]
    fn dp_matches_brute_force_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let segs = rng.gen_range(1..5usize);
            // Ragged: every segment draws its own candidate count.
            let ks: Vec<usize> = (0..segs).map(|_| rng.gen_range(1..4usize)).collect();
            let costs: Vec<Vec<f64>> = ks
                .iter()
                .map(|&k| (0..k).map(|_| rng.gen_range(0.0..10.0)).collect())
                .collect();
            let kmax = ks.iter().copied().max().unwrap();
            let tr: Vec<Vec<f64>> = (0..kmax)
                .map(|_| (0..kmax).map(|_| rng.gen_range(0.0..3.0)).collect())
                .collect();
            let dp = solve_chain(&costs, |_, a, b| tr[a][b]).unwrap();
            // Brute force over the ragged product space.
            let mut best = f64::INFINITY;
            let mut stack = vec![(0usize, 0.0f64, usize::MAX)];
            while let Some((s, acc, prev)) = stack.pop() {
                if s == segs {
                    best = best.min(acc);
                    continue;
                }
                for c in 0..ks[s] {
                    let t = if prev == usize::MAX { 0.0 } else { tr[prev][c] };
                    stack.push((s + 1, acc + costs[s][c] + t, c));
                }
            }
            assert!(
                (dp.cost - best).abs() < 1e-9,
                "dp {} vs brute {}",
                dp.cost,
                best
            );
        }
    }
}
