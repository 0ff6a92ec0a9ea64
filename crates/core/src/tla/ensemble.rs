//! Ensemble TLA (paper §V-E, Algorithm 1): dynamically choose a TLA
//! algorithm for every function evaluation.
//!
//! After each evaluation the ensemble updates a probability distribution
//! over its pool from the best output each algorithm's proposals have
//! achieved (Eq. 3, `prob(t) ∝ 1 / best_output(t)`), and mixes in an
//! exploration rate (Eq. 4) that decays as target samples accumulate:
//!
//! ```text
//! ExplorationRate = (|T| d / n) / (1 + |T| d / n)
//! ```
//!
//! Two deliberately naive baselines are also provided for the paper's
//! ablation: `Ensemble(toggling)` (round-robin) and `Ensemble(prob)`
//! (Eq. 3 only, exploration pinned to zero).

use super::{TlaContext, TlaStrategy};
use crowdtune_obs as obs;
use rand::rngs::StdRng;
use rand::Rng;

/// Selection policy of the ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsemblePolicy {
    /// Algorithm 1: Eq. 3 PDF + Eq. 4 exploration rate (the proposal).
    Proposed,
    /// Round-robin through the pool.
    Toggling,
    /// Eq. 3 PDF only (exploration rate identically 0).
    ProbOnly,
}

/// Per-algorithm attribution bookkeeping.
struct Member {
    strategy: Box<dyn TlaStrategy>,
    /// Best objective among evaluations this member proposed.
    best: Option<f64>,
    /// Number of evaluations attributed to this member.
    chosen: usize,
}

/// The ensemble TLA strategy.
pub struct Ensemble {
    members: Vec<Member>,
    policy: EnsemblePolicy,
    last_choice: Option<usize>,
    next_round_robin: usize,
    label: String,
}

impl Ensemble {
    /// Build an ensemble over a pool with the given policy. The paper's
    /// default pool is `{Multitask(TS), WeightedSum(dynamic), Stacking}`.
    pub fn new(pool: Vec<Box<dyn TlaStrategy>>, policy: EnsemblePolicy) -> Self {
        assert!(!pool.is_empty(), "ensemble needs at least one member");
        let label = match policy {
            EnsemblePolicy::Proposed => "Ensemble(proposed)",
            EnsemblePolicy::Toggling => "Ensemble(toggling)",
            EnsemblePolicy::ProbOnly => "Ensemble(prob)",
        }
        .to_string();
        Ensemble {
            members: pool
                .into_iter()
                .map(|s| Member {
                    strategy: s,
                    best: None,
                    chosen: 0,
                })
                .collect(),
            policy,
            last_choice: None,
            next_round_robin: 0,
            label,
        }
    }

    /// The paper's default pool with the proposed policy.
    pub fn proposed_default() -> Self {
        Ensemble::new(
            vec![
                Box::new(super::multitask::MultitaskTs::new()),
                Box::new(super::weighted::WeightedSum::dynamic()),
                Box::new(super::stacking::Stacking::new()),
            ],
            EnsemblePolicy::Proposed,
        )
    }

    /// Eq. 4 exploration rate.
    fn exploration_rate(n_algorithms: usize, n_parameters: usize, n_samples: usize) -> f64 {
        if n_samples == 0 {
            return 1.0;
        }
        let ratio = (n_algorithms * n_parameters) as f64 / n_samples as f64;
        ratio / (1.0 + ratio)
    }

    /// Eq. 3 probability distribution over members (higher probability
    /// for members whose proposals achieved better/lower outputs).
    /// Members with no attributed samples get the pool's best value so
    /// they are neither favored nor punished. Non-positive outputs fall
    /// back to a rank-based distribution (Eq. 3 assumes positive
    /// objectives like runtimes).
    fn selection_probabilities(&self) -> Vec<f64> {
        let k = self.members.len();
        let known: Vec<f64> = self.members.iter().filter_map(|m| m.best).collect();
        if known.is_empty() {
            return vec![1.0 / k as f64; k];
        }
        let pool_best = known.iter().cloned().fold(f64::INFINITY, f64::min);
        let effective: Vec<f64> = self
            .members
            .iter()
            .map(|m| m.best.unwrap_or(pool_best))
            .collect();
        if effective.iter().any(|&v| v <= 0.0) {
            // Rank-based fallback: best rank gets weight k, worst gets 1.
            let mut idx: Vec<usize> = (0..k).collect();
            idx.sort_by(|&a, &b| {
                effective[a]
                    .partial_cmp(&effective[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut w = vec![0.0; k];
            for (rank, &i) in idx.iter().enumerate() {
                w[i] = (k - rank) as f64;
            }
            let sum: f64 = w.iter().sum();
            return w.into_iter().map(|v| v / sum).collect();
        }
        let inv: Vec<f64> = effective.iter().map(|v| 1.0 / v).collect();
        let sum: f64 = inv.iter().sum();
        inv.into_iter().map(|v| v / sum).collect()
    }

    fn choose(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> usize {
        let k = self.members.len();
        match self.policy {
            EnsemblePolicy::Toggling => {
                let i = self.next_round_robin % k;
                self.next_round_robin += 1;
                i
            }
            EnsemblePolicy::ProbOnly => sample_index(&self.selection_probabilities(), rng),
            EnsemblePolicy::Proposed => {
                let rate = Self::exploration_rate(k, ctx.dim(), ctx.target.len());
                if rng.gen::<f64>() < rate {
                    rng.gen_range(0..k)
                } else {
                    sample_index(&self.selection_probabilities(), rng)
                }
            }
        }
    }

    /// Attribution counts per member (diagnostics).
    pub fn attribution(&self) -> Vec<(String, usize, Option<f64>)> {
        self.members
            .iter()
            .map(|m| (m.strategy.name().to_string(), m.chosen, m.best))
            .collect()
    }
}

fn sample_index(probs: &[f64], rng: &mut StdRng) -> usize {
    let r: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    probs.len() - 1
}

impl TlaStrategy for Ensemble {
    fn name(&self) -> &str {
        &self.label
    }

    fn propose(&mut self, ctx: &TlaContext<'_>, rng: &mut StdRng) -> Vec<f64> {
        let i = self.choose(ctx, rng);
        self.last_choice = Some(i);
        self.members[i].chosen += 1;
        // Journal the Eq. 3 distribution alongside the member actually
        // chosen (which may differ under the Eq. 4 exploration branch).
        // Recomputing the probabilities is pure — no RNG is consumed.
        obs::record_with(|| obs::Event::Weights {
            strategy: self.label.clone(),
            weights: self.selection_probabilities(),
            chosen: self.members[i].strategy.name().to_string(),
        });
        self.members[i].strategy.propose(ctx, rng)
    }

    fn observe(&mut self, x: &[f64], y: Option<f64>) {
        if let Some(i) = self.last_choice {
            self.members[i].strategy.observe(x, y);
            if let Some(y) = y {
                let entry = &mut self.members[i].best;
                *entry = Some(match entry {
                    Some(b) => b.min(y),
                    None => y,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::SearchOptions;
    use crate::data::Dataset;
    use crate::tla::random_proposal;
    use crate::tla::testutil::ctx;
    use rand::SeedableRng;

    /// A stub member that proposes a fixed coordinate (identifiable).
    struct Stub {
        coord: f64,
        name: &'static str,
    }

    impl TlaStrategy for Stub {
        fn name(&self) -> &str {
            self.name
        }
        fn propose(&mut self, ctx: &TlaContext<'_>, _rng: &mut StdRng) -> Vec<f64> {
            vec![self.coord; ctx.dim()]
        }
    }

    fn stub_pool() -> Vec<Box<dyn TlaStrategy>> {
        vec![
            Box::new(Stub {
                coord: 0.1,
                name: "a",
            }),
            Box::new(Stub {
                coord: 0.5,
                name: "b",
            }),
            Box::new(Stub {
                coord: 0.9,
                name: "c",
            }),
        ]
    }

    #[test]
    fn exploration_rate_decays_with_samples() {
        let e1 = Ensemble::exploration_rate(3, 4, 1);
        let e10 = Ensemble::exploration_rate(3, 4, 10);
        let e100 = Ensemble::exploration_rate(3, 4, 100);
        assert!(e1 > e10 && e10 > e100);
        assert_eq!(Ensemble::exploration_rate(3, 4, 0), 1.0);
        // Spot value: |T|=3, d=4, n=12 => ratio 1 => rate 0.5.
        assert!((Ensemble::exploration_rate(3, 4, 12) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exploration_rate_grows_with_pool_and_dims() {
        assert!(Ensemble::exploration_rate(5, 4, 10) > Ensemble::exploration_rate(2, 4, 10));
        assert!(Ensemble::exploration_rate(3, 8, 10) > Ensemble::exploration_rate(3, 2, 10));
    }

    #[test]
    fn toggling_cycles_round_robin() {
        let mut e = Ensemble::new(stub_pool(), EnsemblePolicy::Toggling);
        let target = Dataset::default();
        let search = SearchOptions::default();
        let c = ctx(&[], &target, &search);
        let mut rng = StdRng::seed_from_u64(1);
        let coords: Vec<f64> = (0..6).map(|_| e.propose(&c, &mut rng)[0]).collect();
        assert_eq!(coords, vec![0.1, 0.5, 0.9, 0.1, 0.5, 0.9]);
    }

    #[test]
    fn probability_favors_the_better_member() {
        let mut e = Ensemble::new(stub_pool(), EnsemblePolicy::ProbOnly);
        // Attribute results: member 0 found 1.0 (good), member 1 found
        // 10.0 (bad), member 2 unknown.
        e.last_choice = Some(0);
        e.observe(&[0.1], Some(1.0));
        e.last_choice = Some(1);
        e.observe(&[0.5], Some(10.0));
        let probs = e.selection_probabilities();
        assert!(probs[0] > probs[1], "{probs:?}");
        // Unknown member gets the pool best => same prob as member 0.
        assert!((probs[2] - probs[0]).abs() < 1e-12, "{probs:?}");
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Eq. 3 exactly: 1/1 : 1/10 : 1/1.
        assert!((probs[0] - (1.0 / 2.1)).abs() < 1e-9);
    }

    #[test]
    fn nonpositive_outputs_use_rank_fallback() {
        let mut e = Ensemble::new(stub_pool(), EnsemblePolicy::ProbOnly);
        e.last_choice = Some(0);
        e.observe(&[0.1], Some(-5.0));
        e.last_choice = Some(1);
        e.observe(&[0.5], Some(2.0));
        let probs = e.selection_probabilities();
        assert!(
            probs[0] > probs[1],
            "negative-but-better still favored: {probs:?}"
        );
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn proposed_policy_explores_early_exploits_late() {
        let search = SearchOptions::default();
        let mut rng = StdRng::seed_from_u64(7);
        // Late stage: many samples, member 0 is far better => picked most.
        let mut target = Dataset::default();
        for i in 0..200 {
            target.push(vec![i as f64 / 200.0], 1.0);
        }
        let c = ctx(&[], &target, &search);
        let mut e = Ensemble::new(stub_pool(), EnsemblePolicy::Proposed);
        e.last_choice = Some(0);
        e.observe(&[0.1], Some(0.01));
        e.last_choice = Some(1);
        e.observe(&[0.5], Some(100.0));
        e.last_choice = Some(2);
        e.observe(&[0.9], Some(100.0));
        let mut count0 = 0;
        for _ in 0..200 {
            if e.propose(&c, &mut rng)[0] == 0.1 {
                count0 += 1;
            }
        }
        assert!(count0 > 150, "best member chosen {count0}/200");
    }

    #[test]
    fn failed_observations_do_not_update_best() {
        let mut e = Ensemble::new(stub_pool(), EnsemblePolicy::ProbOnly);
        e.last_choice = Some(0);
        e.observe(&[0.1], None);
        assert_eq!(e.members[0].best, None);
    }

    #[test]
    fn attribution_reporting() {
        let mut e = Ensemble::new(stub_pool(), EnsemblePolicy::Toggling);
        let target = Dataset::default();
        let search = SearchOptions::default();
        let c = ctx(&[], &target, &search);
        let mut rng = StdRng::seed_from_u64(3);
        let x = e.propose(&c, &mut rng);
        e.observe(&x, Some(4.2));
        let att = e.attribution();
        assert_eq!(att[0].0, "a");
        assert_eq!(att[0].1, 1);
        assert_eq!(att[0].2, Some(4.2));
        // Sanity: random_proposal helper reachable from this module.
        let _ = random_proposal(2, &mut rng);
    }
}
