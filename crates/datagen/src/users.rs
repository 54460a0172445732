//! Simulated users — the substitute for the 14 human subjects of §6.2.
//!
//! Each simulated user owns:
//! * a **latent** preference set — the ground truth of what they actually
//!   like, used to rate tuples;
//! * a **stored** profile — the (imperfect) subset the system knows, used
//!   for personalization;
//! * a **ranking philosophy** (inflationary / dominant / reserved) —
//!   §6.3 found real users follow one of the three;
//! * **rating noise** — humans are not deterministic scorers; novices are
//!   noisier than experts.
//!
//! A user rates a tuple by combining the latent preferences the tuple
//! satisfies/fails under their philosophy, scaling to the paper's
//! `[-10, 10]` scale, and adding noise. Answer-level measurements follow
//! §6.2: an overall *answer score* in `[-10, 10]`, a *degree of
//! difficulty* (how far down the list the first interesting tuple sits),
//! and *coverage* (what fraction of the latently interesting tuples the
//! answer contains).

use std::collections::HashMap;

use qp_core::answer::subquery::{classify, satisfaction_select};
use qp_core::select::{fakecrit::fakecrit, QueryContext, SelectionCriterion};
use qp_core::{MixedKind, PersonalizationGraph, PrefError, Profile, Ranking, RankingKind};
use qp_sql::{builder, Query, SelectItem, TableRef};
use qp_storage::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profiles::{random_profile, standard_joins, ProfileSpec};

/// Interest threshold (on the `[-10, 10]` scale) above which a tuple
/// counts as "interesting" for difficulty and coverage.
pub const INTEREST_THRESHOLD: f64 = 3.0;

/// How many tuples a subject realistically inspects before giving up.
/// Coverage is measured over this prefix: a thousand-tuple unordered
/// answer does not "cover the need" just because the gems are buried in
/// it somewhere.
pub const INSPECT_LIMIT: usize = 50;

/// A simulated evaluation subject.
#[derive(Debug, Clone)]
pub struct SimulatedUser {
    /// Display name.
    pub name: String,
    /// Experts have richer stored profiles and rate less noisily.
    pub expert: bool,
    /// Ground-truth preferences (never shown to the system).
    pub latent: Profile,
    /// The profile the system personalizes with (a subset of the latent
    /// preferences).
    pub stored: Profile,
    /// The user's internal combination philosophy.
    pub philosophy: RankingKind,
    /// Std-dev of the rating noise.
    pub noise: f64,
    /// Per-user RNG seed (rating noise is deterministic given the seed).
    pub seed: u64,
}

/// Creates `n_experts + n_novices` simulated users with round-robin
/// philosophies. The paper used 8 experts and 6 novices.
pub fn simulate_users(
    db: &Database,
    n_experts: usize,
    n_novices: usize,
    seed: u64,
) -> Vec<SimulatedUser> {
    let mut users = Vec::with_capacity(n_experts + n_novices);
    for i in 0..(n_experts + n_novices) {
        let expert = i < n_experts;
        let user_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
        let latent_n = if expert { 24 } else { 14 };
        let latent = random_profile(db, &ProfileSpec::mixed(latent_n, user_seed));
        let keep_fraction = if expert { 0.75 } else { 0.5 };
        let stored = subset_profile(db, &latent, keep_fraction, user_seed ^ 0x5eed);
        users.push(SimulatedUser {
            name: format!("{}{}", if expert { "expert" } else { "novice" }, i),
            expert,
            latent,
            stored,
            philosophy: RankingKind::ALL[i % 3],
            noise: if expert { 0.8 } else { 1.6 },
            seed: user_seed,
        });
    }
    users
}

/// Keeps a random fraction of the selection preferences (and all joins).
fn subset_profile(db: &Database, latent: &Profile, fraction: f64, seed: u64) -> Profile {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stored = Profile::new();
    standard_joins(db, &mut stored, &mut rng);
    for (_, s) in latent.selections() {
        if rng.gen::<f64>() < fraction {
            stored.push(qp_core::Preference::Selection(s.clone()));
        }
    }
    stored
}

/// Ground-truth evaluation of one query under one user's latent
/// preferences: for every tuple id of the query, which latent preferences
/// it satisfies (with degree) and which it fails.
#[derive(Debug)]
pub struct LatentEvaluator {
    /// Per latent preference: tuple id → satisfaction degree.
    sat: Vec<HashMap<u64, f64>>,
    /// Per latent preference: failure degree (≤ 0).
    d_minus: Vec<f64>,
    /// Combination function.
    ranking: Ranking,
    /// All tuple ids of the (un-personalized) query.
    pub all_ids: Vec<u64>,
}

impl SimulatedUser {
    /// Builds the latent evaluator for a query: runs each latent
    /// preference's satisfaction sub-query once and indexes the tuple ids.
    pub fn evaluate_query(
        &self,
        db: &Database,
        query: &Query,
    ) -> Result<LatentEvaluator, PrefError> {
        let engine = qp_core::engine();
        let graph = PersonalizationGraph::build(&self.latent);
        let qc = QueryContext::from_query(db.catalog(), query)?;
        let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(1000))?;
        let infos = classify(db, &self.latent, &selected);
        let initial = query.selects()[0];
        let first_binding = match &initial.from[0] {
            TableRef::Relation { name, alias } => alias.clone().unwrap_or_else(|| name.clone()),
            TableRef::Derived { .. } => {
                return Err(PrefError::UnsupportedQuery("derived FROM".into()))
            }
        };
        // all tuple ids of the plain query
        let mut base = initial.clone();
        base.items =
            vec![builder::item_as(builder::col(&first_binding, "rowid"), "qp_tid")];
        base.distinct = true;
        let rs = engine.execute(db, &Query::from_select(base))?;
        let all_ids: Vec<u64> =
            rs.rows.iter().filter_map(|r| r[0].as_i64()).filter(|t| *t >= 0).map(|t| t as u64).collect();

        let mut sat = Vec::with_capacity(selected.len());
        let mut d_minus = Vec::with_capacity(selected.len());
        for (sp, info) in selected.iter().zip(&infos) {
            let fb = first_binding.clone();
            let proj = move |_anchor: &str, degree: qp_sql::Expr| -> Vec<SelectItem> {
                vec![
                    builder::item_as(builder::col(&fb, "rowid"), "qp_tid"),
                    builder::item_as(degree, "qp_degree"),
                ]
            };
            let s = satisfaction_select(db.catalog(), initial, &self.latent, sp, info, &proj)?;
            let rs = engine.execute(db, &Query::from_select(s))?;
            let mut map = HashMap::with_capacity(rs.len());
            for row in &rs.rows {
                if let (Some(tid), d) = (row[0].as_i64(), row[1].as_f64()) {
                    if tid >= 0 {
                        map.insert(tid as u64, d.unwrap_or(info.d_plus).max(0.0));
                    }
                }
            }
            sat.push(map);
            d_minus.push(info.d_minus);
        }
        Ok(LatentEvaluator {
            sat,
            d_minus,
            ranking: Ranking::new(self.philosophy, MixedKind::CountWeighted),
            all_ids,
        })
    }

    /// The user's *noiseless* interest in a tuple, on `[-10, 10]`.
    pub fn true_interest(&self, eval: &LatentEvaluator, tid: u64) -> f64 {
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for (m, dm) in eval.sat.iter().zip(&eval.d_minus) {
            match m.get(&tid) {
                Some(d) => pos.push(*d),
                None => {
                    if *dm < 0.0 {
                        neg.push(*dm);
                    }
                }
            }
        }
        (eval.ranking.mixed(&pos, &neg) * 10.0).clamp(-10.0, 10.0)
    }

    /// The rating the user reports for a tuple: true interest plus noise,
    /// clamped to the paper's `[-10, 10]` scale. Deterministic for a given
    /// `(user, tuple, salt)`.
    pub fn rate_tuple(&self, eval: &LatentEvaluator, tid: u64, salt: u64) -> f64 {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ tid.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
        let noise: f64 = (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() - 1.5) * self.noise;
        (self.true_interest(eval, tid) + noise).clamp(-10.0, 10.0)
    }
}

/// The three §6.2 answer-level measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerEvaluation {
    /// Overall answer score, `[-10, 10]`.
    pub answer_score: f64,
    /// Degree of difficulty to find something interesting, `[0, 2.5]`
    /// (higher = harder; 2.5 = found nothing).
    pub difficulty: f64,
    /// Fraction of the latently interesting tuples present in the answer,
    /// `[0, 1]`.
    pub coverage: f64,
}

/// Evaluates an answer (tuple ids in presentation order) against the
/// user's latent interests.
pub fn evaluate_answer(
    user: &SimulatedUser,
    eval: &LatentEvaluator,
    answer_ids: &[u64],
    salt: u64,
) -> AnswerEvaluation {
    // interesting tuples across the whole (un-personalized) result
    let interesting: std::collections::HashSet<u64> = eval
        .all_ids
        .iter()
        .copied()
        .filter(|t| user.true_interest(eval, *t) >= INTEREST_THRESHOLD)
        .collect();
    // coverage over the inspected prefix: how many of the interesting
    // tuples the user actually encounters
    let coverage = if interesting.is_empty() {
        // nothing to find: full coverage by definition
        1.0
    } else {
        let found: usize = answer_ids
            .iter()
            .take(INSPECT_LIMIT)
            .filter(|t| interesting.contains(t))
            .count();
        found as f64 / interesting.len().min(INSPECT_LIMIT) as f64
    };

    // difficulty: rank of the first interesting tuple, log-scaled to
    // [0, 2.5]; 2.5 when none is found
    let first_rank = answer_ids
        .iter()
        .position(|t| user.rate_tuple(eval, *t, salt) >= INTEREST_THRESHOLD)
        .map(|p| p + 1);
    let difficulty = match first_rank {
        Some(r) => (2.5 * ((r as f64).ln_1p() / 101.0_f64.ln())).min(2.5),
        None => 2.5,
    };

    // answer score: mean rating of the first tuples the user would
    // actually inspect, with a mild penalty for unwieldy answers
    let inspect = answer_ids.len().min(20);
    let score = if inspect == 0 {
        0.0
    } else {
        let mean: f64 = answer_ids[..inspect]
            .iter()
            .map(|t| user.rate_tuple(eval, *t, salt))
            .sum::<f64>()
            / inspect as f64;
        let size_penalty = if answer_ids.len() > 200 {
            (answer_ids.len() as f64 / 200.0).ln()
        } else {
            0.0
        };
        (mean - size_penalty).clamp(-10.0, 10.0)
    };
    AnswerEvaluation { answer_score: score, difficulty, coverage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imdb::{generate, ImdbScale};
    use crate::queries::trial1_queries;
    use qp_sql::parse_query;

    fn db() -> Database {
        generate(ImdbScale { movies: 400, ..ImdbScale::small() })
    }

    #[test]
    fn users_created_with_expected_mix() {
        let db = db();
        let users = simulate_users(&db, 8, 6, 1);
        assert_eq!(users.len(), 14);
        assert_eq!(users.iter().filter(|u| u.expert).count(), 8);
        // all three philosophies present
        for kind in RankingKind::ALL {
            assert!(users.iter().any(|u| u.philosophy == kind), "{kind:?} missing");
        }
        // stored is a subset of latent
        for u in &users {
            assert!(u.stored.selections().count() <= u.latent.selections().count());
        }
    }

    #[test]
    fn ratings_deterministic_and_bounded() {
        let db = db();
        let users = simulate_users(&db, 1, 0, 2);
        let q = parse_query(trial1_queries()[0]).unwrap();
        let eval = users[0].evaluate_query(&db, &q).unwrap();
        assert!(!eval.all_ids.is_empty());
        let t = eval.all_ids[0];
        let a = users[0].rate_tuple(&eval, t, 0);
        let b = users[0].rate_tuple(&eval, t, 0);
        assert_eq!(a, b);
        for &t in eval.all_ids.iter().take(50) {
            let r = users[0].rate_tuple(&eval, t, 0);
            assert!((-10.0..=10.0).contains(&r));
        }
    }

    #[test]
    fn interesting_tuples_rated_higher() {
        let db = db();
        let users = simulate_users(&db, 2, 0, 3);
        let u = &users[0];
        let q = parse_query(trial1_queries()[0]).unwrap();
        let eval = u.evaluate_query(&db, &q).unwrap();
        // tuples satisfying some latent preference should outscore (on
        // average) tuples failing everything
        let mut sat_scores = Vec::new();
        let mut rest_scores = Vec::new();
        for &t in &eval.all_ids {
            let i = u.true_interest(&eval, t);
            if eval.sat.iter().any(|m| m.contains_key(&t)) {
                sat_scores.push(i);
            } else {
                rest_scores.push(i);
            }
        }
        if !sat_scores.is_empty() && !rest_scores.is_empty() {
            let ms = sat_scores.iter().sum::<f64>() / sat_scores.len() as f64;
            let mr = rest_scores.iter().sum::<f64>() / rest_scores.len() as f64;
            assert!(ms > mr, "satisfying {ms} <= failing {mr}");
        }
    }

    #[test]
    fn answer_evaluation_sane() {
        let db = db();
        let users = simulate_users(&db, 1, 1, 4);
        let u = &users[1];
        let q = parse_query(trial1_queries()[0]).unwrap();
        let eval = u.evaluate_query(&db, &q).unwrap();
        // "perfect" answer: all interesting tuples, ranked by interest
        let mut ids = eval.all_ids.clone();
        ids.sort_by(|a, b| u.true_interest(&eval, *b).total_cmp(&u.true_interest(&eval, *a)));
        let good = evaluate_answer(u, &eval, &ids[..ids.len().min(30)], 0);
        // unordered full answer
        let bad = evaluate_answer(u, &eval, &eval.all_ids, 0);
        assert!(good.answer_score >= bad.answer_score, "{good:?} vs {bad:?}");
        // an interest-ranked answer surfaces something interesting at the
        // very top (difficulty comparisons against the unordered answer
        // are noisy — a lucky tuple may sit at its head — so only the
        // absolute bound is asserted)
        assert!(good.difficulty <= 1.0, "{good:?}");
        assert!((0.0..=1.0).contains(&good.coverage));
        assert!((0.0..=2.5).contains(&bad.difficulty));
    }
}
