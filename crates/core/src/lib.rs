#![warn(missing_docs)]

//! # qp-core
//!
//! The paper's contribution: a generalized preference model and query
//! personalization algorithms (Koutrika & Ioannidis, ICDE 2005).
//!
//! ## Model (§3)
//!
//! * [`Doi`] — a degree-of-interest pair `(dT, dF)` capturing the three
//!   preference dimensions: *valence* (positive / negative / indifferent),
//!   *concern* (presence / absence), and *elasticity* (exact /
//!   [`ElasticFunction`]).
//! * [`Preference`] — atomic selection preferences (a condition on an
//!   attribute plus its [`Doi`]) and directed atomic join preferences.
//! * [`Profile`] — a user's stored atomic preferences, serializable in the
//!   paper's own `doi(R.A = 'v') = (x, y)` notation (Figure 2).
//! * [`graph::PersonalizationGraph`] — the schema-graph extension over
//!   which *implicit preferences* are composed (degrees multiply along
//!   acyclic paths, §3.2), with *degree of criticality* `c = d0+ + |d0-|`
//!   and the incremental *fake criticality* labels of §4.1.
//!
//! ## Algorithms (§4–§5)
//!
//! * Preference selection: [`select::sps`] (worst-case bound `cS <= 2 cJ`),
//!   [`select::fakecrit`] (Figure 5), and [`select::doi_based`] (§4.2,
//!   selection driven by the desired doi of results via the `dworst`
//!   bound).
//! * Ranking functions (§3.3): inflationary / dominant / reserved positive
//!   and negative combinations, and the two mixed-combination formulas (5)
//!   and (6) — see [`ranking::Ranking`].
//! * Personalized answers (§5): [`answer::spa`] rewrites the query into a
//!   union of per-preference sub-queries executed as one SQL statement;
//!   [`answer::ppa`] (Figure 6) evaluates sub-queries progressively,
//!   emitting ranked, self-explanatory tuples as soon as the
//!   maximum-estimated-degree-of-interest (MEDI) bound allows.
//! * [`Personalizer`] — the high-level facade: profile + SQL in,
//!   personalized ranked answer out.

pub mod admission;
pub mod answer;
pub mod context;
pub mod criticality;
pub mod degrade;
pub mod descriptor;
pub mod doi;
pub mod elastic;
pub mod error;
pub mod graph;
pub mod mapping;
pub mod mining;
pub mod personalize;
pub mod preference;
pub mod profile;
pub mod ranking;
pub mod select;
pub mod skyline;
pub mod store;

pub use admission::{
    is_transient, AdmissionConfig, AdmissionController, AdmissionPermit, BreakerConfig,
    BreakerDecision, BreakerState, BreakerTransition, CircuitBreaker, Resilience, RetryPolicy,
    Shed,
};
pub use answer::degree::engine;
pub use answer::explain::{explain_answer, explain_tuple};
pub use answer::maint::{MaintOutcome, Maintainer, MatRegistry};
pub use answer::ppa::{ppa_guarded, ppa_limited};
pub use answer::{PersonalizedAnswer, PersonalizedTuple};
pub use context::{Context, ContextRule, ContextualProfile};
pub use degrade::{DegradeCause, DegradeEvent, Degradation, PpaPhase};
pub use descriptor::QualityDescriptor;
pub use mapping::ConceptSchema;
pub use mining::{mine_profile, Feedback, MinerConfig};
pub use doi::{Degree, Doi};
pub use elastic::{ElasticFunction, ElasticShape};
pub use error::PrefError;
pub use graph::PersonalizationGraph;
pub use personalize::{
    AnswerAlgorithm, CacheActivity, DbPin, PersonalizationOptions, PersonalizeOutcome,
    PersonalizeRequest, Personalizer, ProfileStats, ResilienceActivity, SelectionAlgorithm,
};
pub use preference::{
    CompareOp, JoinPreference, PrefId, Preference, SelCondition, SelectionPreference,
};
pub use profile::{Profile, STORED_ID_BIT};
pub use ranking::{MixedKind, Ranking, RankingKind};
pub use select::{
    PrefKey, PreferenceCache, SelectedPreference, SelectionCriterion, SelectionStats,
};
pub use skyline::skyline;
pub use store::{
    CheckpointStats, FsyncPolicy, PersistOptions, ProfileHandle, ProfileStore, SelKey, UserId,
};
