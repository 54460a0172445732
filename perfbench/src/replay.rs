//! In-process work against the server's own stores: the reference answers
//! that wire answers are checked against, and (traced runs only) the
//! replays that split a request's server time into layers. Every call
//! here is a public function of a layer; no span is added to the program.

use std::sync::Arc;
use std::time::Instant;

use qp_client::{Answer, Json, Response, WireTuple};
use qp_core::select::QueryContext;
use qp_core::{
    AnswerAlgorithm, MatRegistry, PersonalizationOptions, PersonalizeOutcome, PersonalizeRequest,
    Personalizer, ProfileStore, SelKey, UserId,
};
use qp_obs::{MemoryRecorder, SpanRecord, Tracer};
use qp_sql::parse_query;
use qp_storage::{SnapshotStore, Value};

use crate::session::us;

/// A storage value as the server puts it on the wire.
fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Num(*i as f64),
        Value::Float(f) => Json::Num(*f),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::Bool(b) => Json::Bool(*b),
    }
}

/// An answer's columns and ranked tuples in wire form.
pub type Expected = (Vec<String>, Vec<WireTuple>);

/// The answer a fresh personalizer computes for `user` at the store's
/// current epoch, from the stored profile but without the server's
/// materialization registry, selection memo or caches. `options` must be
/// the request's own, algorithm included: SPA and PPA give a tuple that
/// fails a preference different degrees.
pub fn reference(
    store: &Arc<SnapshotStore>,
    profiles: &ProfileStore,
    user: u64,
    sql: &str,
    options: PersonalizationOptions,
) -> Result<Expected, String> {
    let handle = profiles
        .get(UserId(user))
        .ok_or("user not in the profile store")?;
    let profile = handle.profile().map_err(|e| e.to_string())?;
    let mut fresh = Personalizer::serving(Arc::clone(store));
    let out = fresh
        .run(PersonalizeRequest::sql(&profile, sql).options(options))
        .map_err(|e| e.to_string())?;
    let answer = out.report.answer;
    let tuples = answer
        .tuples
        .iter()
        .map(|t| WireTuple {
            doi: t.doi,
            row: t.row.iter().map(value_to_json).collect(),
        })
        .collect();
    Ok((answer.columns, tuples))
}

/// Whether a wire answer is complete and equal, tuple for tuple and
/// degree for degree, to the reference.
pub fn same_answer(got: &Answer, want: &Expected) -> bool {
    !got.degraded && got.columns == want.0 && got.tuples == want.1
}

/// Folds an answer's columns and tuples (not its timing fields) into an
/// FNV-1a digest.
pub fn digest(mut h: u64, answer: &Answer) -> u64 {
    let content = Json::Arr(vec![
        Json::Arr(
            answer
                .columns
                .iter()
                .map(|c| Json::str(c.as_str()))
                .collect(),
        ),
        Json::Arr(
            answer
                .tuples
                .iter()
                .map(|t| Json::Arr(vec![Json::Num(t.doi), Json::Arr(t.row.clone())]))
                .collect(),
        ),
    ]);
    for b in content.to_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// PPA's times for one request (µs) and its parameterized queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct PpaTimes {
    /// The `ppa.run` span.
    pub run: f64,
    /// Time to the first emitted tuple.
    pub first_response: f64,
    /// The `ppa.presence` spans.
    pub presence: f64,
    /// The `ppa.absence` spans.
    pub absence: f64,
    /// The `ppa.residual` spans.
    pub residual: f64,
    /// Parameterized queries executed.
    pub param_queries: f64,
}

/// SPA's times for one request (µs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpaTimes {
    /// The `spa.run` span.
    pub run: f64,
    /// The `spa.build` span (rewrite and plan).
    pub build: f64,
    /// The `spa.execute` span.
    pub execute: f64,
}

/// What one replay measured (µs unless said otherwise).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// `Response::to_json().to_string()` of the answer.
    pub encode: f64,
    /// `ProfileStore::get` plus `ProfileHandle::profile`.
    pub resolve: f64,
    /// Selection as the server met it: a memo lookup when the memo held
    /// the request's context before it was sent, else the full walk.
    pub select: f64,
    /// Whether the memo held the request's context before it was sent.
    pub memo_hit: bool,
    /// The answer phase of the algorithm the request asked for.
    pub answer: f64,
    /// PPA, when the request asked for it.
    pub ppa: PpaTimes,
    /// SPA, when the request asked for it.
    pub spa: SpaTimes,
    /// `Engine::execute_sql` of the unpersonalized query.
    pub base: f64,
    /// Plan-cache hits of the on-path run.
    pub plan_hits: u64,
    /// Plan-cache lookups of the on-path run.
    pub plan_lookups: u64,
}

/// Replays requests in-process against the server's stores.
pub struct Replayer {
    /// Mirrors a server connection's personalizer: the shared profile
    /// store and a materialization registry (its own, since the server's
    /// is not reachable from outside).
    warm: Personalizer<'static>,
    /// Selection without any cache: what a memo miss costs.
    cold: Personalizer<'static>,
    profiles: Arc<ProfileStore>,
    options: PersonalizationOptions,
}

/// Total microseconds of the spans called `name`.
fn span_us(spans: &[SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.elapsed_us as f64)
        .sum()
}

impl Replayer {
    /// A replayer over the server's snapshot store and profile store,
    /// using the options the server gives the workload's requests.
    pub fn new(
        store: &Arc<SnapshotStore>,
        profiles: &Arc<ProfileStore>,
        options: PersonalizationOptions,
    ) -> Replayer {
        let warm = Personalizer::serving(Arc::clone(store))
            .with_profile_store(Arc::clone(profiles))
            .with_maintenance(Arc::new(MatRegistry::new()));
        let mut cold = Personalizer::serving(Arc::clone(store));
        cold.set_preference_cache_enabled(false);
        Replayer {
            warm,
            cold,
            profiles: Arc::clone(profiles),
            options,
        }
    }

    /// Whether the user's selection memo already holds `sql`'s query
    /// context. Asked before the request is sent.
    pub fn memo_warm(&self, user: u64, sql: &str) -> bool {
        let (Ok(query), Some(handle)) = (parse_query(sql), self.profiles.get(UserId(user))) else {
            return false;
        };
        let db = self.warm.db();
        QueryContext::from_query(db.catalog(), &query).is_ok_and(|qc| {
            handle
                .cached_selection(&SelKey::new(&qc, &self.options))
                .is_some()
        })
    }

    fn traced_run(
        &mut self,
        user: u64,
        sql: &str,
    ) -> Result<(Vec<SpanRecord>, PersonalizeOutcome), String> {
        let recorder = Arc::new(MemoryRecorder::new());
        let out = self
            .warm
            .run(
                PersonalizeRequest::user(UserId(user), sql)
                    .options(self.options)
                    .trace(Tracer::new(recorder.clone())),
            )
            .map_err(|e| e.to_string())?;
        Ok((recorder.spans(), out))
    }

    fn ppa(&mut self, user: u64, sql: &str) -> Result<(PpaTimes, PersonalizeOutcome), String> {
        let (spans, out) = self.traced_run(user, sql)?;
        let times = PpaTimes {
            run: span_us(&spans, "ppa.run"),
            first_response: out.report.first_response.map_or(0.0, us),
            presence: span_us(&spans, "ppa.presence"),
            absence: span_us(&spans, "ppa.absence"),
            residual: span_us(&spans, "ppa.residual"),
            param_queries: out.report.ppa_stats.map_or(0, |s| s.parameterized_queries) as f64,
        };
        Ok((times, out))
    }

    fn spa(&mut self, user: u64, sql: &str) -> Result<(SpaTimes, PersonalizeOutcome), String> {
        let (spans, out) = self.traced_run(user, sql)?;
        let times = SpaTimes {
            run: span_us(&spans, "spa.run"),
            build: span_us(&spans, "spa.build"),
            execute: span_us(&spans, "spa.execute"),
        };
        Ok((times, out))
    }

    /// Replays one answered request: re-encodes its answer, resolves the
    /// profile, selects, runs the request's algorithm (PPA twice, the
    /// first run untimed, so the replay registry is as warm as the
    /// server's), and executes the unpersonalized query. The other
    /// algorithm's times stay 0: the request never ran it.
    pub fn replay(
        &mut self,
        user: u64,
        sql: &str,
        memo_hit: bool,
        answer: &Answer,
    ) -> Result<Sample, String> {
        let mut sample = Sample {
            memo_hit,
            ..Sample::default()
        };
        let response = Response::Answer(answer.clone());
        let t = Instant::now();
        let encoded = response.to_json().to_string();
        sample.encode = us(t.elapsed());
        std::hint::black_box(encoded.len());

        let t = Instant::now();
        let handle = self
            .profiles
            .get(UserId(user))
            .ok_or("user not in the profile store")?;
        let profile = handle.profile().map_err(|e| e.to_string())?;
        sample.resolve = us(t.elapsed());

        let query = parse_query(sql).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let selected = if memo_hit {
            self.warm
                .select_preferences_for_user(UserId(user), &query, &self.options)
        } else {
            self.cold
                .select_preferences(&profile, &query, &self.options)
        };
        sample.select = us(t.elapsed());
        selected.map_err(|e| e.to_string())?;

        let on_path = match self.options.algorithm {
            AnswerAlgorithm::Ppa => {
                self.ppa(user, sql)?;
                let (ppa, out) = self.ppa(user, sql)?;
                sample.ppa = ppa;
                sample.answer = ppa.run;
                out
            }
            AnswerAlgorithm::Spa => {
                let (spa, out) = self.spa(user, sql)?;
                sample.spa = spa;
                sample.answer = spa.run;
                out
            }
        };
        sample.plan_hits = on_path.cache.plan_hits;
        sample.plan_lookups = on_path.cache.plan_hits + on_path.cache.plan_misses;

        let db = self.warm.db();
        let t = Instant::now();
        let rows = self
            .warm
            .engine()
            .execute_sql(&db, sql)
            .map_err(|e| e.to_string())?;
        sample.base = us(t.elapsed());
        std::hint::black_box(rows.rows.len());
        Ok(sample)
    }
}
