//! The three workloads: their data, their users' profiles, and the
//! seeded sequence of operations each one sends.

use std::collections::VecDeque;

use qp_client::{DeltaSlice, Json};
use qp_core::{AnswerAlgorithm, CompareOp, Doi};
use qp_datagen::imdb::GENRES;
use qp_datagen::{random_profile, ImdbScale, ProfileSpec};
use qp_storage::{Database, Value};

/// The paper's Q1: every movie title.
pub const SCAN_SQL: &str = "select title from MOVIE";

/// `churn`'s reads: the three range queries of the repository's
/// maintenance bench. Inserted movies get ids far above every range, so
/// the answers stay the same size while the materializations behind them
/// change.
pub const CHURN_SQL: [&str; 3] = [
    "select title from MOVIE where MOVIE.mid < 400",
    "select title from MOVIE where year > 1990 and MOVIE.mid < 1000",
    "select title, year from MOVIE where MOVIE.mid > 600 and MOVIE.mid < 1200",
];

/// `lookup`'s point query. The bound `mid` is part of the selection memo's
/// key, so these reads miss the contexts precomputed at registration.
pub fn lookup_sql(mid: u64) -> String {
    format!("select M.title, M.year from MOVIE M where M.mid = {mid}")
}

/// Reads per write in `churn`.
pub const CHURN_READS_PER_WRITE: u64 = 4;

/// A write deletes the movie inserted this many writes earlier.
pub const CHURN_DELETE_LAG: usize = 8;

/// Movie ids of `churn`'s inserts start here, above every generated id.
const CHURN_FIRST_MID: i64 = 10_000_000;

/// One in this many reads is also checked against an in-process run.
pub const CHECK_ONE_IN: u64 = 16;

/// Seed of every workload's database and profiles. Each workload serves
/// one fixed population; the run's seed picks the traffic (which user and
/// query each request carries, the looked-up movies, the deltas). With the
/// population drawn from the run's seed, `churn`'s write p50 differed by
/// a fifth between seeds, far more than between runs of one seed.
pub const FIXTURE_SEED: u64 = 2005;

/// Which traffic mix a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// PPA on Q1 over one connection: large answers.
    Scan,
    /// SPA point queries, a new connection every few requests.
    Lookup,
    /// One delta publish, then reads, on one connection.
    Churn,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "scan" => Some(Kind::Scan),
            "lookup" => Some(Kind::Lookup),
            "churn" => Some(Kind::Churn),
            _ => None,
        }
    }
}

/// Everything that sizes a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The traffic mix.
    pub kind: Kind,
    /// Generated database, seeded with [`FIXTURE_SEED`].
    pub scale: ImdbScale,
    /// Registered users.
    pub users: usize,
    /// Requests per connection; 0 keeps one connection for the run.
    pub session_len: usize,
    /// The one answer algorithm the reads ask for.
    pub algorithm: AnswerAlgorithm,
    /// Whether the server keeps profiles in a data directory.
    pub durable: bool,
    /// Reads sent before timing starts (`churn` instead reads every
    /// user and query pair once).
    pub warmup_reads: usize,
}

impl Spec {
    /// The benchmark's sizing of `kind`.
    pub fn new(kind: Kind) -> Spec {
        let small = ImdbScale {
            seed: FIXTURE_SEED,
            ..ImdbScale::small()
        };
        match kind {
            Kind::Scan => Spec {
                kind,
                scale: small,
                users: 200,
                session_len: 0,
                algorithm: AnswerAlgorithm::Ppa,
                durable: false,
                warmup_reads: 40,
            },
            Kind::Lookup => Spec {
                kind,
                scale: small,
                users: 200,
                session_len: 8,
                algorithm: AnswerAlgorithm::Spa,
                durable: false,
                warmup_reads: 400,
            },
            Kind::Churn => Spec {
                kind,
                scale: small,
                users: 24,
                session_len: 0,
                algorithm: AnswerAlgorithm::Ppa,
                durable: true,
                warmup_reads: 0,
            },
        }
    }

    /// A scaled-down `kind` for tests: a couple of hundred movies.
    #[cfg(test)]
    pub fn tiny(kind: Kind) -> Spec {
        let scale = ImdbScale {
            movies: 200,
            actors: 400,
            directors: 20,
            theatres: 5,
            plays_per_theatre: 10,
            seed: FIXTURE_SEED,
        };
        Spec {
            scale,
            users: 6,
            warmup_reads: 4,
            ..Spec::new(kind)
        }
    }

    /// The reads every user and query pair once, in order: `churn`'s
    /// warm-up, so every materialization exists before writes are timed.
    pub fn every_pair(&self) -> Vec<Read> {
        let queries: &[&str] = match self.kind {
            Kind::Churn => &CHURN_SQL,
            _ => &[SCAN_SQL],
        };
        (0..self.users)
            .flat_map(|user| {
                queries.iter().map(move |sql| Read {
                    user,
                    sql: sql.to_string(),
                    check: false,
                })
            })
            .collect()
    }
}

/// SplitMix64: a small, seedable generator whose sequence is fixed by
/// its seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream label, so independent
    /// streams of one run do not share values.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Each user's profile in the wire's DSL. Every workload draws the
/// repository's mixed profile (presence, dislikes, complex, elastic);
/// `churn` adds two MOVIE range likes, strong enough to be selected, so
/// its writes patch materializations in place as well as rebuild them.
pub fn profiles(db: &Database, spec: &Spec) -> Vec<String> {
    let catalog = db.catalog();
    (0..spec.users)
        .map(|user| {
            let mut rng = Rng::new(FIXTURE_SEED, 1_000 + user as u64);
            let mut profile = random_profile(db, &ProfileSpec::mixed(6, rng.next_u64()));
            if spec.kind == Kind::Churn {
                let year = 1950 + rng.below(40) as i64;
                let minutes = 100 + rng.below(60) as i64;
                for (column, op, value, doi) in [
                    ("year", CompareOp::Gt, year, 0.97),
                    ("duration", CompareOp::Lt, minutes, 0.96),
                ] {
                    profile
                        .add_selection(
                            catalog,
                            "MOVIE",
                            column,
                            op,
                            Value::Int(value),
                            Doi::presence(doi).expect("doi in range"),
                        )
                        .expect("MOVIE has the column");
                }
            }
            profile.to_dsl(catalog)
        })
        .collect()
}

/// One personalize request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    /// Index into the registered users.
    pub user: usize,
    /// The query.
    pub sql: String,
    /// Whether the answer is checked against an in-process run.
    pub check: bool,
}

/// One delta publish: insert a movie and its genre, and retire the
/// movie inserted [`CHURN_DELETE_LAG`] writes earlier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Write {
    /// The inserted movie's id and genre.
    pub insert: (i64, &'static str),
    /// The retired movie's id and genre.
    pub delete: Option<(i64, &'static str)>,
}

impl Write {
    /// The delta as wire slices: MOVIE and GENRE rows, deletes
    /// value-addressed.
    pub fn changes(&self) -> Vec<DeltaSlice> {
        let movie = |mid: i64| {
            vec![
                Json::num(mid as f64),
                Json::str(format!("bench {mid}")),
                Json::num((1960 + mid % 60) as f64),
                Json::num((90 + mid % 60) as f64),
            ]
        };
        let genre = |(mid, g): (i64, &str)| vec![Json::num(mid as f64), Json::str(g)];
        let mut movies = DeltaSlice {
            relation: "MOVIE".into(),
            ..Default::default()
        };
        let mut genres = DeltaSlice {
            relation: "GENRE".into(),
            ..Default::default()
        };
        movies.inserts.push(movie(self.insert.0));
        genres.inserts.push(genre(self.insert));
        if let Some(old) = self.delete {
            movies.deletes.push(movie(old.0));
            genres.deletes.push(genre(old));
        }
        vec![movies, genres]
    }
}

/// One operation of the closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A personalize request.
    Read(Read),
    /// A delta publish.
    Write(Write),
}

/// The seeded operation sequence of one workload.
#[derive(Debug, Clone)]
pub struct Plan {
    spec: Spec,
    rng: Rng,
    step: u64,
    reads: u64,
    writes: u64,
    live: VecDeque<(i64, &'static str)>,
    wrote: bool,
    /// Users still to be read in this pass, in the order they are read.
    pass: Vec<usize>,
}

impl Plan {
    /// The sequence for `spec` and `seed`; `stream` separates warm-up
    /// from timed traffic.
    pub fn new(spec: Spec, seed: u64, stream: u64) -> Plan {
        Plan {
            spec,
            rng: Rng::new(seed, stream),
            step: 0,
            reads: 0,
            writes: 0,
            live: VecDeque::new(),
            wrote: false,
            pass: Vec::new(),
        }
    }

    /// The user of the next read. Reads go over the users in passes, each
    /// pass every user once in a seeded order, so every seed sends each
    /// user about as often. Drawn independently, the users of one seed's
    /// few hundred `scan` reads had answer sizes whose median moved from
    /// seed to seed, and `scan`'s p50 with it.
    fn next_user(&mut self) -> usize {
        if self.pass.is_empty() {
            self.pass = (0..self.spec.users).collect();
            for i in (1..self.pass.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.pass.swap(i, j);
            }
        }
        self.pass.pop().expect("a workload has users")
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let step = self.step;
        self.step += 1;
        if self.spec.kind == Kind::Churn && step.is_multiple_of(CHURN_READS_PER_WRITE + 1) {
            return Op::Write(self.next_write());
        }
        let user = self.next_user();
        let sql = match self.spec.kind {
            Kind::Scan => SCAN_SQL.to_string(),
            Kind::Lookup => lookup_sql(self.rng.below(self.spec.scale.movies as u64)),
            Kind::Churn => CHURN_SQL[(self.reads % CHURN_SQL.len() as u64) as usize].to_string(),
        };
        self.reads += 1;
        // The first read after every write is audited; the others are
        // sampled.
        let sampled = self.rng.below(CHECK_ONE_IN) == 0;
        let check = std::mem::take(&mut self.wrote) || sampled;
        Op::Read(Read { user, sql, check })
    }

    fn next_write(&mut self) -> Write {
        let mid = CHURN_FIRST_MID + self.writes as i64;
        self.writes += 1;
        let genre = GENRES[self.rng.below(GENRES.len() as u64) as usize];
        self.live.push_back((mid, genre));
        let delete = if self.live.len() > CHURN_DELETE_LAG {
            self.live.pop_front()
        } else {
            None
        };
        self.wrote = true;
        Write {
            insert: (mid, genre),
            delete,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(kind: Kind, seed: u64, n: usize) -> Vec<Op> {
        let mut plan = Plan::new(Spec::new(kind), seed, 0);
        (0..n).map(|_| plan.next_op()).collect()
    }

    #[test]
    fn same_seed_same_requests() {
        for kind in [Kind::Scan, Kind::Lookup, Kind::Churn] {
            assert_eq!(ops(kind, 7, 300), ops(kind, 7, 300), "{kind:?}");
            assert_ne!(ops(kind, 7, 300), ops(kind, 8, 300), "{kind:?}");
        }
    }

    #[test]
    fn reads_go_over_every_user_in_passes() {
        let spec = Spec::new(Kind::Scan);
        let users: Vec<usize> = ops(Kind::Scan, 9, 2 * spec.users)
            .into_iter()
            .map(|op| match op {
                Op::Read(read) => read.user,
                Op::Write(_) => panic!("scan never writes"),
            })
            .collect();
        let (first, second) = users.split_at(spec.users);
        for pass in [first, second] {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..spec.users).collect::<Vec<_>>());
        }
        assert_ne!(first, second, "each pass has its own order");
    }

    #[test]
    fn streams_differ() {
        let mut a = Plan::new(Spec::new(Kind::Lookup), 3, 0);
        let mut b = Plan::new(Spec::new(Kind::Lookup), 3, 1);
        let a: Vec<Op> = (0..50).map(|_| a.next_op()).collect();
        let b: Vec<Op> = (0..50).map(|_| b.next_op()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn churn_cycles_one_write_then_reads() {
        let ops = ops(Kind::Churn, 1, 100);
        for (i, op) in ops.iter().enumerate() {
            let is_write = matches!(op, Op::Write(_));
            assert_eq!(is_write, i % 5 == 0, "op {i}");
            if i % 5 == 1 {
                assert!(
                    matches!(op, Op::Read(Read { check: true, .. })),
                    "first read audited"
                );
            }
        }
        let writes: Vec<&Write> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Write(w) => Some(w),
                Op::Read(_) => None,
            })
            .collect();
        for (w, write) in writes.iter().enumerate() {
            match write.delete {
                None => assert!(w < CHURN_DELETE_LAG),
                Some(old) => assert_eq!(old, writes[w - CHURN_DELETE_LAG].insert),
            }
        }
        let reads: Vec<&str> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Read(r) => Some(r.sql.as_str()),
                Op::Write(_) => None,
            })
            .take(6)
            .collect();
        assert_eq!(
            reads,
            [
                CHURN_SQL[0],
                CHURN_SQL[1],
                CHURN_SQL[2],
                CHURN_SQL[0],
                CHURN_SQL[1],
                CHURN_SQL[2]
            ]
        );
    }

    #[test]
    fn every_pair_covers_users_times_queries() {
        let spec = Spec::new(Kind::Churn);
        assert_eq!(spec.every_pair().len(), spec.users * CHURN_SQL.len());
    }
}
