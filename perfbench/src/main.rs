//! Serving benchmark for the personalization server.
//!
//! ```text
//! python3 perfbench/run.py --workload <scan|lookup|churn> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `run.py` builds this binary so that its code layout does not depend on
//! where the repository lies, and runs it pinned to one CPU.
//!
//! Each run starts an in-process `qp-server` on loopback, registers the
//! workload's profiles over the wire, each once the previous one's
//! precompute is done, warms up, and drives the seeded closed loop from
//! one client thread with at most one open connection. The whole set-up is done
//! [`SETUPS`] times (all but the last torn down again) so `setup_s` is a
//! median. A sample of the answers, and in `churn` the first read after
//! every write, is checked against an in-process recompute.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! loop untraced for half the time, then traced for the other half, and
//! reports per-layer times, a stage sum of the traced median and the
//! tracing overhead. See `perfbench/README.md`.

mod replay;
mod session;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qp_client::wire::{Request, Response};
use qp_core::{AnswerAlgorithm, PersonalizationOptions, ProfileStore, SelectionCriterion, UserId};
use qp_server::{Server, ServerConfig};
use qp_storage::SnapshotStore;

use replay::{Replayer, Sample};
use session::{Client, Failure, Tally, WireTimes};
use stats::{mean, median, percentile, sorted, Metric};
use workload::{Kind, Op, Plan, Read, Spec, Write};

const USAGE: &str =
    "usage: perfbench --workload <scan|lookup|churn> --seed <n> --seconds <n> --trace <0|1>";

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Longest wait for one user's registration precompute before the run
/// fails.
const PRECOMPUTE_TIMEOUT: Duration = Duration::from_secs(120);

/// Plan stream of the warm-up reads (the timed loop uses stream 0).
const WARMUP_STREAM: u64 = 1;

/// Where `churn`'s server keeps its profile store while it runs.
const DATA_ROOT: &str = ".perfbench-data";

/// Data directories made so far by this process.
static DATA_DIRS: AtomicUsize = AtomicUsize::new(0);

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    Ok(Args {
        kind,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One set-up's phases, in seconds. `register` sums the registration
/// round trips and `precompute` the waits for each user's precompute.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    datagen: f64,
    register: f64,
    precompute: f64,
    warmup: f64,
    total: f64,
}

/// How long a timed phase runs.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// Until this many seconds of timed clock have passed.
    Seconds(f64),
    /// Exactly this many operations.
    #[cfg_attr(not(test), allow(dead_code))]
    Ops(usize),
}

/// How the server's materializations absorbed one write.
#[derive(Debug, Clone, Copy)]
struct Receipt {
    patched: u64,
    carried: u64,
    rematerialized: u64,
    dropped: u64,
}

/// One traced read: its client-side times, the server's own run time,
/// and the in-process replay.
struct TracedRead {
    wire: WireTimes,
    run: f64,
    sample: Sample,
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    /// Read round trips, ms; a failed read is `+inf`.
    reads_ms: Vec<f64>,
    /// Write round trips, ms; a failed write is `+inf`.
    writes_ms: Vec<f64>,
    /// Operations that completed correctly.
    completed: u64,
    /// Timed clock: wall time minus the untimed checks and replays.
    clock_s: f64,
    traced: Vec<TracedRead>,
    receipts: Vec<Receipt>,
}

/// A running server with its registered users and the closed-loop client.
struct Bench {
    server: Server,
    store: Arc<SnapshotStore>,
    profiles: Arc<ProfileStore>,
    ids: Vec<u64>,
    options: PersonalizationOptions,
    client: Client,
    plan: Plan,
    data_dir: Option<PathBuf>,
    tally: Tally,
    checks: u64,
    mismatches: u64,
    digest: u64,
}

impl Bench {
    /// Generates the data, starts the server, registers every profile
    /// over the wire, waits until every user's selections are
    /// precomputed, and warms up. `begun` is when this set-up started.
    fn setup(
        spec: Spec,
        seed: u64,
        begun: Instant,
    ) -> Result<(Bench, SetupTimes, Vec<f64>), String> {
        let t = Instant::now();
        let db = qp_datagen::generate(spec.scale);
        db.warm_statistics();
        let texts = workload::profiles(&db, &spec);
        let datagen = t.elapsed().as_secs_f64();

        let data_dir = spec.durable.then(|| {
            let n = DATA_DIRS.fetch_add(1, Ordering::Relaxed);
            PathBuf::from(DATA_ROOT).join(format!("{}-{n}", std::process::id()))
        });
        if let Some(dir) = &data_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("data dir {}: {e}", dir.display()))?;
        }
        let config = ServerConfig {
            data_dir: data_dir.clone(),
            ..ServerConfig::default()
        };
        // What the server runs a request of this workload with: its
        // default K and L, and the workload's algorithm.
        let options = PersonalizationOptions {
            criterion: SelectionCriterion::TopK(config.default_k),
            l: config.default_l,
            algorithm: spec.algorithm,
            ..Default::default()
        };
        let store = Arc::new(SnapshotStore::new(db));
        let server =
            Server::start(config, Arc::clone(&store)).map_err(|e| format!("server: {e}"))?;
        let profiles = server.profiles();

        // Registration hands each user's precompute to a thread of its
        // own. The next profile goes out only once the last one's
        // selections are memoized, so a registration round trip never
        // competes with earlier users' precompute threads, and timing
        // starts with every user precomputed.
        let mut registrar = Client::new(server.local_addr(), 0);
        let mut ids = Vec::with_capacity(texts.len());
        let mut register_ms = Vec::with_capacity(texts.len());
        let mut precompute = Duration::ZERO;
        for (user, profile) in texts.into_iter().enumerate() {
            let request = Request::RegisterProfile {
                user: format!("u{user}"),
                profile,
            };
            let id = match registrar.call(&request, false) {
                (Ok(Response::ProfileRegistered { user_id, .. }), times) => {
                    register_ms.push(times.total / 1e3);
                    user_id
                }
                (Ok(_), _) => return Err(format!("register u{user}: unexpected reply")),
                (Err(f), _) => return Err(format!("register u{user}: {}", f.code())),
            };
            let t = Instant::now();
            while profiles
                .get(UserId(id))
                .is_none_or(|h| h.cached_selections() == 0)
            {
                if t.elapsed() > PRECOMPUTE_TIMEOUT {
                    return Err(format!("precompute of u{user} did not finish"));
                }
                std::thread::yield_now();
            }
            precompute += t.elapsed();
            ids.push(id);
        }
        drop(registrar);
        let register = register_ms.iter().sum::<f64>() / 1e3;
        let precompute = precompute.as_secs_f64();

        let mut bench = Bench {
            client: Client::new(server.local_addr(), spec.session_len),
            server,
            store,
            profiles,
            ids,
            options,
            plan: Plan::new(spec, seed, 0),
            data_dir,
            tally: Tally::default(),
            checks: 0,
            mismatches: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        };

        // Warm-up: `churn` reads every user and query pair once, so every
        // materialization exists before the first timed write.
        let t = Instant::now();
        let reads = match spec.kind {
            Kind::Churn => spec.every_pair(),
            Kind::Scan | Kind::Lookup => {
                let mut plan = Plan::new(spec, seed, WARMUP_STREAM);
                (0..spec.warmup_reads)
                    .filter_map(|_| match plan.next_op() {
                        Op::Read(read) => Some(read),
                        Op::Write(_) => None,
                    })
                    .collect()
            }
        };
        for read in &reads {
            let request = bench.personalize(read);
            if let (Err(f), _) = bench.client.call(&request, false) {
                return Err(format!("warm-up read: {}", f.code()));
            }
        }
        let warmup = t.elapsed().as_secs_f64();
        let times = SetupTimes {
            datagen,
            register,
            precompute,
            warmup,
            total: begun.elapsed().as_secs_f64(),
        };
        Ok((bench, times, register_ms))
    }

    /// Stops the server and removes its data directory.
    fn close(self) {
        let Bench {
            mut server,
            profiles,
            data_dir,
            ..
        } = self;
        server.shutdown();
        drop(server);
        drop(profiles);
        if let Some(dir) = data_dir {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::remove_dir(DATA_ROOT).ok();
        }
    }

    /// The wire request for a read: addressed by user id, with the
    /// server's default K and L.
    fn personalize(&self, read: &Read) -> Request {
        let algorithm = match self.options.algorithm {
            AnswerAlgorithm::Spa => "spa",
            AnswerAlgorithm::Ppa => "ppa",
        };
        Request::Personalize {
            user: String::new(),
            user_id: Some(self.ids[read.user]),
            sql: read.sql.clone(),
            k: None,
            l: None,
            algorithm: Some(algorithm.to_string()),
        }
    }

    /// Runs the closed loop for `budget`. With a replayer, reads are
    /// traced and replayed in-process while the replays have used less
    /// time than the timed clock (so replays take at most half the wall
    /// time); checks and replays are off the timed clock.
    fn timed(&mut self, budget: Budget, mut replayer: Option<&mut Replayer>) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        let mut untimed = Duration::ZERO;
        let mut ops = 0usize;
        loop {
            let clock = start.elapsed().saturating_sub(untimed);
            let done = match budget {
                Budget::Seconds(s) => clock.as_secs_f64() >= s,
                Budget::Ops(n) => ops >= n,
            };
            if done {
                break;
            }
            ops += 1;
            match self.plan.next_op() {
                Op::Read(read) => {
                    let replay = replayer.as_deref_mut().filter(|_| untimed < clock);
                    untimed += self.timed_read(&read, &mut phase, replay);
                }
                Op::Write(write) => self.timed_write(&write, &mut phase),
            }
        }
        phase.clock_s = start.elapsed().saturating_sub(untimed).as_secs_f64();
        phase
    }

    /// One read; returns the time spent off the clock.
    fn timed_read(
        &mut self,
        read: &Read,
        phase: &mut Phase,
        replayer: Option<&mut Replayer>,
    ) -> Duration {
        let request = self.personalize(read);
        let user = self.ids[read.user];
        let t = Instant::now();
        let memo_hit = replayer.as_ref().map(|r| r.memo_warm(user, &read.sql));
        let mut untimed = t.elapsed();

        let (result, times) = self.client.call(&request, replayer.is_some());
        let answer = match result {
            Ok(Response::Answer(answer)) => answer,
            other => {
                let failure = other.err().unwrap_or(Failure::Protocol);
                self.tally.note("personalize", Some(failure));
                phase.reads_ms.push(f64::INFINITY);
                return untimed;
            }
        };
        self.tally.note("personalize", None);
        phase.reads_ms.push(times.total / 1e3);
        phase.completed += 1;

        let t = Instant::now();
        self.digest = replay::digest(self.digest, &answer);
        if read.check {
            self.checks += 1;
            let want =
                replay::reference(&self.store, &self.profiles, user, &read.sql, self.options);
            if !want.is_ok_and(|want| replay::same_answer(&answer, &want)) {
                self.mismatches += 1;
                self.tally.fail("personalize", Failure::Mismatch);
                *phase.reads_ms.last_mut().expect("pushed above") = f64::INFINITY;
                phase.completed -= 1;
            }
        }
        if let (Some(r), Some(memo_hit)) = (replayer, memo_hit) {
            match r.replay(user, &read.sql, memo_hit, &answer) {
                Ok(sample) => phase.traced.push(TracedRead {
                    wire: times,
                    run: answer.elapsed_us as f64,
                    sample,
                }),
                Err(e) => eprintln!("perfbench: replay failed: {e}"),
            }
        }
        untimed += t.elapsed();
        untimed
    }

    fn timed_write(&mut self, write: &Write, phase: &mut Phase) {
        let request = Request::PublishDelta {
            changes: write.changes(),
        };
        match self.client.call(&request, false) {
            (
                Ok(Response::DeltaApplied {
                    patched,
                    carried,
                    rematerialized,
                    dropped,
                    ..
                }),
                times,
            ) => {
                self.tally.note("publish_delta", None);
                phase.writes_ms.push(times.total / 1e3);
                phase.receipts.push(Receipt {
                    patched,
                    carried,
                    rematerialized,
                    dropped,
                });
                phase.completed += 1;
            }
            (other, _) => {
                self.tally.note(
                    "publish_delta",
                    Some(other.err().unwrap_or(Failure::Protocol)),
                );
                phase.writes_ms.push(f64::INFINITY);
            }
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lowers the peak resident set (`VmHWM`) to the current resident set
/// (Linux: `5` written to `clear_refs`). Where that fails, the peak keeps
/// counting from process start.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Whether every timed write found the registry at one size, with
/// nothing dropped; the size when it did.
fn registry_flat(receipts: &[Receipt]) -> Result<Option<u64>, String> {
    let sizes: Vec<u64> = receipts
        .iter()
        .map(|r| r.patched + r.carried + r.rematerialized)
        .collect();
    let (Some(&lo), Some(&hi)) = (sizes.iter().min(), sizes.iter().max()) else {
        return Ok(None);
    };
    let dropped: u64 = receipts.iter().map(|r| r.dropped).sum();
    if lo == hi && dropped == 0 {
        Ok(Some(lo))
    } else {
        Err(format!(
            "registry not flat across timed writes: size {lo}..{hi}, {dropped} dropped"
        ))
    }
}

/// A timed phase's read and write round trips, each sorted, with a report
/// line on their sample counts. The writes are `churn`'s delta publishes;
/// `scan` and `lookup` time none, so theirs are the set-ups'
/// registrations.
fn round_trips(
    kind: Kind,
    phase: &Phase,
    register_ms: &[f64],
    lines: &mut Vec<String>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let reads = sorted(&phase.reads_ms);
    if reads.is_empty() {
        return Err("no reads completed in the timed phase".into());
    }
    let (writes, writes_are) = match kind {
        Kind::Churn => (sorted(&phase.writes_ms), "publish_delta"),
        _ => (sorted(register_ms), "register_profile (set-up)"),
    };
    if writes.is_empty() {
        return Err("no writes to report".into());
    }
    lines.push(format!(
        "reads: {} samples, highest supported tail p{}; writes ({writes_are}): {} samples, highest supported tail p{}",
        reads.len(),
        tail_label(reads.len()),
        writes.len(),
        tail_label(writes.len()),
    ));
    if !stats::supports(reads.len(), 0.99) {
        lines.push("warning: fewer than 10 reads lie beyond p99".into());
    }
    Ok((reads, writes))
}

/// The highest percentile `n` samples support, for the report.
fn tail_label(n: usize) -> String {
    stats::tail_quantile(n).map_or("-".into(), |q| format!("{:.1}", q * 100.0))
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn run(args: &Args, process_start: Instant) -> Result<Vec<String>, String> {
    let spec = Spec::new(args.kind);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut lines = vec![format!(
        "perfbench: workload {} seed {} seconds {} trace {} | {} movies, {} users, {} cpus",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.scale.movies,
        spec.users,
        cpus
    )];
    let mut setups = Vec::with_capacity(SETUPS);
    let mut register_ms = Vec::new();
    let mut live = None;
    for index in 0..SETUPS {
        let begun = if index == 0 {
            process_start
        } else {
            Instant::now()
        };
        if index + 1 == SETUPS {
            // The peak then covers the set-up that is kept and the run,
            // as in a process that set up once.
            reset_peak_rss();
        }
        let (bench, times, registrations) = Bench::setup(spec, args.seed, begun)?;
        lines.push(format!(
            "setup {}/{SETUPS}: {:.3} s (datagen {:.3}, register {:.3}, precompute {:.3}, warm-up {:.3})",
            index + 1,
            times.total,
            times.datagen,
            times.register,
            times.precompute,
            times.warmup
        ));
        setups.push(times);
        register_ms.extend(registrations);
        if index + 1 == SETUPS {
            live = Some(bench);
        } else {
            bench.close();
        }
    }
    let mut bench = live.expect("SETUPS > 0");
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let (mut metrics, phases) = if args.trace {
        let untraced = bench.timed(Budget::Seconds(args.seconds / 2.0), None);
        let mut replayer = Replayer::new(&bench.store, &bench.profiles, bench.options);
        let traced = bench.timed(Budget::Seconds(args.seconds / 2.0), Some(&mut replayer));
        drop(replayer);
        let mut m = layer_metrics(&bench, &untraced, &traced, &mut lines);
        m.push(metric("setup.datagen_s", setup_median(|s| s.datagen), "s"));
        m.push(metric(
            "setup.register_s",
            setup_median(|s| s.register),
            "s",
        ));
        m.push(metric(
            "setup.precompute_s",
            setup_median(|s| s.precompute),
            "s",
        ));
        // The tails follow the host's steal too closely to bound a
        // regression, so the traced run reports them, from its untraced
        // half.
        let (reads, writes) = round_trips(spec.kind, &untraced, &register_ms, &mut lines)?;
        m.push(metric("p99_ms", percentile(&reads, 0.99), "ms"));
        m.push(metric("write_p90_ms", percentile(&writes, 0.9), "ms"));
        (m, vec![untraced, traced])
    } else {
        let phase = bench.timed(Budget::Seconds(args.seconds), None);
        let (reads, writes) = round_trips(spec.kind, &phase, &register_ms, &mut lines)?;
        lines.push(format!(
            "tails (metrics of the traced run): p99 {:.3} ms, write p90 {:.3} ms",
            percentile(&reads, 0.99),
            percentile(&writes, 0.9)
        ));
        let m = vec![
            metric("p50_ms", percentile(&reads, 0.5), "ms"),
            metric(
                "throughput_rps",
                phase.completed as f64 / phase.clock_s,
                "1/s",
            ),
            metric("setup_s", setup_median(|s| s.total), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric("write_p50_ms", percentile(&writes, 0.5), "ms"),
        ];
        (m, vec![phase])
    };

    let mut correct = bench.mismatches == 0;
    if spec.kind == Kind::Churn {
        let receipts: Vec<Receipt> = phases
            .iter()
            .flat_map(|p| p.receipts.iter().copied())
            .collect();
        match registry_flat(&receipts) {
            Ok(size) => lines.push(format!(
                "registry: {} entries across every timed write",
                size.unwrap_or(0)
            )),
            Err(e) => {
                lines.push(format!("error: {e}"));
                correct = false;
            }
        }
    }
    lines.extend(bench.tally.lines());
    lines.push(format!(
        "checks: {} answers compared with an in-process recompute, {} mismatched; answer digest {:016x}",
        bench.checks, bench.mismatches, bench.digest
    ));
    let (attempted, failed) = bench.tally.totals();
    bench.close();
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    for m in &metrics {
        lines.push(format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    lines.push(stats::result_line(correct, attempted, failed, &metrics));
    Ok(lines)
}

/// The traced run's per-layer metrics. Layer times are means over the
/// traced reads; `stage.*` splits the traced median into layer self
/// times plus a residual (see `stats::stage_sum`).
fn layer_metrics(
    bench: &Bench,
    untraced: &Phase,
    traced: &Phase,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let t = &traced.traced;
    let col = |f: &dyn Fn(&TracedRead) -> f64| mean(&t.iter().map(f).collect::<Vec<_>>());
    let server_other = |r: &TracedRead| r.wire.wait - r.run - r.sample.encode;
    let mut m = vec![
        metric("client.connect_us", mean(&bench.client.connects_us), "us"),
        metric("client.wait_us", col(&|r| r.wire.wait), "us"),
        metric("client.read_us", col(&|r| r.wire.read), "us"),
        metric("client.decode_us", col(&|r| r.wire.decode), "us"),
        metric(
            "client.response_bytes",
            col(&|r| r.wire.bytes as f64),
            "bytes",
        ),
        metric("server.run_us", col(&|r| r.run), "us"),
        metric("server.encode_us", col(&|r| r.sample.encode), "us"),
        metric("server.other_us", col(&server_other), "us"),
        metric("store.resolve_us", col(&|r| r.sample.resolve), "us"),
        metric("select.us", col(&|r| r.sample.select), "us"),
        metric(
            "select.memo_hit_share",
            col(&|r| f64::from(u8::from(r.sample.memo_hit))),
            "ratio",
        ),
        metric("ppa.us", col(&|r| r.sample.ppa.run), "us"),
        metric(
            "ppa.first_response_us",
            col(&|r| r.sample.ppa.first_response),
            "us",
        ),
        metric("ppa.presence_us", col(&|r| r.sample.ppa.presence), "us"),
        metric("ppa.absence_us", col(&|r| r.sample.ppa.absence), "us"),
        metric("ppa.residual_us", col(&|r| r.sample.ppa.residual), "us"),
        metric(
            "ppa.param_queries",
            col(&|r| r.sample.ppa.param_queries),
            "count",
        ),
        metric("spa.us", col(&|r| r.sample.spa.run), "us"),
        metric("spa.build_us", col(&|r| r.sample.spa.build), "us"),
        metric("spa.execute_us", col(&|r| r.sample.spa.execute), "us"),
        metric("exec.base_us", col(&|r| r.sample.base), "us"),
    ];
    let lookups: u64 = t.iter().map(|r| r.sample.plan_lookups).sum();
    let hits: u64 = t.iter().map(|r| r.sample.plan_hits).sum();
    m.push(metric(
        "exec.plan_hit_share",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        "ratio",
    ));

    let receipts: Vec<Receipt> = [untraced, traced]
        .iter()
        .flat_map(|p| p.receipts.iter().copied())
        .collect();
    let per_write =
        |f: fn(&Receipt) -> u64| mean(&receipts.iter().map(|r| f(r) as f64).collect::<Vec<_>>());
    m.push(metric("maint.patched", per_write(|r| r.patched), "count"));
    m.push(metric("maint.carried", per_write(|r| r.carried), "count"));
    m.push(metric(
        "maint.rematerialized",
        per_write(|r| r.rematerialized),
        "count",
    ));
    m.push(metric(
        "persist.wal_bytes",
        bench.profiles.wal_bytes() as f64,
        "bytes",
    ));

    // Stage sum: per traced read, the round trip is the client's own time
    // (connect, body read, decode, call glue), the wire (server.other),
    // the encode, and the server's run, which the replay splits into
    // resolve, select and the answer phase. What the replay does not
    // explain of the run lands in the residual.
    let names = [
        "stage.client_us",
        "stage.wire_us",
        "stage.encode_us",
        "stage.store_us",
        "stage.select_us",
        "stage.answer_us",
    ];
    let rows: Vec<Vec<f64>> = t
        .iter()
        .map(|r| {
            vec![
                r.wire.total - r.wire.wait,
                server_other(r),
                r.sample.encode,
                r.sample.resolve,
                r.sample.select,
                r.sample.answer,
            ]
        })
        .collect();
    let totals: Vec<f64> = t.iter().map(|r| r.wire.total).collect();
    let untraced_p50 = median(&untraced.reads_ms) * 1e3;
    if t.is_empty() {
        lines.push("warning: no traced read was replayed".into());
    } else {
        let sum = stats::stage_sum(&names, &rows, &totals);
        lines.push(format!(
            "stage sum of the traced p50 ({} traced reads, {} replayed): {}",
            traced.reads_ms.len(),
            t.len(),
            sum.stages
                .iter()
                .map(|(n, v)| format!("{n} {v:.1}"))
                .collect::<Vec<_>>()
                .join(" + ")
                + &format!(" + residual {:.1} = {:.1} us", sum.residual, sum.total)
        ));
        for (name, value) in &sum.stages {
            m.push(metric(name, *value, "us"));
        }
        m.push(metric("stage.residual_us", sum.residual, "us"));
        m.push(metric("stage.total_us", sum.total, "us"));
        m.push(metric("trace.untraced_p50_us", untraced_p50, "us"));
        m.push(metric("trace.overhead_us", sum.total - untraced_p50, "us"));
        m.push(metric(
            "trace.overhead_pct",
            100.0 * (sum.total / untraced_p50 - 1.0),
            "%",
        ));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(kind: Kind, seed: u64) -> (u64, u64, u64) {
        let spec = Spec::tiny(kind);
        let (mut bench, _, _) = Bench::setup(spec, seed, Instant::now()).expect("tiny set-up");
        let phase = bench.timed(Budget::Ops(30), None);
        assert_eq!(phase.reads_ms.len() + phase.writes_ms.len(), 30);
        let out = (bench.digest, bench.mismatches, bench.tally.totals().1);
        bench.close();
        out
    }

    #[test]
    fn same_seed_same_answers() {
        for kind in [Kind::Scan, Kind::Lookup, Kind::Churn] {
            let (a, mismatches, failed) = digest_of(kind, 5);
            assert_eq!((mismatches, failed), (0, 0), "{kind:?}");
            let (b, _, _) = digest_of(kind, 5);
            assert_eq!(a, b, "{kind:?}: same seed, same answer digest");
            let (c, _, _) = digest_of(kind, 6);
            assert_ne!(a, c, "{kind:?}: another seed, other answers");
        }
    }

    #[test]
    fn traced_reads_replay_and_add_up() {
        let spec = Spec::tiny(Kind::Scan);
        let (mut bench, _, _) = Bench::setup(spec, 3, Instant::now()).expect("tiny set-up");
        let untraced = bench.timed(Budget::Ops(10), None);
        let mut replayer = Replayer::new(&bench.store, &bench.profiles, bench.options);
        let traced = bench.timed(Budget::Ops(10), Some(&mut replayer));
        drop(replayer);
        assert!(!traced.traced.is_empty());
        let mut lines = Vec::new();
        let m = layer_metrics(&bench, &untraced, &traced, &mut lines);
        let get = |name: &str| {
            m.iter()
                .find(|x| x.name == name)
                .map(|x| x.value)
                .expect(name)
        };
        let stages: f64 = m
            .iter()
            .filter(|x| x.name.starts_with("stage.") && x.name != "stage.total_us")
            .map(|x| x.value)
            .sum();
        assert!(
            (stages - get("stage.total_us")).abs() < 1e-6,
            "stages + residual = traced p50"
        );
        assert!(get("ppa.us") > 0.0 && get("server.run_us") > 0.0);
        assert_eq!(get("spa.us"), 0.0, "scan never runs SPA");
        bench.close();
    }

    #[test]
    fn lookup_answers_match_their_reference() {
        let spec = Spec::tiny(Kind::Lookup);
        let (mut bench, _, _) = Bench::setup(spec, 2, Instant::now()).expect("tiny set-up");
        let ppa = PersonalizationOptions {
            algorithm: AnswerAlgorithm::Ppa,
            ..bench.options
        };
        let (mut checked, mut tells_apart) = (0, 0);
        let mut phase = Phase::default();
        for user in 0..spec.users {
            for mid in 0..spec.scale.movies as u64 {
                let sql = workload::lookup_sql(mid);
                let id = bench.ids[user];
                let reference = |options| {
                    replay::reference(&bench.store, &bench.profiles, id, &sql, options)
                        .expect("reference")
                };
                let want = reference(bench.options);
                if want.1.is_empty() {
                    continue;
                }
                tells_apart += usize::from(reference(ppa).1 != want.1);
                checked += 1;
                bench.timed_read(
                    &Read {
                        user,
                        sql,
                        check: true,
                    },
                    &mut phase,
                    None,
                );
            }
        }
        assert!(checked >= 5, "only {checked} non-empty answers");
        assert!(
            tells_apart > 0,
            "PPA scores some answer differently, so the check tells SPA from PPA"
        );
        assert_eq!(bench.mismatches, 0);
        assert_eq!(phase.completed, checked as u64);
        bench.close();
    }

    #[test]
    fn registry_flatness() {
        let r = |size| Receipt {
            patched: size,
            carried: 1,
            rematerialized: 2,
            dropped: 0,
        };
        assert_eq!(registry_flat(&[r(3), r(3)]), Ok(Some(6)));
        assert!(registry_flat(&[r(3), r(4)]).is_err());
        assert_eq!(registry_flat(&[]), Ok(None));
    }

    #[test]
    fn arguments() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload churn --seed 4 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Churn, 4, 2.5, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload scan --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload scan --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload scan --seconds 1").is_err());
    }
}
