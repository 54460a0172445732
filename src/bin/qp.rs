//! `qp` — an interactive shell over the personalized-queries system.
//!
//! ```text
//! $ cargo run --release --bin qp
//! qp> \gen 2000                    # generate a 2000-movie database
//! qp> \profile al                  # load the paper's Figure-2 profile
//! qp> \k 6                         # top-K criterion
//! qp> \l 2                         # minimum satisfied preferences
//! qp> select title from MOVIE     # personalized by default
//! qp> \plain select title from MOVIE limit 5
//! qp> \quit
//! ```
//!
//! Profiles can also be loaded from files in the paper's Figure-2
//! notation (`\profile path/to/profile.doi`).

use std::io::{BufRead, Write};

use personalized_queries::core::{
    AnswerAlgorithm, MixedKind, PersonalizationOptions, PersonalizeRequest, Personalizer, Profile,
    Ranking, RankingKind, SelectionAlgorithm, SelectionCriterion,
};
use personalized_queries::datagen::{self, ImdbScale};
use personalized_queries::storage::Database;

struct Shell {
    db: Database,
    profile: Profile,
    options: PersonalizationOptions,
    explain: bool,
}

impl Shell {
    fn new(movies: usize) -> Self {
        let db = datagen::generate(ImdbScale {
            movies,
            actors: movies * 2,
            directors: (movies / 10).max(10),
            theatres: (movies / 50).max(5),
            plays_per_theatre: 25,
            seed: 42,
        });
        db.warm_statistics();
        Shell {
            db,
            profile: Profile::new(),
            options: PersonalizationOptions {
                criterion: SelectionCriterion::TopK(6),
                l: 1,
                ..Default::default()
            },
            explain: true,
        }
    }

    fn handle(&mut self, line: &str) -> Result<bool, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(true);
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            return self.command(cmd);
        }
        self.personalized_query(line)?;
        Ok(true)
    }

    fn command(&mut self, cmd: &str) -> Result<bool, String> {
        let mut parts = cmd.split_whitespace();
        let head = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        match head {
            "quit" | "q" | "exit" => return Ok(false),
            "help" | "h" => {
                println!(
                    "commands:\n  \\gen <movies>        regenerate the database\n  \\schema              show the catalog\n  \\profile al|<file>   load a profile (Figure-2 notation)\n  \\profile show        print the active profile\n  \\k <n> | \\l <n>      set K / L\n  \\ranking inflationary|dominant|reserved\n  \\algo spa|ppa        answer algorithm\n  \\explain on|off      per-tuple explanations\n  \\explain <sql>       show the physical plan\n  \\analyze <sql>       EXPLAIN ANALYZE: run with per-operator profiling\n  \\plain <sql>         run SQL without personalization\n  <sql>                run SQL personalized\n  \\quit"
                );
            }
            "gen" => {
                let n: usize = rest
                    .first()
                    .and_then(|s| s.parse().ok())
                    .ok_or("usage: \\gen <movies>")?;
                *self = Shell { profile: std::mem::take(&mut self.profile), ..Shell::new(n) };
                println!("generated {} rows", self.db.total_rows());
            }
            "schema" => print!("{}", self.db.catalog()),
            "profile" => match rest.first() {
                Some(&"show") => print!("{}", self.profile.to_dsl(self.db.catalog())),
                Some(&"al") => {
                    self.profile = datagen::als_profile(&self.db).map_err(|e| e.to_string())?;
                    println!("loaded Al's profile ({} preferences)", self.profile.len());
                }
                Some(path) => {
                    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                    self.profile =
                        Profile::parse(self.db.catalog(), &text).map_err(|e| e.to_string())?;
                    println!("loaded {} preferences from {path}", self.profile.len());
                }
                None => return Err("usage: \\profile al|show|<file>".to_string()),
            },
            "k" => {
                let k: usize = rest
                    .first()
                    .and_then(|s| s.parse().ok())
                    .ok_or("usage: \\k <n>")?;
                self.options.criterion = SelectionCriterion::TopK(k);
                println!("K = {k}");
            }
            "l" => {
                let l: usize = rest
                    .first()
                    .and_then(|s| s.parse().ok())
                    .ok_or("usage: \\l <n>")?;
                self.options.l = l;
                println!("L = {l}");
            }
            "ranking" => {
                let kind = match rest.first().copied() {
                    Some("inflationary") => RankingKind::Inflationary,
                    Some("dominant") => RankingKind::Dominant,
                    Some("reserved") => RankingKind::Reserved,
                    _ => return Err("usage: \\ranking inflationary|dominant|reserved".to_string()),
                };
                self.options.ranking = Ranking::new(kind, MixedKind::CountWeighted);
                println!("ranking = {kind:?}");
            }
            "algo" => {
                self.options.algorithm = match rest.first().copied() {
                    Some("spa") => AnswerAlgorithm::Spa,
                    Some("ppa") => AnswerAlgorithm::Ppa,
                    _ => return Err("usage: \\algo spa|ppa".to_string()),
                };
                println!("algorithm = {:?}", self.options.algorithm);
            }
            "explain" if rest.first() != Some(&"on") && rest.first() != Some(&"off") && !rest.is_empty() => {
                let sql = rest.join(" ");
                let engine = personalized_queries::core::engine();
                let query = personalized_queries::sql::parse_query(&sql).map_err(|e| e.to_string())?;
                let plan = engine.explain(&self.db, &query).map_err(|e| e.to_string())?;
                print!("{plan}");
            }
            "explain" => {
                self.explain = !matches!(rest.first().copied(), Some("off"));
                println!("explanations {}", if self.explain { "on" } else { "off" });
            }
            "analyze" => {
                let sql = rest.join(" ");
                if sql.is_empty() {
                    return Err("usage: \\analyze <sql>".to_string());
                }
                let engine = personalized_queries::core::engine();
                let query = personalized_queries::sql::parse_query(&sql).map_err(|e| e.to_string())?;
                let plan = engine.explain_analyze(&self.db, &query).map_err(|e| e.to_string())?;
                print!("{plan}");
            }
            "dump" => {
                let dir = rest.first().ok_or("usage: \\dump <dir>")?;
                personalized_queries::storage::dump_dir(&self.db, std::path::Path::new(dir))
                    .map_err(|e| e.to_string())?;
                println!("dumped {} rows to {dir}", self.db.total_rows());
            }
            "load" => {
                let dir = rest.first().ok_or("usage: \\load <dir>")?;
                self.db = personalized_queries::storage::load_dir(std::path::Path::new(dir))
                    .map_err(|e| e.to_string())?;
                self.db.warm_statistics();
                println!("loaded {} rows from {dir}", self.db.total_rows());
            }
            "plain" => {
                let sql = rest.join(" ");
                let engine = personalized_queries::core::engine();
                let rs = engine.execute_sql(&self.db, &sql).map_err(|e| e.to_string())?;
                let shown = rs.rows.len().min(20);
                print!("{}", personalized_queries::exec::ResultSet::new(
                    rs.columns.clone(),
                    rs.rows[..shown].to_vec(),
                ));
                println!("({} rows{})", rs.len(), if rs.len() > shown { ", first 20 shown" } else { "" });
            }
            other => return Err(format!("unknown command \\{other} (try \\help)")),
        }
        Ok(true)
    }

    fn personalized_query(&mut self, sql: &str) -> Result<(), String> {
        if self.profile.is_empty() {
            return Err("no profile loaded — try `\\profile al` (see \\help)".to_string());
        }
        let mut p = Personalizer::new(&self.db);
        self.options.selection = SelectionAlgorithm::FakeCrit;
        let report = p
            .run(PersonalizeRequest::sql(&self.profile, sql).options(self.options))
            .map_err(|e| e.to_string())?
            .report;
        println!("-- {} preferences selected:", report.selected.len());
        for (i, sp) in report.selected.iter().enumerate() {
            println!("--   [{i}] c={:.3}  {}", sp.criticality, sp.describe(&self.profile, self.db.catalog()));
        }
        let shown = report.answer.tuples.len().min(20);
        for t in &report.answer.tuples[..shown] {
            let row: Vec<String> = t.row.iter().map(|v| v.to_string()).collect();
            if self.explain {
                println!("{:<7.4} {:<44} +{:?} -{:?}", t.doi, row.join(" | "), t.satisfied, t.failed);
            } else {
                println!("{:<7.4} {}", t.doi, row.join(" | "));
            }
        }
        println!(
            "({} tuples, selection {:?}, execution {:?}{})",
            report.answer.len(),
            report.selection_time,
            report.execution_time,
            report
                .first_response
                .map(|d| format!(", first tuple {d:?}"))
                .unwrap_or_default()
        );
        Ok(())
    }
}

fn main() {
    let movies = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    println!("qp — personalized queries shell (\\help for commands)");
    print!("generating {movies}-movie database… ");
    std::io::stdout().flush().ok();
    let mut shell = Shell::new(movies);
    println!("{} rows.", shell.db.total_rows());

    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    loop {
        if interactive {
            print!("qp> ");
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => match shell.handle(&line) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => eprintln!("error: {e}"),
            },
            Err(e) => {
                eprintln!("error: {e}");
                break;
            }
        }
    }
}

/// Rough interactivity check without extra dependencies: honored via the
/// QP_BATCH environment variable (set it to suppress prompts in pipes).
fn atty_stdin() -> bool {
    std::env::var_os("QP_BATCH").is_none()
}
