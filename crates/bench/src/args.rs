//! Minimal command-line options shared by the experiment binaries.
//!
//! Flags (all optional):
//! `--trials K`, `--seed S`, `--threads T`, `--sizes a,b,c`,
//! `--format text|csv|json` (`--csv` is shorthand for `--format csv`),
//! `--topology explicit|implicit` (CSR adjacency vs closed-form neighbour
//! math for the structured families),
//! `--budget trials:N | ci:REL[,MIN[,MAX]]` (per-cell trial budget for the
//! spec-driven binaries; `ci:` stops each cell adaptively once its
//! relative 95% CI half-width reaches `REL`),
//! `--resume FILE` (NDJSON checkpoint: completed cells are loaded from
//! `FILE` and skipped, fresh cells are appended to it),
//! `--help`/`-h` (print the shared flags and exit 0 before any work),
//! plus free positional arguments interpreted by each binary — or
//! rejected by [`Options::reject_positional`] in those that read none.

use dispersion_sim::default_threads;
use dispersion_sim::spec::{BackendSpec, Budget};
use dispersion_sim::table::TextTable;

/// Default `min_trials` for `--budget ci:REL` when not given explicitly.
const CI_DEFAULT_MIN_TRIALS: usize = 30;

/// Default `max_trials` for `--budget ci:REL` when not given explicitly.
const CI_DEFAULT_MAX_TRIALS: usize = 10_000;

/// How a binary should serialise its result tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
// LINT: unused-pub-ok — the type of the public field `Options::format`
pub enum OutputFormat {
    /// Aligned human-readable text table.
    #[default]
    Text,
    /// Comma-separated values with a header row.
    Csv,
    /// Newline-delimited JSON records (`BENCH_*.json` captures).
    Json,
}

/// The shared flags, printed by `--help` after a `usage:` line.
const FLAGS: &str = "\
Flags shared by the experiment drivers (all optional):
  --trials K                  Monte-Carlo trials per data point (default 100)
  --seed S                    master seed (default 1)
  --threads T                 worker threads (default: all cores)
  --sizes a,b,c               instance sizes to sweep (default: per driver)
  --format text|csv|json      output format (default text)
  --csv                       shorthand for --format csv
  --topology explicit|implicit
                              CSR adjacency or closed-form neighbour math
  --budget trials:N | ci:REL[,MIN[,MAX]]
                              per-cell trial budget; ci: stops a cell once its
                              relative 95% CI half-width reaches REL
  --resume FILE               load completed cells from the NDJSON checkpoint
                              FILE, append fresh ones to it
  -h, --help                  print this message and exit
Any other argument is read by the driver itself or rejected.
";

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Monte-Carlo trials per data point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (across trials).
    pub threads: usize,
    /// Instance sizes to sweep (`--sizes 32,64,128`).
    pub sizes: Vec<usize>,
    /// Table serialisation selected by `--format` / `--csv`.
    pub format: OutputFormat,
    /// Graph backend selected by `--topology explicit|implicit`; `None`
    /// when the flag was not given, so binaries whose natural default is
    /// "both backends" (e.g. `engine_throughput`) can distinguish an
    /// explicit request from no request. Single-backend binaries read it
    /// through [`Options::backend_or_explicit`].
    pub backend: Option<BackendSpec>,
    /// Per-cell trial budget from `--budget`; `None` when not given
    /// (binaries fall back to `Trials(self.trials)` via
    /// [`Options::budget_or_trials`]).
    pub budget: Option<Budget>,
    /// NDJSON checkpoint path from `--resume`.
    pub resume: Option<String>,
    /// Positional (non-flag) arguments.
    pub positional: Vec<String>,
    /// `--help`/`-h` was given; parsing stopped there.
    pub(crate) help: bool,
}

impl Options {
    /// Defaults: 100 trials, seed 1, all cores, no sizes override.
    pub fn defaults() -> Self {
        Options {
            trials: 100,
            seed: 1,
            threads: default_threads(),
            sizes: Vec::new(),
            format: OutputFormat::Text,
            backend: None,
            budget: None,
            resume: None,
            positional: Vec::new(),
            help: false,
        }
    }

    /// Parses `std::env::args().skip(1)`-style iterators.
    ///
    /// # Errors
    ///
    /// A usage message for a missing or malformed flag value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = Options::defaults();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--trials" => opts.trials = expect_num(&mut it, "--trials")?,
                "--seed" => opts.seed = expect_num(&mut it, "--seed")?,
                "--threads" => opts.threads = expect_num(&mut it, "--threads")?,
                "--sizes" => {
                    opts.sizes = expect_value(&mut it, "--sizes")?
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .map_err(|_| format!("bad size {s:?} in --sizes"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--csv" => opts.format = OutputFormat::Csv,
                "--topology" => {
                    opts.backend = Some(match expect_value(&mut it, "--topology")?.as_str() {
                        "explicit" => BackendSpec::Explicit,
                        "implicit" => BackendSpec::Implicit,
                        other => {
                            return Err(format!(
                                "--topology must be explicit or implicit, got {other:?}"
                            ))
                        }
                    });
                }
                "--budget" => {
                    opts.budget = Some(parse_budget(&expect_value(&mut it, "--budget")?)?);
                }
                "--resume" => opts.resume = Some(expect_value(&mut it, "--resume")?),
                "--format" => {
                    opts.format = match expect_value(&mut it, "--format")?.as_str() {
                        "text" => OutputFormat::Text,
                        "csv" => OutputFormat::Csv,
                        "json" => OutputFormat::Json,
                        other => {
                            return Err(format!(
                                "--format must be text, csv or json, got {other:?}"
                            ))
                        }
                    };
                }
                "--help" | "-h" => {
                    opts.help = true;
                    break;
                }
                _ => opts.positional.push(arg),
            }
        }
        Ok(opts)
    }

    /// Parses the real process arguments; a malformed flag is a
    /// [`usage_error`], and `--help` prints the shared flags to stdout and
    /// exits 0.
    pub fn from_env() -> Self {
        let opts = Self::parse(std::env::args().skip(1)).unwrap_or_else(|msg| usage_error(&msg));
        if opts.help {
            print!("usage: {} [FLAGS] [ARGS]\n\n{FLAGS}", bin_name());
            std::process::exit(0);
        }
        opts
    }

    /// For drivers that read no positional argument: a stray word or an
    /// unknown flag (the parser keeps both as positional) is a
    /// [`usage_error`].
    pub fn reject_positional(self) -> Self {
        if let Some(arg) = self.positional.first() {
            usage_error(&format!("unexpected argument {arg:?} (see --help)"));
        }
        self
    }

    /// For drivers that keep no checkpoint: `--resume` is a
    /// [`usage_error`] instead of being ignored.
    pub fn reject_resume(self) -> Self {
        if let Some(path) = &self.resume {
            usage_error(&format!(
                "--resume {path:?}: this driver keeps no checkpoint"
            ));
        }
        self
    }

    /// Removes a driver's own `flag VALUE` pair from the positional
    /// arguments and returns `VALUE` (`None` when the flag is absent). A
    /// flag with no value after it is a [`usage_error`].
    pub fn take_flag(&mut self, flag: &str) -> Option<String> {
        let at = self.positional.iter().position(|a| a == flag)?;
        if at + 1 >= self.positional.len() {
            usage_error(&format!("{flag} needs a value"));
        }
        let value = self.positional.remove(at + 1);
        self.positional.remove(at);
        Some(value)
    }

    /// The selected backend, defaulting to [`BackendSpec::Explicit`] when
    /// `--topology` was not given — for binaries that run on exactly one
    /// backend per invocation.
    pub fn backend_or_explicit(&self) -> BackendSpec {
        self.backend.unwrap_or_default()
    }

    /// The per-cell trial budget: `--budget` when given, otherwise a fixed
    /// `Trials(self.trials)` (so plain `--trials K` keeps its historical
    /// meaning in the spec-driven binaries).
    pub fn budget_or_trials(&self) -> Budget {
        self.budget.unwrap_or(Budget::Trials(self.trials))
    }

    /// The sizes to use, falling back to `default` when `--sizes` was not
    /// given.
    pub fn sizes_or(&self, default: &[usize]) -> Vec<usize> {
        if self.sizes.is_empty() {
            default.to_vec()
        } else {
            self.sizes.clone()
        }
    }

    /// Serialises a table in the selected [`OutputFormat`] (with a trailing
    /// newline), so every binary prints via `print!("{}", opts.render(&t))`.
    pub fn render(&self, t: &TextTable) -> String {
        match self.format {
            OutputFormat::Text => t.render(),
            OutputFormat::Csv => t.to_csv(),
            OutputFormat::Json => t.to_json_lines(),
        }
    }
}

/// Reports a bad command line: prints `<bin>: <msg>` to stderr and exits
/// with status 2, the usage-error code (a panic would exit 101).
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{}: {msg}", bin_name());
    std::process::exit(2)
}

/// The file name the process was started as.
fn bin_name() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    std::path::Path::new(&argv0)
        .file_name()
        .map_or(argv0.clone(), |f| f.to_string_lossy().into_owned())
}

/// Parses a `--budget` value: `trials:N` or `ci:REL[,MIN[,MAX]]`.
fn parse_budget(v: &str) -> Result<Budget, String> {
    if let Some(n) = v.strip_prefix("trials:") {
        let n = n
            .parse()
            .map_err(|_| format!("--budget trials:N needs an integer, got {n:?}"))?;
        return Ok(Budget::Trials(n));
    }
    let Some(spec) = v.strip_prefix("ci:") else {
        return Err(format!(
            "--budget must be trials:N or ci:REL[,MIN[,MAX]], got {v:?}"
        ));
    };
    let mut parts = spec.split(',');
    let rel: f64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("--budget ci:REL needs a number, got {spec:?}"))?;
    if rel.is_nan() || rel <= 0.0 {
        return Err(format!("--budget ci:REL must be positive, got {rel}"));
    }
    let min_trials: usize = match parts.next() {
        None => CI_DEFAULT_MIN_TRIALS,
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad min trials {s:?} in --budget"))?,
    };
    let max_trials: usize = match parts.next() {
        None => CI_DEFAULT_MAX_TRIALS.max(min_trials),
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad max trials {s:?} in --budget"))?,
    };
    if min_trials < 2 || max_trials < min_trials {
        return Err(format!(
            "--budget ci needs 2 <= min <= max, got min={min_trials} max={max_trials}"
        ));
    }
    if parts.next().is_some() {
        return Err("--budget ci takes at most REL,MIN,MAX".to_string());
    }
    Ok(Budget::CiHalfWidth {
        rel,
        min_trials,
        max_trials,
    })
}

fn expect_value<I: Iterator<Item = String>>(it: &mut I, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn expect_num<T: std::str::FromStr, I: Iterator<Item = String>>(
    it: &mut I,
    flag: &str,
) -> Result<T, String> {
    expect_value(it, flag)?
        .parse()
        .map_err(|_| format!("{flag} needs a numeric value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Options {
        Options::parse(words.iter().map(std::string::ToString::to_string)).expect("valid flags")
    }

    /// The usage error `words` must produce.
    fn parse_err(words: &[&str]) -> String {
        Options::parse(words.iter().map(std::string::ToString::to_string))
            .expect_err("flags must be rejected")
    }

    #[test]
    fn defaults_without_args() {
        let o = parse(&[]);
        assert_eq!(o.trials, 100);
        assert_eq!(o.seed, 1);
        assert!(o.sizes.is_empty());
        assert_eq!(o.format, OutputFormat::Text);
    }

    #[test]
    fn parses_flags_and_positional() {
        let o = parse(&[
            "cycle", "--trials", "50", "--seed", "9", "--sizes", "8,16,32", "--csv",
        ]);
        assert_eq!(o.positional, vec!["cycle"]);
        assert_eq!(o.trials, 50);
        assert_eq!(o.seed, 9);
        assert_eq!(o.sizes, vec![8, 16, 32]);
        assert_eq!(o.format, OutputFormat::Csv);
    }

    #[test]
    fn sizes_fallback() {
        let o = parse(&[]);
        assert_eq!(o.sizes_or(&[4, 8]), vec![4, 8]);
        let o = parse(&["--sizes", "64"]);
        assert_eq!(o.sizes_or(&[4, 8]), vec![64]);
    }

    #[test]
    fn help_stops_parsing() {
        for flag in ["--help", "-h"] {
            let o = parse(&["cycle", flag, "--trials", "x"]);
            assert!(o.help, "{flag}");
            assert_eq!(o.positional, vec!["cycle"]);
        }
        assert!(!parse(&["cycle"]).help);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse_err(&["--trials"]).contains("--trials needs a"));
    }

    #[test]
    fn format_flag_parses_all_variants() {
        assert_eq!(parse(&[]).format, OutputFormat::Text);
        assert_eq!(parse(&["--format", "text"]).format, OutputFormat::Text);
        assert_eq!(parse(&["--format", "csv"]).format, OutputFormat::Csv);
        assert_eq!(parse(&["--format", "json"]).format, OutputFormat::Json);
        // --csv stays a working alias
        assert_eq!(parse(&["--csv"]).format, OutputFormat::Csv);
    }

    #[test]
    fn bad_format_is_an_error() {
        assert!(parse_err(&["--format", "xml"]).contains("--format must be"));
    }

    #[test]
    fn topology_flag_parses() {
        assert_eq!(parse(&[]).backend, None);
        assert_eq!(parse(&[]).backend_or_explicit(), BackendSpec::Explicit);
        assert_eq!(
            parse(&["--topology", "explicit"]).backend,
            Some(BackendSpec::Explicit)
        );
        assert_eq!(
            parse(&["--topology", "implicit"]).backend,
            Some(BackendSpec::Implicit)
        );
        assert_eq!(
            parse(&["--topology", "implicit"]).backend_or_explicit(),
            BackendSpec::Implicit
        );
    }

    #[test]
    fn bad_topology_is_an_error() {
        assert!(parse_err(&["--topology", "csr"]).contains("--topology must be"));
    }

    #[test]
    fn budget_flag_parses() {
        assert_eq!(parse(&[]).budget, None);
        assert_eq!(
            parse(&[]).budget_or_trials(),
            Budget::Trials(100),
            "falls back to --trials"
        );
        assert_eq!(
            parse(&["--trials", "7"]).budget_or_trials(),
            Budget::Trials(7)
        );
        assert_eq!(
            parse(&["--budget", "trials:50"]).budget_or_trials(),
            Budget::Trials(50)
        );
        assert_eq!(
            parse(&["--budget", "ci:0.02"]).budget_or_trials(),
            Budget::CiHalfWidth {
                rel: 0.02,
                min_trials: CI_DEFAULT_MIN_TRIALS,
                max_trials: CI_DEFAULT_MAX_TRIALS,
            }
        );
        assert_eq!(
            parse(&["--budget", "ci:0.05,16,400"]).budget_or_trials(),
            Budget::CiHalfWidth {
                rel: 0.05,
                min_trials: 16,
                max_trials: 400,
            }
        );
    }

    #[test]
    fn bad_budget_is_an_error() {
        assert!(parse_err(&["--budget", "everything"]).contains("--budget must be"));
    }

    #[test]
    fn inverted_ci_budget_is_an_error() {
        assert!(parse_err(&["--budget", "ci:0.1,50,10"]).contains("2 <= min <= max"));
    }

    #[test]
    fn resume_flag_parses() {
        assert_eq!(parse(&[]).resume, None);
        assert_eq!(
            parse(&["--resume", "ck.ndjson"]).resume.as_deref(),
            Some("ck.ndjson")
        );
    }

    #[test]
    fn take_flag_removes_the_pair() {
        let mut o = parse(&["cycle", "--process", "seq", "path"]);
        assert_eq!(o.take_flag("--process").as_deref(), Some("seq"));
        assert_eq!(o.positional, vec!["cycle", "path"]);
        assert_eq!(o.take_flag("--process"), None);
    }

    #[test]
    fn render_matches_format() {
        let mut t = TextTable::new(["n"]);
        t.push_row(["4"]);
        assert_eq!(parse(&["--csv"]).render(&t), "n\n4\n");
        assert_eq!(parse(&["--format", "json"]).render(&t), "{\"n\":4}\n");
        assert!(parse(&[]).render(&t).contains('-'));
    }
}
